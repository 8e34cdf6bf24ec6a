// Tests for the src/cluster subsystem: HashRing properties (spread,
// stability, failover order), the ShardServer frame protocol, and the
// Router + RouterHttpServer end-to-end path over real loopback RPC —
// including the reroute-on-shard-kill chaos test (ctest -L chaos).

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/hash_ring.h"
#include "cluster/hot_key_table.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "common/random.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "net/http.h"
#include "net/http_recommend_server.h"
#include "net/json.h"
#include "rpc/rpc_client.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"
#include "workloads/workloads.h"

namespace juggler::cluster {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

TEST(HashRingTest, HashBytesIsDeterministicAndSpreads) {
  EXPECT_EQ(HashBytes("svm"), HashBytes("svm"));
  EXPECT_NE(HashBytes("svm"), HashBytes("pca"));
  EXPECT_NE(HashBytes(""), HashBytes(std::string("\0", 1)));
  // Single-bit input changes must move the hash (avalanche smoke check).
  EXPECT_NE(HashBytes("key0"), HashBytes("key1"));
}

TEST(HashRingTest, OwnerIsStableAcrossInstances) {
  const HashRing a(5, 64);
  const HashRing b(5, 64);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.Owner(key), b.Owner(key)) << key;
  }
}

TEST(HashRingTest, DistributionStaysNearUniform) {
  constexpr size_t kNodes = 3;
  constexpr int kKeys = 30'000;
  const HashRing ring(kNodes, 64);
  std::map<size_t, int> share;
  for (int i = 0; i < kKeys; ++i) {
    share[ring.Owner("app-" + std::to_string(i))]++;
  }
  ASSERT_EQ(share.size(), kNodes) << "every node must own some keys";
  for (const auto& [node, count] : share) {
    const double fraction = static_cast<double>(count) / kKeys;
    // 64 virtual nodes keep each share well within 2x of fair; pin a
    // tolerance loose enough to be deterministic-stable but tight enough
    // to catch a broken ring (e.g. all keys on one node).
    EXPECT_GT(fraction, 0.15) << "node " << node << " starved";
    EXPECT_LT(fraction, 0.55) << "node " << node << " overloaded";
  }
}

TEST(HashRingTest, AddingANodeOnlyMovesKeysToTheNewNode) {
  // The consistent-hashing contract: growing {0,1,2} to {0,1,2,3} never
  // moves a key between the original nodes — a key either keeps its owner
  // or moves to the new node (existing nodes' ring points are unchanged).
  const HashRing before(3, 64);
  const HashRing after(4, 64);
  int moved = 0;
  constexpr int kKeys = 10'000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const size_t old_owner = before.Owner(key);
    const size_t new_owner = after.Owner(key);
    if (new_owner != old_owner) {
      EXPECT_EQ(new_owner, 3u) << key << " moved between existing nodes";
      ++moved;
    }
  }
  // Roughly 1/4 of keys should move to the new node — far from "all" (naive
  // modulo hashing) and far from "none" (new node starved).
  EXPECT_GT(moved, kKeys / 10);
  EXPECT_LT(moved, kKeys / 2);
}

TEST(HashRingTest, PreferenceYieldsDistinctNodesStartingAtTheOwner) {
  const HashRing ring(4, 64);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const auto prefs = ring.Preference(key, 4);
    ASSERT_EQ(prefs.size(), 4u);
    EXPECT_EQ(prefs[0], ring.Owner(key));
    EXPECT_EQ(std::set<size_t>(prefs.begin(), prefs.end()).size(), 4u)
        << "failover order must be distinct nodes";
  }
  // n past node_count clamps; n == 0 is empty.
  EXPECT_EQ(ring.Preference("k", 10).size(), 4u);
  EXPECT_TRUE(ring.Preference("k", 0).empty());
}

TEST(HashRingTest, SingleNodeOwnsEverything) {
  const HashRing ring(1, 8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ring.Owner("key-" + std::to_string(i)), 0u);
  }
}

// ---------------------------------------------------------------------------
// HotKeyTable
// ---------------------------------------------------------------------------

TEST(HotKeyTableTest, EvictsFewestHitsThenSmallestKey) {
  HotKeyTable table(3);
  table.Record("a", "pa", 0);
  table.Record("a", "pa", 0);
  table.Record("c", "pc", 0);
  table.Record("b", "pb", 1);
  ASSERT_EQ(table.size(), 3u);

  table.Record("d", "pd", 1);  // b and c tie at 1 hit: b is smaller.
  EXPECT_EQ(table.Find("b"), nullptr);
  ASSERT_NE(table.Find("c"), nullptr);
  table.Record("e", "pe", 1);  // c and d tie at 1 hit: c goes.
  EXPECT_EQ(table.Find("c"), nullptr);
  ASSERT_NE(table.Find("a"), nullptr);
  EXPECT_EQ(table.Find("a")->hits, 2u);
  EXPECT_EQ(table.size(), 3u);

  // A hit keeps the first payload and takes the new owner.
  table.Record("d", "other", 0);
  const HotKeyTable::Entry* d = table.Find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->payload, "pd");
  EXPECT_EQ(d->owner, 0u);
  EXPECT_EQ(d->hits, 2u);
}

TEST(HotKeyTableTest, MatchesALinearScanOverEveryEntry) {
  // Reference: the scan the index replaces — the first entry in key order
  // with the fewest hits is evicted.
  struct Ref {
    std::string payload;
    uint64_t hits = 0;
    size_t owner = 0;
  };
  constexpr size_t kCapacity = 32;
  std::map<std::string, Ref> reference;
  HotKeyTable table(kCapacity);
  Rng rng(17);
  for (int step = 0; step < 20'000; ++step) {
    // Skewed popularity over 300 keys, so hot keys survive and cold churn.
    const uint64_t u = rng.UniformInt(uint64_t{300});
    const std::string key = "k" + std::to_string(u * u / 300);
    const size_t owner = rng.UniformInt(uint64_t{3});
    auto it = reference.find(key);
    if (it == reference.end()) {
      if (reference.size() >= kCapacity) {
        auto coldest = reference.begin();
        for (auto c = reference.begin(); c != reference.end(); ++c) {
          if (c->second.hits < coldest->second.hits) coldest = c;
        }
        reference.erase(coldest);
      }
      it = reference.emplace(key, Ref{"p" + key, 0, 0}).first;
    }
    it->second.owner = owner;
    ++it->second.hits;
    table.Record(key, "p" + key, owner);

    ASSERT_EQ(table.size(), reference.size()) << "step " << step;
    for (const auto& [ref_key, ref] : reference) {
      const HotKeyTable::Entry* entry = table.Find(ref_key);
      ASSERT_NE(entry, nullptr) << "step " << step << " lost " << ref_key;
      EXPECT_EQ(entry->hits, ref.hits);
      EXPECT_EQ(entry->owner, ref.owner);
      EXPECT_EQ(entry->payload, ref.payload);
    }
  }
}

TEST(HotKeyTableTest, TopKFiltersByOwnerHottestFirst) {
  HotKeyTable table(16);
  const auto record = [&](const std::string& key, size_t owner, int hits) {
    for (int i = 0; i < hits; ++i) table.Record(key, "p" + key, owner);
  };
  record("a", 0, 5);
  record("b", 1, 9);
  record("c", 0, 7);
  record("d", 2, 8);
  record("e", 0, 7);
  record("f", 1, 1);

  // Shards 0 and 1: hottest first, equal hits by larger key first.
  EXPECT_EQ(table.TopK({true, true, false}, 10),
            (std::vector<std::string>{"pb", "pe", "pc", "pa", "pf"}));
  EXPECT_EQ(table.TopK({true, true, false}, 3),
            (std::vector<std::string>{"pb", "pe", "pc"}));
  EXPECT_EQ(table.TopK({false, false, true}, 8),
            (std::vector<std::string>{"pd"}));
  EXPECT_TRUE(table.TopK({}, 8).empty()) << "no owner marked";
  EXPECT_TRUE(table.TopK({true, true, true}, 0).empty());
}

// ---------------------------------------------------------------------------
// Cluster fixture: one trained model served by two in-process shards behind
// a router. Training dominates runtime, so the model is built once.
// ---------------------------------------------------------------------------

const core::TrainedJuggler& SvmModel() {
  static const core::TrainedJuggler* const model = [] {
    const auto w = workloads::GetWorkload("svm").value();
    core::JugglerConfig config;
    config.time_grid = core::TrainingGrid{{4000, 8000, 16000},
                                          {1000, 2000, 4000},
                                          /*iterations=*/5};
    config.memory_reference = w.paper_params;
    config.run_options.noise_sigma = 0.0;
    config.run_options.straggler_prob = 0.0;
    auto training = core::TrainJuggler("svm", w.make, config);
    EXPECT_TRUE(training.ok()) << training.status().ToString();
    return new core::TrainedJuggler(std::move(training)->trained);
  }();
  return *model;
}

struct Shard {
  std::shared_ptr<service::ModelRegistry> registry;
  std::shared_ptr<service::RecommendationService> service;
  std::unique_ptr<ShardServer> server;
};

struct ClusterFixture {
  fs::path dir;
  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<Router> router;
  std::unique_ptr<RouterHttpServer> http;

  explicit ClusterFixture(const std::string& test_name, size_t shard_count = 2,
                          int probe_interval_ms = 50) {
    dir = fs::path(testing::TempDir()) / ("cluster_" + test_name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream out(dir / "svm.model");
    EXPECT_TRUE(core::SaveTrainedJuggler(SvmModel(), out).ok());
    out.close();

    std::vector<std::string> addresses;
    for (size_t i = 0; i < shard_count; ++i) {
      auto shard = std::make_unique<Shard>();
      // Shards run the lazy registry, exactly as --role=shard does: models
      // load on first use, so each shard only pays for what routes to it.
      service::ModelRegistry::Options ropts;
      ropts.lazy_load = true;
      shard->registry = std::make_shared<service::ModelRegistry>(dir.string(),
                                                                 ropts);
      EXPECT_TRUE(shard->registry->Refresh().ok());
      shard->service = std::make_shared<service::RecommendationService>(
          shard->registry, service::RecommendationService::Options{});
      ShardServer::Options sopts;
      sopts.rpc.num_handler_threads = 2;
      shard->server = std::make_unique<ShardServer>(shard->registry,
                                                    shard->service, sopts);
      EXPECT_TRUE(shard->server->Start().ok());
      addresses.push_back("127.0.0.1:" +
                          std::to_string(shard->server->port()));
      shards.push_back(std::move(shard));
    }

    Router::Options ropts;
    ropts.shards = addresses;
    ropts.probe_interval_ms = probe_interval_ms;
    ropts.connect_timeout_ms = 500;
    auto created = Router::Create(ropts);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    router = std::move(created).value();
    EXPECT_TRUE(router->Start().ok());
    http = std::make_unique<RouterHttpServer>(router.get(),
                                              RouterHttpServer::Options{});
  }

  ~ClusterFixture() {
    if (router != nullptr) router->Stop();
    for (auto& shard : shards) shard->server->Stop();
  }
};

net::HttpRequest MakeRequest(const std::string& method,
                             const std::string& target,
                             const std::string& body = "") {
  net::HttpRequest request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.1";
  request.body = body;
  return request;
}

constexpr char kSvmBody[] =
    R"({"app":"svm","params":{"examples":12000,"features":3000,)"
    R"("iterations":5}})";

// ---------------------------------------------------------------------------
// Router end-to-end (no HTTP socket: RouterHttpServer::Handle directly; the
// RPC hop underneath runs over real loopback sockets).
// ---------------------------------------------------------------------------

TEST(RouterTest, CreateValidatesAddresses) {
  for (const std::string bad :
       {"", "localhost", ":8080", "host:", "host:0", "host:99999",
        "host:abc"}) {
    Router::Options options;
    options.shards = {bad};
    EXPECT_FALSE(Router::Create(options).ok()) << "'" << bad << "'";
  }
  Router::Options none;
  EXPECT_FALSE(Router::Create(none).ok()) << "empty shard list";
  Router::Options good;
  good.shards = {"127.0.0.1:9001", "shard-2.local:9002"};
  EXPECT_TRUE(Router::Create(good).ok());
}

TEST(RouterTest, RecommendRoutesColdThenWarmIdentically) {
  ClusterFixture f("warm");
  const auto request = MakeRequest("POST", "/v1/recommend", kSvmBody);

  const auto cold = f.http->Handle(request);
  ASSERT_EQ(cold.status, 200) << cold.body;
  auto cold_json = net::Json::Parse(cold.body);
  ASSERT_TRUE(cold_json.ok()) << cold.body;
  ASSERT_NE(cold_json->Find("recommendations"), nullptr);
  EXPECT_FALSE(cold_json->Find("recommendations")->array_items().empty());

  // Same question routes to the same shard, whose cache is now warm: the
  // recommendations must be bit-identical and the hit flag on.
  const auto warm = f.http->Handle(request);
  ASSERT_EQ(warm.status, 200);
  auto warm_json = net::Json::Parse(warm.body);
  ASSERT_TRUE(warm_json.ok());
  EXPECT_EQ(warm_json->Find("recommendations")->Dump(),
            cold_json->Find("recommendations")->Dump());
  ASSERT_NE(warm_json->Find("cache_hit"), nullptr);
  EXPECT_TRUE(warm_json->Find("cache_hit")->bool_value());

  // Exactly one shard served both calls (sticky routing); the other saw none
  // of this traffic (probes don't count as requests).
  const auto stats = f.router->GetShardStats();
  ASSERT_EQ(stats.size(), 2u);
  const uint64_t total = stats[0].requests + stats[1].requests;
  EXPECT_EQ(total, 2u);
  EXPECT_TRUE(stats[0].requests == 0 || stats[1].requests == 0)
      << "the same key must not fan out across shards";
}

TEST(RouterTest, UnknownAppComesBackAs404NotAReroute) {
  ClusterFixture f("unknown_app");
  const auto response = f.http->Handle(MakeRequest(
      "POST", "/v1/recommend",
      R"({"app":"no-such-app","params":{"examples":12000,"features":3000,)"
      R"("iterations":5}})"));
  EXPECT_EQ(response.status, 404) << response.body;
  EXPECT_NE(response.body.find("NOT_FOUND"), std::string::npos);
  EXPECT_EQ(f.router->reroutes(), 0u)
      << "application errors must never reroute";
}

TEST(RouterTest, MalformedBodyIs400WithoutANetworkHop) {
  ClusterFixture f("bad_body");
  const auto response =
      f.http->Handle(MakeRequest("POST", "/v1/recommend", "not json"));
  EXPECT_EQ(response.status, 400);
  const auto stats = f.router->GetShardStats();
  EXPECT_EQ(stats[0].requests + stats[1].requests, 0u)
      << "validation failures must not reach a shard";
}

TEST(RouterTest, BatchRoutesEachSlotAndSplicesResults) {
  ClusterFixture f("batch");
  const std::string body =
      R"({"requests":[)" + std::string(kSvmBody) + "," +
      R"({"app":"svm","params":{"examples":24000,"features":1000,)" +
      R"("iterations":5}}]})";
  const auto response = f.http->Handle(MakeRequest("POST", "/v1/recommend",
                                                   body));
  ASSERT_EQ(response.status, 200) << response.body;
  auto json = net::Json::Parse(response.body);
  ASSERT_TRUE(json.ok()) << response.body;
  ASSERT_NE(json->Find("results"), nullptr);
  ASSERT_EQ(json->Find("results")->array_items().size(), 2u);
  for (const auto& result : json->Find("results")->array_items()) {
    EXPECT_NE(result.Find("recommendations"), nullptr);
  }

  // One malformed slot fails the whole batch before any forwarding.
  const auto bad = f.http->Handle(MakeRequest(
      "POST", "/v1/recommend",
      R"({"requests":[)" + std::string(kSvmBody) + R"(,{"params":{}}]})"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("requests[1]"), std::string::npos) << bad.body;
}

TEST(RouterTest, AppsAndReloadAndMetricsRoutes) {
  ClusterFixture f("routes");
  const auto apps = f.http->Handle(MakeRequest("GET", "/v1/apps"));
  ASSERT_EQ(apps.status, 200) << apps.body;
  EXPECT_NE(apps.body.find("svm"), std::string::npos);

  const auto reload = f.http->Handle(MakeRequest("POST", "/v1/reload"));
  ASSERT_EQ(reload.status, 200) << reload.body;
  auto reload_json = net::Json::Parse(reload.body);
  ASSERT_TRUE(reload_json.ok()) << reload.body;
  ASSERT_NE(reload_json->Find("shards"), nullptr);
  EXPECT_EQ(reload_json->Find("shards")->array_items().size(), 2u);

  const auto health = f.http->Handle(MakeRequest("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);

  const auto metrics = f.http->Handle(MakeRequest("GET", "/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("juggler_router_shard_healthy{shard=\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("juggler_router_reroutes_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("juggler_router_healthy_shards"),
            std::string::npos);
  // Lock-pressure series: the router's shard pools are named lock classes,
  // so their counters must surface here.
  EXPECT_NE(metrics.body.find("juggler_lock_acquisitions_total{lock="
                              "\"cluster.Router.shard_pool\"}"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("juggler_lock_hold_seconds_total"),
            std::string::npos);

  const auto missing = f.http->Handle(MakeRequest("GET", "/nope"));
  EXPECT_EQ(missing.status, 404);
}

/// Names of the `juggler_http_*` samples in a Prometheus exposition.
std::set<std::string> HttpSeriesNames(const std::string& metrics) {
  std::set<std::string> names;
  std::istringstream lines(metrics);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("juggler_http_", 0) == 0) {
      names.insert(line.substr(0, line.find_first_of(" {")));
    }
  }
  return names;
}

TEST(RouterTest, HttpSeriesMatchTheStandaloneServer) {
  ClusterFixture f("http_series");
  net::HttpRecommendServer standalone(f.shards[0]->registry,
                                      f.shards[0]->service,
                                      net::HttpRecommendServer::Options{});
  const std::set<std::string> router_names =
      HttpSeriesNames(f.http->MetricsText());
  const std::set<std::string> standalone_names =
      HttpSeriesNames(standalone.MetricsText());
  EXPECT_EQ(router_names, standalone_names);
  EXPECT_EQ(router_names.count("juggler_http_fast_path_total"), 1u);
  EXPECT_EQ(router_names.count("juggler_http_idle_closed_total"), 1u);
  EXPECT_EQ(router_names.count("juggler_http_requests_total"), 1u);
}

// ---------------------------------------------------------------------------
// Chaos: kill a shard mid-load; every client request must still succeed.
// Registered with LABELS chaos (ctest -L chaos).
// ---------------------------------------------------------------------------

TEST(RouterChaosTest, KillingAShardReroutesWithZeroClientErrors) {
  ClusterFixture f("kill", /*shard_count=*/2, /*probe_interval_ms=*/50);
  const auto request = MakeRequest("POST", "/v1/recommend", kSvmBody);

  // Warm the route so we know which shard owns this key.
  ASSERT_EQ(f.http->Handle(request).status, 200);
  const auto before = f.router->GetShardStats();
  const size_t owner = before[0].requests > 0 ? 0 : 1;

  // Kill the owning shard — the worst case: the very shard this key's
  // preference order starts at.
  f.shards[owner]->server->Stop();

  int failures = 0;
  for (int i = 0; i < 30; ++i) {
    const auto response = f.http->Handle(request);
    if (response.status != 200) {
      ++failures;
      ADD_FAILURE() << "request " << i << " failed: " << response.status
                    << " " << response.body;
    }
  }
  EXPECT_EQ(failures, 0) << "a dead shard must be invisible to clients";
  EXPECT_GE(f.router->reroutes(), 1u)
      << "the first post-kill request must have rerouted away from the owner";

  // The prober converges on the truth within a few intervals.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.router->healthy_shards() != 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(f.router->healthy_shards(), 1u);

  // Health endpoint stays green on the surviving shard.
  EXPECT_EQ(f.http->Handle(MakeRequest("GET", "/healthz")).status, 200);

  // Metrics reflect the event.
  const std::string metrics = f.http->MetricsText();
  EXPECT_NE(metrics.find("juggler_router_healthy_shards 1"),
            std::string::npos)
      << metrics;
}

TEST(RouterChaosTest, FailoverSendsWarmHintsToTheSurvivor) {
  // Long probe interval: the prober must not mark the killed shard down
  // before the rerouted request observes the transport failure itself (a
  // skipped-as-unhealthy shard is not a "failed" shard, so no hint).
  ClusterFixture f("warm_hint", /*shard_count=*/2,
                   /*probe_interval_ms=*/5000);

  // Serve distinct questions until one shard owns at least two hot keys:
  // the key that triggers the reroute gets re-owned by the survivor, so the
  // hint's payload comes from the *other* keys the dead shard served.
  const auto body_for = [](int i) {
    return std::string(R"({"app":"svm","params":{"examples":)") +
           std::to_string(12000 + 500 * i) +
           R"(,"features":3000,"iterations":5}})";
  };
  std::vector<std::vector<std::string>> keys_by_shard(2);
  size_t owner = 2;
  for (int i = 0; i < 32 && owner == 2; ++i) {
    const std::string body = body_for(i);
    const auto before = f.router->GetShardStats();
    ASSERT_EQ(f.http->Handle(MakeRequest("POST", "/v1/recommend", body)).status,
              200);
    const auto after = f.router->GetShardStats();
    for (size_t s = 0; s < 2; ++s) {
      if (after[s].requests > before[s].requests) {
        keys_by_shard[s].push_back(body);
        if (keys_by_shard[s].size() >= 2) owner = s;
      }
    }
  }
  ASSERT_LT(owner, 2u) << "hashing never gave one shard two keys in 32 tries";
  const size_t survivor = 1 - owner;
  EXPECT_EQ(f.router->warm_hints(), 0u);
  EXPECT_EQ(f.shards[survivor]->server->warms(), 0u);

  f.shards[owner]->server->Stop();

  // The reroute path sends the hint synchronously before answering, so the
  // counters are settled the moment Handle returns.
  const auto rerouted = f.http->Handle(
      MakeRequest("POST", "/v1/recommend", keys_by_shard[owner][0]));
  ASSERT_EQ(rerouted.status, 200) << rerouted.body;
  EXPECT_GE(f.router->reroutes(), 1u);
  EXPECT_GE(f.router->warm_hints(), 1u)
      << "failover must hand the survivor the dead shard's hot keys";
  EXPECT_GE(f.router->warm_keys(), 1u);
  EXPECT_GE(f.shards[survivor]->server->warms(), 1u)
      << "the survivor must have queued the hinted questions";

  const std::string metrics = f.http->MetricsText();
  EXPECT_NE(metrics.find("juggler_router_warm_hints_total"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("juggler_router_warm_keys_total"), std::string::npos);
}

TEST(RouterChaosTest, AllShardsDownIs503ShapedAndHealthzGoesRed) {
  ClusterFixture f("all_down", /*shard_count=*/2, /*probe_interval_ms=*/50);
  for (auto& shard : f.shards) shard->server->Stop();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.router->healthy_shards() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(f.router->healthy_shards(), 0u);

  const auto response =
      f.http->Handle(MakeRequest("POST", "/v1/recommend", kSvmBody));
  EXPECT_EQ(response.status, 503) << response.body;
  EXPECT_NE(response.body.find("RESOURCE_EXHAUSTED"), std::string::npos);
  EXPECT_EQ(f.http->Handle(MakeRequest("GET", "/healthz")).status, 503);
}

// ---------------------------------------------------------------------------
// ShardServer frame protocol (no socket: Handle directly).
// ---------------------------------------------------------------------------

TEST(ShardServerTest, HandlesEveryFrameTypeOfTheProtocol) {
  ClusterFixture f("protocol", /*shard_count=*/1);
  ShardServer& shard = *f.shards[0]->server;

  rpc::RpcFrame recommend;
  recommend.type = rpc::FrameType::kRecommend;
  recommend.payload = kSvmBody;
  const auto reply = shard.Handle(recommend);
  EXPECT_EQ(reply.type, rpc::FrameType::kRecommendReply);
  EXPECT_NE(reply.payload.find("recommendations"), std::string::npos);

  rpc::RpcFrame apps;
  apps.type = rpc::FrameType::kApps;
  const auto apps_reply = shard.Handle(apps);
  EXPECT_EQ(apps_reply.type, rpc::FrameType::kAppsReply);
  EXPECT_NE(apps_reply.payload.find("svm"), std::string::npos);

  rpc::RpcFrame reload;
  reload.type = rpc::FrameType::kReload;
  const auto reload_reply = shard.Handle(reload);
  EXPECT_EQ(reload_reply.type, rpc::FrameType::kReloadReply);

  rpc::RpcFrame bad;
  bad.type = rpc::FrameType::kRecommend;
  bad.payload = "not json";
  const auto bad_reply = shard.Handle(bad);
  EXPECT_EQ(bad_reply.type, rpc::FrameType::kError);
  EXPECT_NE(bad_reply.payload.find("INVALID_ARGUMENT"), std::string::npos);

  rpc::RpcFrame unsupported;
  unsupported.type = rpc::FrameType::kPong;  // Not a request type.
  const auto unsupported_reply = shard.Handle(unsupported);
  EXPECT_EQ(unsupported_reply.type, rpc::FrameType::kError);
}

TEST(ShardServerTest, WarmReplyOverTheSocketIsByteIdenticalToHandle) {
  ClusterFixture f("fast_path", /*shard_count=*/1);
  ShardServer& shard = *f.shards[0]->server;
  rpc::RpcClient::Options copts;
  copts.port = shard.port();
  rpc::RpcClient client(copts);

  // A cold key declines the loop fast path and is evaluated on the pool.
  auto cold = client.Call(rpc::FrameType::kRecommend, kSvmBody);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->type, rpc::FrameType::kRecommendReply);
  EXPECT_EQ(shard.rpc_stats().fast_path, 0u);

  // Now warm: the loop thread answers, with exactly Handle()'s bytes.
  rpc::RpcFrame recommend;
  recommend.type = rpc::FrameType::kRecommend;
  recommend.payload = kSvmBody;
  const rpc::RpcFrame expected = shard.Handle(recommend);
  ASSERT_EQ(expected.type, rpc::FrameType::kRecommendReply);
  auto warm = client.Call(rpc::FrameType::kRecommend, kSvmBody);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->type, expected.type);
  EXPECT_EQ(warm->payload, expected.payload);
  EXPECT_EQ(shard.rpc_stats().fast_path, 1u);

  // Malformed JSON and an unknown app are answered inline too, with the
  // same kError bytes the pool path produces.
  for (const char* payload :
       {"not json", R"({"app":"nope","params":{"examples":1,"features":1}})"}) {
    rpc::RpcFrame bad;
    bad.type = rpc::FrameType::kRecommend;
    bad.payload = payload;
    const rpc::RpcFrame bad_expected = shard.Handle(bad);
    ASSERT_EQ(bad_expected.type, rpc::FrameType::kError);
    auto bad_reply = client.Call(rpc::FrameType::kRecommend, payload);
    ASSERT_TRUE(bad_reply.ok()) << bad_reply.status().ToString();
    EXPECT_EQ(bad_reply->type, bad_expected.type);
    EXPECT_EQ(bad_reply->payload, bad_expected.payload) << payload;
  }
  EXPECT_EQ(shard.rpc_stats().fast_path, 3u);

  // Other frame types never take the fast path.
  auto apps = client.Call(rpc::FrameType::kApps, "");
  ASSERT_TRUE(apps.ok()) << apps.status().ToString();
  EXPECT_EQ(apps->type, rpc::FrameType::kAppsReply);
  EXPECT_EQ(shard.rpc_stats().fast_path, 3u);
}

}  // namespace
}  // namespace juggler::cluster
