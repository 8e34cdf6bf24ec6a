// Tests for the src/cluster subsystem: HashRing properties (spread,
// stability, failover order), the ShardServer frame protocol, and the
// Router + RouterHttpServer end-to-end path over real loopback RPC —
// including the reroute-on-shard-kill chaos test (ctest -L chaos).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <mutex>
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
#include "rpc/frame.h"
#include "rpc/rpc_client.h"
#include "service/prediction_cache.h"
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

/// Holds model evaluations on one shard until released (installed as every
/// shard service's pre_eval_hook; shared so late evaluations stay safe).
class EvalGate {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  std::function<void()> HookFor(const std::shared_ptr<EvalGate>& self,
                                size_t shard) {
    return [self, shard] { self->Enter(shard); };
  }
  void Block(size_t shard) {
    std::lock_guard<std::mutex> lock(mu_);
    blocked_ = shard;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      blocked_ = kNone;
    }
    cv_.notify_all();
  }
  /// Waits up to 10 s until `count` evaluations are held.
  bool WaitHeld(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return held_ >= count; });
  }

 private:
  void Enter(size_t shard) {
    std::unique_lock<std::mutex> lock(mu_);
    if (blocked_ != shard) return;
    ++held_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return blocked_ != shard; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  size_t blocked_ = kNone;
  int held_ = 0;
};

struct FixtureConfig {
  size_t shard_count = 2;
  int probe_interval_ms = 50;
  int rpc_timeout_ms = 5'000;
  size_t max_clients_per_shard = 8;
  bool force_poll = false;
  service::RecommendationService::Options service;
  /// Installed as each shard service's pre_eval_hook when set.
  std::shared_ptr<EvalGate> gate;
  RouterHttpServer::Options http;
};

struct ClusterFixture {
  fs::path dir;
  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<Router> router;
  std::unique_ptr<RouterHttpServer> http;

  explicit ClusterFixture(const std::string& test_name, size_t shard_count = 2,
                          int probe_interval_ms = 50)
      : ClusterFixture(test_name, [&] {
          FixtureConfig config;
          config.shard_count = shard_count;
          config.probe_interval_ms = probe_interval_ms;
          return config;
        }()) {}

  ClusterFixture(const std::string& test_name, const FixtureConfig& config) {
    dir = fs::path(testing::TempDir()) / ("cluster_" + test_name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream out(dir / "svm.model");
    EXPECT_TRUE(core::SaveTrainedJuggler(SvmModel(), out).ok());
    out.close();

    std::vector<std::string> addresses;
    for (size_t i = 0; i < config.shard_count; ++i) {
      auto shard = std::make_unique<Shard>();
      // Shards run the lazy registry, exactly as --role=shard does: models
      // load on first use, so each shard only pays for what routes to it.
      service::ModelRegistry::Options ropts;
      ropts.lazy_load = true;
      shard->registry = std::make_shared<service::ModelRegistry>(dir.string(),
                                                                 ropts);
      EXPECT_TRUE(shard->registry->Refresh().ok());
      service::RecommendationService::Options service = config.service;
      if (config.gate) service.pre_eval_hook = config.gate->HookFor(config.gate, i);
      shard->service = std::make_shared<service::RecommendationService>(
          shard->registry, service);
      ShardServer::Options sopts;
      sopts.rpc.num_handler_threads = 2;
      sopts.rpc.force_poll = config.force_poll;
      shard->server = std::make_unique<ShardServer>(shard->registry,
                                                    shard->service, sopts);
      EXPECT_TRUE(shard->server->Start().ok());
      addresses.push_back("127.0.0.1:" +
                          std::to_string(shard->server->port()));
      shards.push_back(std::move(shard));
    }

    Router::Options ropts;
    ropts.shards = addresses;
    ropts.probe_interval_ms = config.probe_interval_ms;
    ropts.connect_timeout_ms = 500;
    ropts.rpc_timeout_ms = config.rpc_timeout_ms;
    ropts.max_clients_per_shard = config.max_clients_per_shard;
    auto created = Router::Create(ropts);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    router = std::move(created).value();
    EXPECT_TRUE(router->Start().ok());
    http = std::make_unique<RouterHttpServer>(router.get(), config.http);
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

// ---------------------------------------------------------------------------
// Real sockets on both tiers: the router's HTTP edge and shard channels
// share the router loop; shards take cold keys straight to their service.
// ---------------------------------------------------------------------------

/// Blocking loopback socket for one end of a conversation with a server
/// under test.
class LoopbackSocket {
 public:
  explicit LoopbackSocket(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~LoopbackSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }

  /// Appends what arrives to `buffer_`; false on EOF or timeout.
  bool ReadMore() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  /// One HTTP response (Content-Length framed); "" on EOF or timeout.
  std::string ReadHttpResponse() {
    for (;;) {
      const size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::string needle = "Content-Length: ";
        const size_t pos = buffer_.find(needle);
        const size_t length =
            pos == std::string::npos
                ? 0
                : static_cast<size_t>(
                      std::stoul(buffer_.substr(pos + needle.size())));
        const size_t total = header_end + 4 + length;
        if (buffer_.size() >= total) {
          std::string response = buffer_.substr(0, total);
          buffer_.erase(0, total);
          return response;
        }
      }
      if (!ReadMore()) return "";
    }
  }

  /// One JRPC frame; nullopt on EOF, timeout or framing error.
  std::optional<rpc::RpcFrame> ReadFrame() {
    for (;;) {
      rpc::FrameDecoder decoder;
      decoder.Append(buffer_.data(), buffer_.size());
      auto result = decoder.Next();
      if (result.state == rpc::FrameDecoder::State::kReady) {
        buffer_.erase(0, buffer_.size() - decoder.buffered_bytes());
        return result.frame;
      }
      if (result.state == rpc::FrameDecoder::State::kError) return std::nullopt;
      if (!ReadMore()) return std::nullopt;
    }
  }

  /// Closes with a reset (SO_LINGER 0): the server sees the peer die at once.
  void Reset() {
    linger hard{};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string RecommendWire(const std::string& body) {
  return "POST /v1/recommend HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int StatusOf(const std::string& response) {
  return response.size() < 12 ? -1 : std::stoi(response.substr(9, 3));
}

std::string BodyOf(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

/// The route key and forwarded payload the HTTP edge derives from `body`.
std::pair<std::string, std::string> RouteOf(const std::string& body) {
  auto json = net::Json::Parse(body);
  EXPECT_TRUE(json.ok());
  auto parsed = net::ParseRecommendRequest(*json);
  EXPECT_TRUE(parsed.ok());
  return {service::PredictionCache::MakeKey(parsed->app, 0, parsed->params,
                                            parsed->machine_type),
          json->Dump()};
}

std::string SvmBodyWithExamples(int examples) {
  return std::string(R"({"app":"svm","params":{"examples":)") +
         std::to_string(examples) + R"(,"features":3000,"iterations":5}})";
}

template <typename Predicate>
bool WaitUntil(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(RouterLoopTest, KillingAShardWithCallsInFlightReroutesEveryOne) {
  FixtureConfig config;
  config.probe_interval_ms = 5'000;  // Only the calls themselves find out.
  config.gate = std::make_shared<EvalGate>();
  ClusterFixture f("kill_in_flight", config);
  ASSERT_TRUE(f.http->Start().ok());
  const size_t owner = f.router->ring().Owner(RouteOf(kSvmBody).first);
  config.gate->Block(owner);

  // Six calls for the same cold key, all in flight on the owner at once
  // (each on its own router connection, held in the owner's service).
  constexpr int kCalls = 6;
  std::vector<std::unique_ptr<LoopbackSocket>> clients;
  for (int i = 0; i < kCalls; ++i) {
    clients.push_back(std::make_unique<LoopbackSocket>(f.http->port()));
    clients.back()->Send(RecommendWire(kSvmBody));
  }
  ASSERT_TRUE(config.gate->WaitHeld(1));
  ASSERT_TRUE(WaitUntil([&] {
    return f.shards[owner]->server->rpc_stats().requests >=
           static_cast<uint64_t>(kCalls);
  }));

  f.shards[owner]->server->Stop();
  for (int i = 0; i < kCalls; ++i) {
    const std::string response = clients[i]->ReadHttpResponse();
    EXPECT_EQ(StatusOf(response), 200) << "call " << i << ": " << response;
    EXPECT_NE(BodyOf(response).find("recommendations"), std::string::npos);
  }
  EXPECT_GE(f.router->reroutes(), static_cast<uint64_t>(kCalls));
  EXPECT_EQ(f.router->GetShardStats()[owner].healthy, false);
  config.gate->Release();
}

TEST(RouterLoopTest, PausedShardTimesOutThenReroutes) {
  FixtureConfig config;
  config.probe_interval_ms = 5'000;
  config.rpc_timeout_ms = 300;
  config.gate = std::make_shared<EvalGate>();
  ClusterFixture f("paused", config);
  ASSERT_TRUE(f.http->Start().ok());
  const size_t owner = f.router->ring().Owner(RouteOf(kSvmBody).first);
  config.gate->Block(owner);

  LoopbackSocket client(f.http->port());
  const auto start = std::chrono::steady_clock::now();
  client.Send(RecommendWire(kSvmBody));
  const std::string response = client.ReadHttpResponse();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(StatusOf(response), 200) << response;
  // The loop tick (50 ms) enforces the deadline, then the survivor answers.
  EXPECT_GE(elapsed, std::chrono::milliseconds(300));
  EXPECT_LT(elapsed, std::chrono::seconds(3));
  EXPECT_GE(f.router->reroutes(), 1u);
  const auto stats = f.router->GetShardStats();
  EXPECT_EQ(stats[owner].errors, 1u);
  EXPECT_EQ(stats[1 - owner].requests, 1u);
  config.gate->Release();
}

TEST(RouterLoopTest, ClientGoneMidCallDropsTheLateReply) {
  FixtureConfig config;
  config.gate = std::make_shared<EvalGate>();
  ClusterFixture f("client_gone", config);
  ASSERT_TRUE(f.http->Start().ok());
  const size_t owner = f.router->ring().Owner(RouteOf(kSvmBody).first);
  config.gate->Block(owner);

  {
    LoopbackSocket gone(f.http->port());
    gone.Send(RecommendWire(kSvmBody));
    ASSERT_TRUE(config.gate->WaitHeld(1));
    gone.Reset();
  }
  ASSERT_TRUE(WaitUntil([&] { return f.http->http_stats().active == 0; }));
  config.gate->Release();
  // The shard answers the router, whose reply finds no connection to go to.
  ASSERT_TRUE(
      WaitUntil([&] { return f.router->GetShardStats()[owner].requests == 1; }));

  LoopbackSocket next(f.http->port());
  next.Send(RecommendWire(kSvmBody));
  const std::string response = next.ReadHttpResponse();
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_NE(BodyOf(response).find("\"cache_hit\":true"), std::string::npos)
      << "the abandoned call still warmed the owner";
  EXPECT_EQ(f.router->reroutes(), 0u);
}

TEST(RouterLoopTest, WaitingBeyondTheDispatchQueueIs503WithRetryAfter) {
  FixtureConfig config;
  config.max_clients_per_shard = 1;
  config.http.http.dispatch_queue_capacity = 1;
  config.gate = std::make_shared<EvalGate>();
  ClusterFixture f("waiting_bound", config);
  ASSERT_TRUE(f.http->Start().ok());
  const size_t owner = f.router->ring().Owner(RouteOf(kSvmBody).first);
  config.gate->Block(owner);

  // The first call holds the owner's one connection...
  LoopbackSocket first(f.http->port());
  first.Send(RecommendWire(kSvmBody));
  ASSERT_TRUE(config.gate->WaitHeld(1));
  // ...the second waits for it (the one waiting slot)...
  LoopbackSocket second(f.http->port());
  second.Send(RecommendWire(kSvmBody));
  ASSERT_TRUE(WaitUntil([&] { return f.http->http_stats().deferred == 2; }));
  // ...and the third is turned away at once.
  LoopbackSocket third(f.http->port());
  third.Send(RecommendWire(kSvmBody));
  const std::string rejected = third.ReadHttpResponse();
  EXPECT_EQ(StatusOf(rejected), 503) << rejected;
  EXPECT_NE(rejected.find("Retry-After: 1\r\n"), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("RESOURCE_EXHAUSTED"), std::string::npos);

  config.gate->Release();
  EXPECT_EQ(StatusOf(first.ReadHttpResponse()), 200);
  EXPECT_EQ(StatusOf(second.ReadHttpResponse()), 200);
  EXPECT_EQ(f.router->reroutes(), 0u) << "load is not a transport failure";
}

TEST(RouterLoopTest, ConcurrentBlockingForwardsMatchTheHttpPath) {
  ClusterFixture f("blocking_vs_http");
  ASSERT_TRUE(f.http->Start().ok());
  constexpr int kKeys = 6;
  std::vector<std::string> warm_bodies;
  LoopbackSocket client(f.http->port());
  for (int k = 0; k < kKeys; ++k) {
    const std::string body = SvmBodyWithExamples(12000 + 700 * k);
    client.Send(RecommendWire(body));  // Cold: warms the owner.
    ASSERT_EQ(StatusOf(client.ReadHttpResponse()), 200);
    client.Send(RecommendWire(body));
    const std::string warm = client.ReadHttpResponse();
    ASSERT_EQ(StatusOf(warm), 200);
    warm_bodies.push_back(BodyOf(warm));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        const int k = (t + round) % kKeys;
        const auto [route_key, payload] =
            RouteOf(SvmBodyWithExamples(12000 + 700 * k));
        auto reply = f.router->ForwardRecommend(route_key, payload);
        if (!reply.ok() || *reply != warm_bodies[k]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(f.router->reroutes(), 0u);
}

class ShardSocketTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShardSocketTest, ColdRecommendOverTheSocketIsByteIdenticalToHandle) {
  FixtureConfig config;
  config.force_poll = GetParam();
  ClusterFixture f("cold_socket", config);
  // Two shards over the same registry contents: each answers the same cold
  // question, one over the socket, one through Handle().
  ShardServer& over_socket = *f.shards[0]->server;
  EXPECT_EQ(over_socket.backend(), GetParam() ? "poll" : "epoll");
  rpc::RpcFrame request;
  request.type = rpc::FrameType::kRecommend;
  request.payload = kSvmBody;
  const rpc::RpcFrame expected = f.shards[1]->server->Handle(request);
  ASSERT_EQ(expected.type, rpc::FrameType::kRecommendReply);

  rpc::RpcClient::Options copts;
  copts.port = over_socket.port();
  rpc::RpcClient client(copts);
  auto cold = client.Call(rpc::FrameType::kRecommend, kSvmBody);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->type, expected.type);
  EXPECT_EQ(cold->payload, expected.payload);
  const auto stats = over_socket.rpc_stats();
  EXPECT_EQ(stats.fast_path, 0u);
  EXPECT_EQ(stats.deferred, 1u) << "the cold key went straight to the service";
}

TEST_P(ShardSocketTest, FullServiceQueueAnswersResourceExhaustedWithId) {
  FixtureConfig config;
  config.shard_count = 1;
  config.force_poll = GetParam();
  config.service.num_workers = 1;
  config.service.queue_capacity = 1;
  config.gate = std::make_shared<EvalGate>();
  ClusterFixture f("service_queue", config);
  config.gate->Block(0);
  const uint16_t port = f.shards[0]->server->port();
  const auto frame = [](uint64_t id, int examples) {
    return rpc::EncodeFrame(rpc::RpcFrame{rpc::FrameType::kRecommend, id,
                                          SvmBodyWithExamples(examples)});
  };

  // The first cold key holds the one worker, the second the one queue slot,
  // and the third is shed by the service, answered with its own id.
  LoopbackSocket busy(port);
  busy.Send(frame(1, 12000));
  ASSERT_TRUE(config.gate->WaitHeld(1));
  LoopbackSocket queued(port);
  queued.Send(frame(2, 13000));
  ASSERT_TRUE(WaitUntil(
      [&] { return f.shards[0]->server->rpc_stats().deferred == 2; }));
  LoopbackSocket shed(port);
  shed.Send(frame(42, 14000));
  const auto rejection = shed.ReadFrame();
  ASSERT_TRUE(rejection.has_value());
  EXPECT_EQ(rejection->type, rpc::FrameType::kError);
  EXPECT_EQ(rejection->request_id, 42u);
  EXPECT_NE(rejection->payload.find("RESOURCE_EXHAUSTED"), std::string::npos)
      << rejection->payload;
  EXPECT_EQ(f.shards[0]->service->GetStats().rejected, 1u);

  config.gate->Release();
  const auto first = busy.ReadFrame();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request_id, 1u);
  EXPECT_EQ(first->type, rpc::FrameType::kRecommendReply);
  const auto second = queued.ReadFrame();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request_id, 2u);
  EXPECT_EQ(second->type, rpc::FrameType::kRecommendReply);
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardSocketTest, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "poll" : "epoll";
                         });

}  // namespace
}  // namespace juggler::cluster
