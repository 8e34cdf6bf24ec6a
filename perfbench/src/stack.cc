#include "stack.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/serialization.h"
#include "harness.h"

namespace perfbench {

using namespace juggler;  // NOLINT

PoolSizes PoolSizesFor(int nproc) {
  PoolSizes p;
  p.nproc = std::max(1, nproc);
  // Half the cores drive the open loop, so client threads do not crowd out
  // the server threads they are measuring. Against the router each read
  // crosses two hops, and with fewer than nproc connections the open loop
  // fell behind its schedule.
  p.connections = std::max(1, p.nproc / 2);
  // The standalone server answers warm reads on its event loop; the pool
  // only sees cold keys and writes.
  p.http_handlers = std::max(1, p.nproc / 4);
  p.service_workers = std::max(1, p.nproc / 2);
  // Router handlers block on the shard hop, one per client connection.
  p.router_handlers = p.nproc;
  p.shard_handlers = std::max(1, p.nproc / 2);
  return p;
}

int DetectNproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

TrainedSet TrainAll(SpeedMeter& meter) {
  TrainedSet set;
  double before = meter.Probe();
  for (const auto& w : workloads::AllWorkloads()) {
    const auto start = Clock::now();
    const double cpu0 = ThreadCpuSeconds();
    auto training = core::TrainJuggler(w.name, w.make, PaperTrainingConfig(w));
    const double cpu_s = ThreadCpuSeconds() - cpu0;
    set.wall_s += SecondsBetween(start, Clock::now());
    if (!training.ok()) {
      Die("training " + w.name + ": " + training.status().ToString());
    }
    const double after = meter.Probe();
    set.ref_s += cpu_s * kProbeReferenceS / ((before + after) / 2.0);
    before = after;
    set.cost_machine_min += training->costs.Total();
    set.results.push_back(std::move(training).value());
  }
  return set;
}

void SaveAll(const TrainedSet& set, const fs::path& dir) {
  fs::create_directories(dir);
  for (const auto& r : set.results) {
    const fs::path path =
        dir / (r.trained.app_name() + service::ModelRegistry::kModelSuffix);
    std::ofstream out(path);
    if (!core::SaveTrainedJuggler(r.trained, out).ok() || !out) {
      Die("cannot write " + path.string());
    }
  }
}

fs::path FreshDir(const fs::path& root, const std::string& tag) {
  static int counter = 0;
  const fs::path dir = root / (tag + "-" + std::to_string(::getpid()) + "-" +
                               std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Standalone::Start(const fs::path& model_dir, const PoolSizes& pools,
                       size_t cache_capacity) {
  registry = std::make_shared<service::ModelRegistry>(model_dir.string());
  if (auto st = registry->Refresh(); !st.ok()) Die(st.ToString());
  service::RecommendationService::Options svc;
  svc.num_workers = pools.service_workers;
  svc.cache.capacity = cache_capacity;
  service = std::make_shared<service::RecommendationService>(registry, svc);
  online = std::make_shared<online::OnlineJuggler>(
      registry, service, online::OnlineJuggler::Options{});
  net::HttpRecommendServer::Options opts;
  opts.http.port = 0;
  opts.http.num_handler_threads = pools.http_handlers;
  opts.online = online;
  server = std::make_unique<net::HttpRecommendServer>(registry, service, opts);
  if (auto st = server->Start(); !st.ok()) Die(st.ToString());
  if (!WaitFor200(server->port(), "/readyz", 10.0)) Die("standalone not ready");
}

void Standalone::Stop() {
  if (server) server->Stop();
  if (online) online->Stop();
  server.reset();
  online.reset();
  service.reset();
  registry.reset();
}

void Routed::Start(const fs::path& model_dir, int shard_count,
                   const PoolSizes& pools, size_t cache_capacity_per_shard,
                   size_t online_min_records) {
  std::vector<std::string> addresses;
  for (int i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->dir = model_dir.parent_path() / ("shard" + std::to_string(i));
    fs::create_directories(shard->dir);
    for (const auto& entry : fs::directory_iterator(model_dir)) {
      if (entry.is_regular_file()) {
        fs::copy_file(entry.path(), shard->dir / entry.path().filename());
      }
    }
    service::ModelRegistry::Options ropts;
    ropts.lazy_load = true;
    shard->registry =
        std::make_shared<service::ModelRegistry>(shard->dir.string(), ropts);
    if (auto st = shard->registry->Refresh(); !st.ok()) Die(st.ToString());
    service::RecommendationService::Options svc;
    svc.num_workers = pools.service_workers;
    svc.cache.capacity = cache_capacity_per_shard;
    shard->service =
        std::make_shared<service::RecommendationService>(shard->registry, svc);
    online::OnlineJuggler::Options oopts;
    oopts.refit.min_records = online_min_records;
    shard->online = std::make_shared<online::OnlineJuggler>(
        shard->registry, shard->service, oopts);
    cluster::ShardServer::Options sopts;
    sopts.rpc.port = 0;
    sopts.rpc.num_handler_threads = pools.shard_handlers;
    sopts.online = shard->online;
    shard->server = std::make_unique<cluster::ShardServer>(
        shard->registry, shard->service, sopts);
    if (auto st = shard->server->Start(); !st.ok()) Die(st.ToString());
    addresses.push_back("127.0.0.1:" + std::to_string(shard->server->port()));
    shards.push_back(std::move(shard));
  }
  cluster::Router::Options ropts;
  ropts.shards = addresses;
  ropts.max_clients_per_shard = static_cast<size_t>(pools.router_handlers);
  auto created = cluster::Router::Create(ropts);
  if (!created.ok()) Die(created.status().ToString());
  router = std::move(created).value();
  if (auto st = router->Start(); !st.ok()) Die(st.ToString());
  cluster::RouterHttpServer::Options hopts;
  hopts.http.port = 0;
  hopts.http.num_handler_threads = pools.router_handlers;
  http = std::make_unique<cluster::RouterHttpServer>(router.get(), hopts);
  if (auto st = http->Start(); !st.ok()) Die(st.ToString());
  if (!WaitFor200(http->port(), "/readyz", 10.0)) Die("router not ready");
}

void Routed::Stop() {
  if (http) http->Stop();
  if (router) router->Stop();
  for (auto& shard : shards) {
    shard->server->Stop();
    shard->online->Stop();
  }
  http.reset();
  router.reset();
  shards.clear();
}

}  // namespace perfbench
