#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

// The system under test, assembled the way juggler_serve assembles it:
// training into a fresh model directory, the standalone HTTP server, and the
// router + JRPC shards topology. Pool sizes derive from the core count.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "core/juggler.h"
#include "harness.h"
#include "net/http_recommend_server.h"
#include "online/online_loop.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace fs = std::filesystem;

/// Thread and connection budget of one run, all derived from the core
/// count so the stack plus the load generator fit the machine.
struct PoolSizes {
  /// Closed loops, and every load against the router, use nproc
  /// connections (one thread each).
  int nproc = 1;
  /// Open-loop and warm-up connections against the standalone server, and
  /// train_offline's answering threads.
  int connections = 1;
  int http_handlers = 1;        ///< Standalone HTTP handler pool.
  int service_workers = 1;      ///< Evaluation workers per service.
  int router_handlers = 1;      ///< Router HTTP handler pool.
  int shard_handlers = 1;       ///< JRPC handler pool per shard.
};
PoolSizes PoolSizesFor(int nproc);
int DetectNproc();

/// The §7.1 offline-training configuration the paper benches use.
using juggler::bench::PaperTrainingConfig;

/// One training pass over the five HiBench apps.
struct TrainedSet {
  std::vector<juggler::core::TrainingResult> results;  ///< AllWorkloads order.
  double wall_s = 0.0;  ///< Wall time of the five TrainJuggler calls.
  /// CPU time of the five TrainJuggler calls (the pass runs on one thread)
  /// at the reference machine speed: each app's CPU time is scaled by the
  /// probes run just before and just after it.
  double ref_s = 0.0;
  double cost_machine_min = 0.0;  ///< Simulated Fig-16 cost, all stages.
};
/// Trains the five apps, probing the machine's speed into `meter` before
/// the first app and after each one.
TrainedSet TrainAll(SpeedMeter& meter);

/// Writes every model as `<app>.model` into `dir` (created if missing).
void SaveAll(const TrainedSet& set, const fs::path& dir);

/// A fresh, empty directory under `root` (removed by the caller).
fs::path FreshDir(const fs::path& root, const std::string& tag);

/// Fatal, loud exit for set-up failures (the result line is never printed).
[[noreturn]] void Die(const std::string& what);

/// Standalone HTTP server with registry, service and an online loop whose
/// refits are only run when the benchmark calls RunOnce().
struct Standalone {
  std::shared_ptr<juggler::service::ModelRegistry> registry;
  std::shared_ptr<juggler::service::RecommendationService> service;
  std::shared_ptr<juggler::online::OnlineJuggler> online;
  std::unique_ptr<juggler::net::HttpRecommendServer> server;

  void Start(const fs::path& model_dir, const PoolSizes& pools,
             size_t cache_capacity);
  void Stop();
};

/// One JRPC shard: lazy registry + service + online loop.
struct Shard {
  fs::path dir;
  std::shared_ptr<juggler::service::ModelRegistry> registry;
  std::shared_ptr<juggler::service::RecommendationService> service;
  std::shared_ptr<juggler::online::OnlineJuggler> online;
  std::unique_ptr<juggler::cluster::ShardServer> server;
};

/// Router + shards in the `juggler_serve --role` topology, in-process.
/// Each shard gets its own copy of the model directory, as separate hosts
/// would, so one shard's publish never changes another shard's files.
struct Routed {
  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<juggler::cluster::Router> router;
  std::unique_ptr<juggler::cluster::RouterHttpServer> http;

  void Start(const fs::path& model_dir, int shard_count,
             const PoolSizes& pools, size_t cache_capacity_per_shard,
             size_t online_min_records);
  void Stop();
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
