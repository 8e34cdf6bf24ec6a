#ifndef JUGGLER_SERVICE_RECOMMENDATION_SERVICE_H_
#define JUGGLER_SERVICE_RECOMMENDATION_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/recommender.h"
#include "minispark/cluster.h"
#include "minispark/types.h"
#include "service/metrics.h"
#include "service/model_registry.h"
#include "service/prediction_cache.h"
#include "service/thread_pool.h"

namespace juggler::service {

/// One recommendation question: which app, the user's parameters, and the
/// machine type of the target cluster.
struct RecommendRequest {
  std::string app;
  minispark::AppParams params;
  minispark::ClusterConfig machine_type;
  /// Multi-objective weights (§5.5 extension). Defaults to the classic
  /// cost-only ordering, which keeps the response bit-identical to the
  /// 2-argument `TrainedJuggler::Recommend()`.
  core::Objective objective;
};

struct RecommendResponse {
  /// The §5.5 Pareto-filtered recommendations. Shared immutable snapshot —
  /// cache hits alias the same vector, so never mutate through it.
  std::shared_ptr<const std::vector<core::Recommendation>> recommendations;
  bool cache_hit = false;
  /// Registry snapshot version of the model that answered.
  uint64_t model_version = 0;
};

/// \brief The online serving front end (§5.5 as a service): model registry +
/// prediction cache + worker pool behind one request interface.
///
/// Request path: resolve the model from the registry (never blocks on
/// reloads), probe the prediction cache on the caller's thread (a warm hit
/// costs no queue slot and no worker), and only on a miss dispatch the model
/// evaluation to the pool. A full queue is surfaced immediately as
/// ResourceExhausted — callers are expected to retry with backoff, exactly
/// like an overloaded RPC server. The serving layer never alters what the
/// model would answer: responses are bit-identical to calling
/// `TrainedJuggler::Recommend()` directly.
class RecommendationService {
 public:
  struct Options {
    int num_workers = 4;
    size_t queue_capacity = 1024;
    /// Requests that waited in the evaluation queue longer than this are
    /// shed with ResourceExhausted (HTTP 503 + Retry-After) instead of being
    /// evaluated: under sustained overload, answering a request the client
    /// has likely already timed out on just wastes a worker. 0 disables.
    double queue_deadline_ms = 0.0;
    PredictionCache::Options cache;
    /// Test/instrumentation hook run by a worker immediately before each
    /// model evaluation (nullptr to disable).
    std::function<void()> pre_eval_hook;
  };

  /// Per-application slice of the serving counters. `cache_hits` +
  /// `cache_misses` partition answered requests by whether the memo table
  /// supplied the answer; `evaluations` counts model runs (>= cache_misses,
  /// since batch fan-out and async re-probes can share one evaluation).
  struct AppStats {
    uint64_t requests = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t evaluations = 0;
    LatencyHistogram::Snapshot latency;
  };

  struct Stats {
    PredictionCache::Stats cache;
    LatencyHistogram::Snapshot latency;
    uint64_t evaluations = 0;  ///< Model evaluations actually run on workers.
    uint64_t rejected = 0;     ///< Requests shed due to a full queue.
    /// Requests shed because they overstayed Options::queue_deadline_ms in
    /// the evaluation queue.
    uint64_t deadline_shed = 0;
    /// Per-app breakdown, keyed by application name. Only apps that have
    /// been asked about appear (unknown names are rejected before counting,
    /// so label cardinality stays bounded by the registry).
    std::map<std::string, AppStats> per_app;
  };

  RecommendationService(std::shared_ptr<ModelRegistry> registry,
                        const Options& options);
  ~RecommendationService();

  RecommendationService(const RecommendationService&) = delete;
  RecommendationService& operator=(const RecommendationService&) = delete;

  /// Answers one request, blocking until the result is ready. Errors:
  /// NotFound (unknown app), ResourceExhausted (queue full), or whatever the
  /// model evaluation itself returns.
  [[nodiscard]] StatusOr<RecommendResponse> Recommend(const RecommendRequest& request);

  /// Non-blocking cache-only probe for event-loop fast paths. Returns the
  /// answer if it can be produced without any model evaluation: a warm cache
  /// hit (counted as a hit; full per-app accounting applies) or a resolve
  /// error such as NotFound. Returns nullopt on a cold key — which is NOT
  /// counted as a cache miss; the caller is expected to fall through to
  /// Recommend()/RecommendAsync(), whose authoritative probe counts it.
  std::optional<StatusOr<RecommendResponse>> TryRecommendCached(
      const RecommendRequest& request);

  /// Non-blocking variant; the future carries the same result Recommend()
  /// would return. Registry/cache/backpressure errors still resolve through
  /// the future (always valid).
  std::future<StatusOr<RecommendResponse>> RecommendAsync(
      RecommendRequest request);

  /// Receives one answer; see RecommendThen().
  using RecommendCallback = std::function<void(StatusOr<RecommendResponse>)>;

  /// Callback form of Recommend(), for event loops that must not block:
  /// `done` receives exactly what Recommend() would return, exactly once —
  /// on the calling thread for a resolve error, a cache hit or a full queue,
  /// otherwise on the worker that ran the evaluation.
  void RecommendThen(RecommendRequest request, RecommendCallback done);

  /// Answers a batch. Identical questions inside the batch (same app,
  /// parameters, and machine type) are deduplicated: evaluated once, with
  /// the shared answer fanned back out to every duplicate slot. Results are
  /// positionally aligned with `requests`, and each equals what a sequential
  /// Recommend() of that element would return.
  std::vector<StatusOr<RecommendResponse>> RecommendBatch(
      const std::vector<RecommendRequest>& requests);

  Stats GetStats() const EXCLUDES(apps_mu_);

  ModelRegistry& registry() { return *registry_; }
  PredictionCache& cache() { return *cache_; }

 private:
  /// Live per-app counters behind Stats::AppStats. Nodes are created on
  /// first use and never removed, so raw pointers into the map stay valid
  /// for the service's lifetime and the hot path updates them lock-free.
  struct AppCounters {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> evaluations{0};
    LatencyHistogram latency;
  };

  /// The counters node for `app`, created on first use. Only called after a
  /// successful registry resolve, so the map's keys are registry app names.
  AppCounters& CountersFor(const std::string& app) EXCLUDES(apps_mu_);

  /// A cold request waiting for, then running on, a worker.
  struct Job {
    ModelRegistry::Resolved resolved;
    RecommendRequest request;
    std::string key;
    RecommendCallback done;
    AppCounters* app;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point enqueued;
    /// Look in the cache again before evaluating (RecommendAsync).
    bool reprobe;
  };

  /// The one request path behind Recommend, RecommendAsync and
  /// RecommendThen: resolve, probe the cache on the calling thread, and on a
  /// miss queue a Job (a full queue answers ResourceExhausted at once).
  void Dispatch(RecommendRequest request, bool reprobe,
                RecommendCallback done);

  /// Worker side of a Job: queue-deadline shed, pre_eval_hook, evaluation.
  void Evaluate(Job& job);

  [[nodiscard]] StatusOr<RecommendResponse> EvaluateNow(
      const ModelRegistry::Resolved& resolved, const RecommendRequest& request,
      const std::string& key, AppCounters& app_counters);

  // Nearly mutex-free: shared state is atomics plus the lock-free
  // LatencyHistogram; `apps_mu_` only guards per-app node creation (first
  // request per app), never the counter updates themselves. Lock discipline
  // lives inside the components (ModelRegistry, PredictionCache,
  // ThreadPool), each annotated with GUARDED_BY/EXCLUDES and checked by
  // clang -Wthread-safety.
  std::shared_ptr<ModelRegistry> registry_;
  Options options_;
  std::unique_ptr<PredictionCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  LatencyHistogram latency_;
  std::atomic<uint64_t> evaluations_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> deadline_shed_{0};
  /// Lock class "service.RecommendationService.apps" (rank service=20):
  /// held only for map-node creation, a pure in-memory operation.
  mutable Mutex apps_mu_ ACQUIRED_AFTER(lockdiag::kNetOrder)
      ACQUIRED_BEFORE(lockdiag::kRegistryOrder);
  /// unique_ptr nodes: map rehash/rebalance never moves an AppCounters.
  std::map<std::string, std::unique_ptr<AppCounters>> app_counters_
      GUARDED_BY(apps_mu_);
};

}  // namespace juggler::service

#endif  // JUGGLER_SERVICE_RECOMMENDATION_SERVICE_H_
