#include "service/recommendation_service.h"

#include <chrono>
#include <unordered_map>
#include <utility>

namespace juggler::service {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

Status DeadlineExceeded(double waited_ms, double deadline_ms) {
  return Status::ResourceExhausted(
      "request spent " + std::to_string(waited_ms) +
      " ms in the evaluation queue (deadline " + std::to_string(deadline_ms) +
      " ms); shedding");
}

}  // namespace

RecommendationService::RecommendationService(
    std::shared_ptr<ModelRegistry> registry, const Options& options)
    : registry_(std::move(registry)),
      options_(options),
      cache_(std::make_unique<PredictionCache>(options.cache)),
      pool_(std::make_unique<ThreadPool>(ThreadPool::Options{
          options.num_workers, options.queue_capacity})),
      apps_mu_(lockdiag::RegisterLockClass(
          "service.RecommendationService.apps", lockdiag::kRankService)) {}

RecommendationService::~RecommendationService() {
  // Join workers while the metrics/cache members they touch are still alive.
  pool_->Shutdown();
}

RecommendationService::AppCounters& RecommendationService::CountersFor(
    const std::string& app) {
  MutexLock lock(apps_mu_);
  auto& node = app_counters_[app];
  if (!node) node = std::make_unique<AppCounters>();
  return *node;
}

StatusOr<RecommendResponse> RecommendationService::EvaluateNow(
    const ModelRegistry::Resolved& resolved, const RecommendRequest& request,
    const std::string& key, AppCounters& app_counters) {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  app_counters.evaluations.fetch_add(1, std::memory_order_relaxed);
  auto recs = resolved.model->Recommend(request.params, request.machine_type,
                                        request.objective);
  if (!recs.ok()) return recs.status();
  auto value = std::make_shared<const std::vector<core::Recommendation>>(
      std::move(recs).value());
  cache_->Put(key, value);
  return RecommendResponse{std::move(value), /*cache_hit=*/false,
                           resolved.version};
}

std::optional<StatusOr<RecommendResponse>>
RecommendationService::TryRecommendCached(const RecommendRequest& request) {
  const auto start = Clock::now();
  auto resolved = registry_->Resolve(request.app);
  if (!resolved.ok()) return resolved.status();  // Answerable without a worker.
  const std::string key =
      PredictionCache::MakeKey(request.app, resolved->version, request.params,
                               request.machine_type, request.objective);
  auto cached = cache_->Peek(key);
  if (!cached) return std::nullopt;  // Cold: caller takes the full path.
  AppCounters& app = CountersFor(request.app);
  app.requests.fetch_add(1, std::memory_order_relaxed);
  app.cache_hits.fetch_add(1, std::memory_order_relaxed);
  const double elapsed = ElapsedUs(start);
  latency_.Record(elapsed);
  app.latency.Record(elapsed);
  return StatusOr<RecommendResponse>(RecommendResponse{
      std::move(cached), /*cache_hit=*/true, resolved->version});
}

StatusOr<RecommendResponse> RecommendationService::Recommend(
    const RecommendRequest& request) {
  auto promise =
      std::make_shared<std::promise<StatusOr<RecommendResponse>>>();
  auto future = promise->get_future();
  Dispatch(request, /*reprobe=*/false,
           [promise](StatusOr<RecommendResponse> result) {
             promise->set_value(std::move(result));
           });
  return future.get();
}

std::future<StatusOr<RecommendResponse>> RecommendationService::RecommendAsync(
    RecommendRequest request) {
  auto promise =
      std::make_shared<std::promise<StatusOr<RecommendResponse>>>();
  auto future = promise->get_future();
  // The worker re-probes the cache, so duplicate in-flight keys still
  // coalesce to one evaluation most of the time.
  Dispatch(std::move(request), /*reprobe=*/true,
           [promise](StatusOr<RecommendResponse> result) {
             promise->set_value(std::move(result));
           });
  return future;
}

void RecommendationService::RecommendThen(RecommendRequest request,
                                          RecommendCallback done) {
  Dispatch(std::move(request), /*reprobe=*/false, std::move(done));
}

void RecommendationService::Dispatch(RecommendRequest request, bool reprobe,
                                     RecommendCallback done) {
  const auto start = Clock::now();
  auto resolved = registry_->Resolve(request.app);
  if (!resolved.ok()) {
    done(resolved.status());
    return;
  }
  AppCounters& app = CountersFor(request.app);
  app.requests.fetch_add(1, std::memory_order_relaxed);
  std::string key =
      PredictionCache::MakeKey(request.app, resolved->version, request.params,
                               request.machine_type, request.objective);
  // Warm hits are answered on the caller's thread: no queue slot, no worker
  // handoff — this is the sub-microsecond path recurring applications take.
  if (auto cached = cache_->Get(key)) {
    app.cache_hits.fetch_add(1, std::memory_order_relaxed);
    const double elapsed = ElapsedUs(start);
    latency_.Record(elapsed);
    app.latency.Record(elapsed);
    done(RecommendResponse{std::move(cached), /*cache_hit=*/true,
                           resolved->version});
    return;
  }
  app.cache_misses.fetch_add(1, std::memory_order_relaxed);

  auto job = std::make_shared<Job>(Job{std::move(resolved).value(),
                                       std::move(request), std::move(key),
                                       std::move(done), &app, start,
                                       Clock::now(), reprobe});
  Status submitted = pool_->Submit([this, job] { Evaluate(*job); });
  if (!submitted.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    job->done(std::move(submitted));
  }
}

void RecommendationService::Evaluate(Job& job) {
  // Shed before evaluating: the client has likely timed out already.
  const double waited_ms = ElapsedUs(job.enqueued) / 1000.0;
  if (options_.queue_deadline_ms > 0.0 &&
      waited_ms > options_.queue_deadline_ms) {
    deadline_shed_.fetch_add(1, std::memory_order_relaxed);
    job.done(DeadlineExceeded(waited_ms, options_.queue_deadline_ms));
    return;
  }
  if (options_.pre_eval_hook) options_.pre_eval_hook();
  StatusOr<RecommendResponse> result = Status::Internal("not evaluated");
  if (auto cached = job.reprobe ? cache_->Get(job.key) : nullptr) {
    result = RecommendResponse{std::move(cached), /*cache_hit=*/true,
                               job.resolved.version};
  } else {
    result = EvaluateNow(job.resolved, job.request, job.key, *job.app);
  }
  const double elapsed = ElapsedUs(job.start);
  latency_.Record(elapsed);
  job.app->latency.Record(elapsed);
  job.done(std::move(result));
}

std::vector<StatusOr<RecommendResponse>> RecommendationService::RecommendBatch(
    const std::vector<RecommendRequest>& requests) {
  // Group identical questions so each unique key is evaluated exactly once,
  // then fan the shared answer back out to every duplicate slot.
  struct Group {
    size_t first_index = 0;
    std::vector<size_t> indices;
  };
  std::unordered_map<std::string, Group> groups;
  std::vector<Status> resolve_errors(requests.size(), Status::OK());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto resolved = registry_->Resolve(requests[i].app);
    if (!resolved.ok()) {
      resolve_errors[i] = resolved.status();
      continue;
    }
    std::string key = PredictionCache::MakeKey(
        requests[i].app, resolved->version, requests[i].params,
        requests[i].machine_type, requests[i].objective);
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second.first_index = i;
    it->second.indices.push_back(i);
  }

  std::vector<std::pair<const Group*, std::future<StatusOr<RecommendResponse>>>>
      in_flight;
  in_flight.reserve(groups.size());
  for (const auto& [key, group] : groups) {
    in_flight.emplace_back(&group,
                           RecommendAsync(requests[group.first_index]));
  }

  std::vector<StatusOr<RecommendResponse>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    results.emplace_back(resolve_errors[i].ok()
                             ? Status::Internal("batch slot not filled")
                             : resolve_errors[i]);
  }
  for (auto& [group, future] : in_flight) {
    StatusOr<RecommendResponse> result = future.get();
    for (size_t index : group->indices) {
      results[index] = result;  // Duplicates share the answer snapshot.
    }
  }
  return results;
}

RecommendationService::Stats RecommendationService::GetStats() const {
  Stats stats;
  stats.cache = cache_->GetStats();
  stats.latency = latency_.GetSnapshot();
  stats.evaluations = evaluations_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  MutexLock lock(apps_mu_);
  for (const auto& [name, counters] : app_counters_) {
    AppStats& app = stats.per_app[name];
    app.requests = counters->requests.load(std::memory_order_relaxed);
    app.cache_hits = counters->cache_hits.load(std::memory_order_relaxed);
    app.cache_misses = counters->cache_misses.load(std::memory_order_relaxed);
    app.evaluations = counters->evaluations.load(std::memory_order_relaxed);
    app.latency = counters->latency.GetSnapshot();
  }
  return stats;
}

}  // namespace juggler::service
