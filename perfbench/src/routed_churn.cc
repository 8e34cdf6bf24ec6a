// routed_churn: a router and two JRPC shards, each with a lazy registry and
// an online loop. Reads follow a zipf over a question space several times
// the shards' combined cache capacity; a few percent of operations are
// observe writes routed by app, and RunOnce() on a fixed cadence refits,
// publishes a new model version and flushes that app's cache entries.
//
// RunOnce() runs between parts of the load, never beside it: a read whose
// registry snapshot predates a publish can be answered by the newly
// published model under the old model_version (ModelRegistry::ResolveLazy
// parses whatever artifact is on disk and labels it with the caller's
// snapshot), which the answer check rightly counts as wrong.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/serialization.h"
#include "net/json.h"
#include "net/recommend_codec.h"
#include "rpc/rpc_client.h"
#include "runs.h"
#include "service/prediction_cache.h"

namespace perfbench {

using namespace juggler;  // NOLINT

namespace {

/// Follows one shard's published artifacts so every registry version has
/// reference models. RunOnce() refits apps in sorted order and refreshes
/// the registry once per accepted publish, so the k-th changed artifact
/// (sorted by app) first serves at the k-th new version.
class ShardTracker {
 public:
  ShardTracker(uint32_t index, const Shard& shard, const TrainedSet& set,
               Oracle* oracle)
      : index_(index), shard_(shard), version_(shard.registry->version()) {
    for (const auto& r : set.results) {
      const std::string app = r.trained.app_name();
      bytes_[app] = ReadArtifact(app);
      models_[app] = std::make_shared<const core::TrainedJuggler>(r.trained);
    }
    oracle->Set(index_, version_, models_);
  }

  /// Records the versions published since the last call; false when the
  /// versions cannot be attributed to changed artifacts.
  bool Update(Oracle* oracle) {
    const uint64_t now = shard_.registry->version();
    if (now == version_) return true;
    std::vector<std::string> changed;
    for (auto& [app, bytes] : bytes_) {
      std::string current = ReadArtifact(app);
      if (current != bytes) {
        bytes = std::move(current);
        changed.push_back(app);
      }
    }
    if (changed.size() != now - version_) {
      std::fprintf(stderr,
                   "perfbench: shard %u moved %llu versions for %zu changed "
                   "artifacts\n",
                   index_, static_cast<unsigned long long>(now - version_),
                   changed.size());
      version_ = now;
      return false;
    }
    for (const std::string& app : changed) {
      auto model = core::TrainedJugglerFromString(bytes_[app]);
      if (!model.ok()) return false;
      models_[app] =
          std::make_shared<const core::TrainedJuggler>(std::move(model).value());
      oracle->Set(index_, ++version_, models_);
    }
    return true;
  }

 private:
  std::string ReadArtifact(const std::string& app) const {
    std::ifstream in(shard_.dir / (app + service::ModelRegistry::kModelSuffix));
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }

  uint32_t index_;
  const Shard& shard_;
  uint64_t version_;
  std::map<std::string, std::string> bytes_;
  Oracle::Models models_;
};

/// What the refit cadence did.
struct CadenceStats {
  std::vector<double> refit_ms;  ///< RunOnce() passes that attempted a refit.
  uint64_t accepted = 0;
  uint64_t flushed = 0;  ///< Cache entries dropped across accepted passes.
  bool attributable = true;
};

/// One RunOnce() on every shard, then the oracle catches up. Returns the
/// process CPU seconds of the RunOnce() calls (with no load in flight, that
/// is the program's refit work; the oracle's is left out).
double RunCadence(Routed& stack, std::vector<ShardTracker>& trackers,
                  Oracle* oracle, CadenceStats* stats) {
  double cpu_s = 0.0;
  for (size_t s = 0; s < stack.shards.size(); ++s) {
    Shard& shard = *stack.shards[s];
    const size_t size0 = shard.service->cache().GetStats().size;
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    const auto cycle = shard.online->RunOnce();
    const double ms = MicrosBetween(t0, Clock::now()) / 1000.0;
    cpu_s += ProcessCpuSeconds() - cpu0;
    const size_t size1 = shard.service->cache().GetStats().size;
    if (cycle.attempted > 0) stats->refit_ms.push_back(ms);
    if (cycle.accepted > 0 && size0 > size1) stats->flushed += size0 - size1;
    stats->accepted += cycle.accepted;
    if (!trackers[s].Update(oracle)) stats->attributable = false;
  }
  return cpu_s;
}

struct ServiceTotals {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t shed = 0;
};

ServiceTotals Totals(const Routed& stack) {
  ServiceTotals t;
  for (const auto& shard : stack.shards) {
    const auto s = shard->service->GetStats();
    t.hits += s.cache.hits;
    t.misses += s.cache.misses;
    t.evictions += s.cache.evictions;
    t.shed += s.rejected + s.deadline_shed;
  }
  return t;
}

/// Sequential replay of the open-loop inputs. Reads cross every layer
/// twice: once as the load sent them (possibly a miss), then on the warm
/// path with spans nested rtt > forward > rpc call > service, so each
/// layer's self time is its span minus the next layer's. Misses are timed
/// on cold keys: service Recommend with TrainedJuggler::Recommend as child.
bool TraceRouted(Routed& stack, const Target& target,
                 const std::vector<std::string>& bodies,
                 const std::vector<Op>& ops, std::vector<ShardTracker>& trackers,
                 Oracle* oracle, AnswerLog* log, Result* result) {
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (const auto& shard : stack.shards) {
    rpc::RpcClient::Options o;
    o.port = shard->server->port();
    clients.push_back(std::make_unique<rpc::RpcClient>(o));
  }
  std::vector<double> plain_us;
  {
    HttpClient client(target.port);
    for (const Op& op : ops) {
      if (op.write) continue;
      const std::string& wire = (*target.questions)[op.index].wire;
      if (client.RoundTrip(wire).status != 200) return false;
      const auto t0 = Clock::now();
      if (client.RoundTrip(wire).status != 200) return false;
      plain_us.push_back(MicrosBetween(t0, Clock::now()));
    }
  }

  Tracer tr;
  CadenceStats cadence;
  HttpClient client(target.port);
  const size_t cadence_ops =
      static_cast<size_t>(kChurnCadenceS * kChurnRatePerS);
  bool ok = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0 && i % cadence_ops == 0) {
      RunCadence(stack, trackers, oracle, &cadence);
    }
    const Op& op = ops[i];
    if (op.write) {
      auto json = net::Json::Parse(bodies[op.index]);
      auto batch = json.ok() ? net::ParseObservationsJson(*json)
                             : decltype(net::ParseObservationsJson(*json))(
                                   json.status());
      if (!batch.ok() || batch->empty()) return false;
      const size_t owner = stack.router->ring().Owner(batch->front().app);
      const uint64_t span = tr.Begin("online.observe");
      const size_t accepted = stack.shards[owner]->online->Observe(*batch);
      tr.End(span);
      if (accepted != batch->size()) ok = false;
      continue;
    }
    const Question& q = (*target.questions)[op.index];
    const uint32_t owner = target.owner[op.index];
    Shard& shard = *stack.shards[owner];
    const HttpReply first = client.RoundTrip(q.wire);
    if (first.status != 200 || !log->Record(op.index, owner, first.body)) {
      ok = false;
    }

    const std::string payload = net::Json::Parse(q.body)->Dump();
    const std::string route_key = service::PredictionCache::MakeKey(
        q.app, 0, q.request.params, q.request.machine_type);
    const uint64_t rtt = tr.Begin("client.rtt");
    const HttpReply again = client.RoundTrip(q.wire);
    tr.End(rtt);
    if (again.status != 200 || !log->Record(op.index, owner, again.body)) {
      ok = false;
    }
    const uint64_t fwd = tr.Begin("cluster.forward", rtt);
    auto forwarded = stack.router->ForwardRecommend(route_key, payload);
    tr.End(fwd);
    const uint64_t call = tr.Begin("rpc.call", fwd);
    auto frame = clients[owner]->Call(rpc::FrameType::kRecommend, payload);
    tr.End(call);
    const uint64_t svc = tr.Begin("service.call", call);
    auto answered = shard.service->Recommend(q.request);
    tr.End(svc);
    uint64_t span = tr.Begin("service.hit");
    auto hit = shard.service->TryRecommendCached(q.request);
    tr.End(span);
    if (!forwarded.ok() || !frame.ok() ||
        frame->type != rpc::FrameType::kRecommendReply || !answered.ok() ||
        !hit.has_value() || !hit->ok()) {
      ok = false;
    }

    // A key no client ever asks: always a miss.
    service::RecommendRequest cold = q.request;
    cold.params.examples += static_cast<double>(i + 1);
    auto resolved = shard.registry->Resolve(q.app);
    const uint64_t miss = tr.Begin("service.miss");
    auto missed = shard.service->Recommend(cold);
    tr.End(miss);
    span = tr.Begin("core.recommend", miss);
    auto direct = resolved.ok() ? resolved->model->Recommend(
                                      cold.params, cold.machine_type,
                                      cold.objective)
                                : StatusOr<std::vector<core::Recommendation>>(
                                      resolved.status());
    tr.End(span);
    if (!missed.ok() || missed->cache_hit || !direct.ok()) ok = false;
  }
  RunCadence(stack, trackers, oracle, &cadence);

  result->Set("cluster.forward_us", tr.MedianUs("cluster.forward"), "us");
  result->Set("cluster.route_self_us", tr.MedianSelfUs("cluster.forward"),
              "us");
  result->Set("cluster.edge_self_us", tr.MedianSelfUs("client.rtt"), "us");
  result->Set("rpc.call_us", tr.MedianUs("rpc.call"), "us");
  result->Set("rpc.hop_self_us", tr.MedianSelfUs("rpc.call"), "us");
  result->Set("service.call_us", tr.MedianUs("service.call"), "us");
  result->Set("service.hit_us", tr.MedianUs("service.hit"), "us");
  result->Set("service.miss_us", tr.MedianUs("service.miss"), "us");
  result->Set("service.queue_wait_us", tr.MedianSelfUs("service.miss"), "us");
  result->Set("core.recommend_us", tr.MedianUs("core.recommend"), "us");
  result->Set("online.observe_us", tr.MedianUs("online.observe"), "us");
  result->Set("online.refit_ms", Median(cadence.refit_ms), "ms");
  result->Set("online.flushed_entries", static_cast<double>(cadence.flushed),
              "count");
  result->Set("trace.rtt_us", tr.MedianUs("client.rtt"), "us");
  result->Set("trace.overhead_pct",
              100.0 * (tr.MedianUs("client.rtt") / Median(plain_us) - 1.0),
              "%");
  result->Set("trace.spans", static_cast<double>(tr.Count("client.rtt")),
              "count");
  return ok && cadence.attributable;
}

}  // namespace

RunOutcome RunRoutedChurn(const RunArgs& args) {
  Rng rng(args.seed);
  const std::vector<Question> questions =
      MakeQuestions(kChurnQuestionsPerApp, rng);

  const OpStream stream(args.seed, questions.size(), kChurnZipf,
                        kChurnWriteShare, kChurnWriteBatches);
  // Warm-up fills the shards' caches with the most popular questions, the
  // most popular last; asking more would only evict what it warmed.
  std::vector<uint32_t> warm_order =
      stream.MostPopular(kChurnCachePerShard * kChurnShards);
  std::reverse(warm_order.begin(), warm_order.end());
  std::vector<double> setup_s;
  std::vector<double> train_s;
  TrainedSet set;
  Routed stack;
  fs::path dir;
  AnswerLog log;
  Target target;
  target.questions = &questions;
  target.write_ok = [](const std::string& body) {
    return body.find("\"reply\"") != std::string::npos &&
           body.find("\"error\"") == std::string::npos;
  };
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) {
      stack.Stop();
      fs::remove_all(dir);
      log = AnswerLog();
    }
    SpeedMeter meter;
    const double cpu0 = ProcessCpuSeconds();
    dir = FreshDir(args.work_root, "churn");
    set = TrainAll(meter);
    SaveAll(set, dir / "trained");
    stack.Start(dir / "trained", kChurnShards, args.pools,
                kChurnCachePerShard, kChurnMinRecords);
    target.port = stack.http->port();
    target.owner.clear();
    for (const Question& q : questions) {
      target.owner.push_back(static_cast<uint32_t>(
          stack.router->ring().Owner(service::PredictionCache::MakeKey(
              q.app, 0, q.request.params, q.request.machine_type))));
    }
    WarmUp(target, warm_order, args.pools.nproc, &log);
    meter.Probe();
    setup_s.push_back(
        meter.AtReference(ProcessCpuSeconds() - cpu0 - meter.spent_s()));
    train_s.push_back(set.ref_s);
  }

  Oracle oracle;
  std::vector<ShardTracker> trackers;
  trackers.reserve(stack.shards.size());
  for (size_t s = 0; s < stack.shards.size(); ++s) {
    trackers.emplace_back(static_cast<uint32_t>(s), *stack.shards[s], set,
                          &oracle);
  }
  Rng write_rng(args.seed ^ 0xabcdefULL);
  const std::vector<std::string> bodies =
      MakeObserveBodies(set, kChurnWriteBatches, kRecordsPerWrite, 64, write_rng);
  std::vector<std::string> write_wires;
  for (const auto& b : bodies) write_wires.push_back(PostWire("/v1/observe", b));
  target.write_wires = &write_wires;

  // The refit cadence runs after every kChurnCadenceS seconds of load,
  // between closed-loop blocks and between open-loop segments.
  CadenceStats cadence;
  double since_cadence_s = 0.0;
  const Between run_cadence = [&](double load_s) {
    since_cadence_s += load_s;
    if (since_cadence_s < kChurnCadenceS) return 0.0;
    since_cadence_s = 0.0;
    return RunCadence(stack, trackers, &oracle, &cadence);
  };
  const int conns = args.pools.nproc;
  const ServiceTotals t0 = Totals(stack);
  const auto shard_stats0 = stack.router->GetShardStats();
  const uint64_t reroutes0 = stack.router->reroutes();
  const PassStats closed =
      RunClosedBlocks(target, stream, args.seed, conns,
                      args.seconds * kClosedShare, &log, run_cadence);
  const PassStats open = RunOpenSegments(
      target, stream, args.seed + 1, conns, kChurnRatePerS,
      args.seconds * (1.0 - kClosedShare), kChurnCadenceS, run_cadence, &log);
  const ServiceTotals t1 = Totals(stack);
  const auto shard_stats1 = stack.router->GetShardStats();

  RunOutcome out;
  Result& r = out.result;
  if (!cadence.attributable) ++out.wrong;
  // Only a router that rerouted may have answered from a non-owner shard.
  const auto verify = [&] {
    return log.Verify(questions, oracle,
                      static_cast<uint32_t>(stack.shards.size()),
                      stack.router->reroutes() > 0);
  };
  if (!args.trace) {
    out.wrong += verify();
    SetServingMetrics(closed, open, out.wrong, &r);
    SetTrainingMetrics(train_s, set, &r);
    r.Set("setup_s", Median(setup_s), "s");
  } else {
    const double lookups =
        static_cast<double>((t1.hits - t0.hits) + (t1.misses - t0.misses));
    r.Set("service.hit_ratio", static_cast<double>(t1.hits - t0.hits) / lookups,
          "ratio");
    r.Set("service.evictions", static_cast<double>(t1.evictions - t0.evictions),
          "count");
    r.Set("service.shed", static_cast<double>(t1.shed - t0.shed), "count");
    double max_requests = 0.0;
    double sum_requests = 0.0;
    for (size_t s = 0; s < shard_stats1.size(); ++s) {
      const double n = static_cast<double>(shard_stats1[s].requests -
                                           shard_stats0[s].requests);
      max_requests = std::max(max_requests, n);
      sum_requests += n;
    }
    r.Set("cluster.shard_skew",
          max_requests / (sum_requests / static_cast<double>(shard_stats1.size())),
          "ratio");
    r.Set("cluster.reroutes",
          static_cast<double>(stack.router->reroutes() - reroutes0), "count");
    r.Set("online.refits_accepted", static_cast<double>(cadence.accepted),
          "count");
    SetLoadMetrics(closed, open, &r);
    Rng replay(args.seed + 1);
    std::vector<Op> ops;
    for (size_t i = 0; i < kTraceOps; ++i) ops.push_back(stream.Next(replay));
    if (!TraceRouted(stack, target, bodies, ops, trackers, &oracle, &log, &r)) {
      ++out.wrong;
    }
    out.wrong += verify();
    if (!TraceTraining(set, &r)) ++out.wrong;
  }
  out.attempted = closed.attempted + open.attempted;
  out.failed = closed.failed + open.failed + out.wrong;
  stack.Stop();
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
