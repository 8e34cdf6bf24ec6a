// Golden digests of the simulator's output.
//
// Every RunResult field (doubles by their exact bit pattern, counters,
// per-dataset cache stats and, for instrumented runs, every profile record)
// is folded into one 64-bit FNV-1a digest per matrix. The constants below
// were computed before the simulator's hot loop was rewritten and must not
// change: a refactor or speed-up of minispark has to keep every run
// bit-identical. Change a constant only together with a deliberate change of
// the simulation semantics, and say so in the change log. The digests also
// depend on the toolchain: flags that change floating-point rounding
// (-ffast-math, FMA contraction) or a C library whose exp/log round
// differently change them without any simulator change.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/units.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "minispark/engine.h"
#include "workloads/workloads.h"

namespace juggler::minispark {
namespace {

/// 64-bit FNV-1a over a stream of typed values.
class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddProfile(const ProfilingDb& db, Digest* d) {
  d->I64(db.machines());
  d->I64(db.cores_per_machine());
  d->U64(db.datasets().size());
  for (const DatasetRecord& r : db.datasets()) {
    d->I64(r.id);
    d->Str(r.name);
    d->I64(static_cast<int>(r.kind));
    d->U64(r.parents.size());
    for (DatasetId p : r.parents) d->I64(p);
    d->I64(r.num_partitions);
  }
  d->U64(db.jobs().size());
  for (const JobRecord& r : db.jobs()) {
    d->I64(r.job);
    d->Str(r.name);
    d->I64(r.target);
    d->F64(r.start_ms);
    d->F64(r.finish_ms);
  }
  d->U64(db.stages().size());
  for (const StageRecord& r : db.stages()) {
    d->I64(r.job);
    d->I64(r.stage);
    d->I64(r.terminal);
    d->I64(r.num_tasks);
  }
  d->U64(db.tasks().size());
  for (const TaskRecord& r : db.tasks()) {
    d->I64(r.job);
    d->I64(r.stage);
    d->I64(r.task_index);
    d->I64(r.machine);
    d->F64(r.start_ms);
    d->F64(r.finish_ms);
    d->I64(r.attempt);
    d->I64(r.speculative);
    d->I64(r.failed);
  }
  d->U64(db.transforms().size());
  for (const TransformRecord& r : db.transforms()) {
    d->I64(r.job);
    d->I64(r.stage);
    d->I64(r.task_index);
    d->I64(r.dataset);
    d->I64(static_cast<int>(r.part));
    d->F64(r.start_ms);
    d->F64(r.finish_ms);
    d->F64(r.partition_bytes);
    d->I64(r.from_cache);
  }
}

void AddRun(const StatusOr<RunResult>& run, Digest* d) {
  d->I64(static_cast<int>(run.status().code()));
  if (!run.ok()) {
    d->Str(run.status().message());
    return;
  }
  const RunResult& r = *run;
  d->Str(r.app_name);
  d->I64(r.machines);
  d->F64(r.duration_ms);
  d->I64(r.cache_hits);
  d->I64(r.cache_recomputes);
  d->I64(r.blocks_evicted);
  d->I64(r.store_rejections);
  d->F64(r.peak_execution_bytes);
  d->I64(r.tasks_retried);
  d->I64(r.stages_reexecuted);
  d->I64(r.executors_lost);
  d->I64(r.partitions_lost);
  d->I64(r.partitions_recomputed_after_loss);
  d->I64(r.speculative_launched);
  d->I64(r.speculative_wins);
  d->U64(r.dataset_stats.size());
  for (const auto& [id, s] : r.dataset_stats) {
    d->I64(id);
    d->I64(s.hits);
    d->I64(s.recomputes);
    d->I64(s.stored);
    d->I64(s.distinct_cached);
    d->I64(s.distinct_evicted);
    d->I64(s.resident_at_end);
    d->I64(s.persisted_at_end);
    d->I64(s.lost);
    d->I64(s.recomputed_after_loss);
  }
  d->I64(r.profile != nullptr);
  if (r.profile) AddProfile(*r.profile, d);
}

/// Totals over a matrix, so each test can check it reaches the paths it is
/// meant to pin down.
struct Coverage {
  int64_t runs = 0, aborted = 0, evicted = 0, rejected = 0, recomputes = 0,
          retried = 0, reexecuted = 0, lost = 0, recomputed_after_loss = 0,
          speculative = 0, dropped = 0;

  void Add(const StatusOr<RunResult>& run) {
    ++runs;
    if (!run.ok()) {
      ++aborted;
      return;
    }
    evicted += run->blocks_evicted;
    rejected += run->store_rejections;
    recomputes += run->cache_recomputes;
    retried += run->tasks_retried;
    reexecuted += run->stages_reexecuted;
    lost += run->partitions_lost;
    recomputed_after_loss += run->partitions_recomputed_after_loss;
    speculative += run->speculative_launched;
    for (const auto& [id, s] : run->dataset_stats) {
      if (!s.persisted_at_end) ++dropped;
    }
  }
  void Print(const char* name) const {
    std::printf("%s: runs=%lld aborted=%lld evicted=%lld rejected=%lld "
                "recomputes=%lld retried=%lld reexecuted=%lld lost=%lld "
                "recomputed_after_loss=%lld speculative=%lld dropped=%lld\n",
                name, (long long)runs, (long long)aborted, (long long)evicted,
                (long long)rejected, (long long)recomputes, (long long)retried,
                (long long)reexecuted, (long long)lost,
                (long long)recomputed_after_loss, (long long)speculative,
                (long long)dropped);
  }
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

#define EXPECT_DIGEST(actual, expected)                                  \
  EXPECT_EQ(actual, expected)                                            \
      << "digest " << Hex(actual) << " != golden " << Hex(expected)     \
      << ": the simulator's output is no longer bit-identical"

/// The five HiBench workloads at their Table 1 parameters x {no caching,
/// developer default} x {1, 4, 12} machines x {instrumented, not}, with the
/// benches' noisy run options (jitter + stragglers draw from the RNG).
TEST(EngineGoldenTest, HiBenchMatrix) {
  Digest d;
  Coverage c;
  for (const workloads::Workload& w : workloads::AllWorkloads()) {
    const Application app = w.make(w.paper_params);
    for (const CachePlan& plan : {CachePlan{}, app.default_plan}) {
      for (int machines : {1, 4, 12}) {
        for (bool instrument : {false, true}) {
          RunOptions options = bench::ActualRunOptions(7);
          options.instrument = instrument;
          const auto run =
              Engine(options).Run(app, PaperCluster(machines), plan);
          AddRun(run, &d);
          c.Add(run);
        }
      }
    }
  }
  c.Print("hibench");
  EXPECT_EQ(c.runs, 60);
  EXPECT_EQ(c.aborted, 0);
  EXPECT_GT(c.evicted, 0);
  EXPECT_GT(c.recomputes, 0);
  EXPECT_DIGEST(d.value(), 0x48787f444c6e731eull);
}

/// Fault-injected runs: task retries, executor loss (lost blocks, lineage
/// recompute, shuffle-output re-execution) and speculation, on tight and
/// roomy heaps so eviction and loss interleave. Includes runs that abort.
TEST(EngineGoldenTest, FaultInjectedRuns) {
  Digest d;
  Coverage c;
  for (const workloads::Workload& w : workloads::AllWorkloads()) {
    const AppParams params{0.5 * w.paper_params.examples,
                           0.5 * w.paper_params.features,
                           std::min(w.paper_params.iterations, 12)};
    const Application app = w.make(params);
    for (int machines : {2, 5}) {
      for (double heap : {GiB(2), GiB(12)}) {
        for (uint64_t seed : {3u, 11u}) {
          RunOptions options = bench::ActualRunOptions(seed);
          options.instrument = seed == 3u;
          options.faults.seed = seed * 31 + static_cast<uint64_t>(machines);
          options.faults.task_failure_prob = 0.08;
          options.faults.max_task_attempts = 4;
          options.faults.executor_loss_prob = 0.03;
          options.faults.straggler_prob = 0.05;
          options.faults.straggler_factor = 3.0;
          options.faults.speculation = true;
          ClusterConfig cluster = PaperCluster(machines);
          cluster.executor_memory_bytes = heap;
          const auto run = Engine(options).Run(app, cluster, app.default_plan);
          AddRun(run, &d);
          c.Add(run);
        }
      }
    }
  }
  // A hostile spec that must abort with a typed error.
  {
    const workloads::Workload& w = workloads::AllWorkloads().front();
    const Application app = w.make(w.paper_params);
    RunOptions options = bench::ActualRunOptions();
    options.faults.seed = 5;
    options.faults.task_failure_prob = 0.9;
    options.faults.max_task_attempts = 2;
    const auto run = Engine(options).Run(app, PaperCluster(3), app.default_plan);
    EXPECT_FALSE(run.ok());
    AddRun(run, &d);
    c.Add(run);
  }
  c.Print("faults");
  EXPECT_GT(c.retried, 0);
  EXPECT_GT(c.reexecuted, 0);
  EXPECT_GT(c.lost, 0);
  EXPECT_GT(c.recomputed_after_loss, 0);
  EXPECT_GT(c.speculative, 0);
  EXPECT_GT(c.evicted, 0);
  EXPECT_DIGEST(d.value(), 0xb1f49efbb1f944ccull);
}

/// Random DAGs with random persist/unpersist schedules on small heaps: the
/// eviction, rejection and block-wise unpersist paths of the memory manager.
TEST(EngineGoldenTest, RandomDagsUnderMemoryPressure) {
  Digest d;
  Coverage c;
  Rng rng(2024);
  for (int i = 0; i < 60; ++i) {
    workloads::RandomAppOptions app_options;
    app_options.max_dataset_bytes = MiB(900);
    const Application app = workloads::MakeRandomApplication(&rng, app_options);
    CachePlan plan;
    DatasetId previous = kInvalidDataset;
    for (DatasetId ds = 0; ds < app.num_datasets(); ++ds) {
      if (!rng.Bernoulli(0.4)) continue;
      if (previous != kInvalidDataset && rng.Bernoulli(0.3)) {
        plan.ops.push_back(CacheOp::Unpersist(previous));
      }
      plan.ops.push_back(CacheOp::Persist(ds));
      previous = ds;
    }
    RunOptions options = bench::ActualRunOptions(static_cast<uint64_t>(i));
    options.instrument = i % 3 == 0;
    ClusterConfig cluster = PaperCluster(1 + i % 4);
    cluster.executor_memory_bytes = GiB(1) + MiB(256) * (i % 5);
    const auto run = Engine(options).Run(app, cluster, plan);
    AddRun(run, &d);
    c.Add(run);
  }
  c.Print("random");
  EXPECT_EQ(c.aborted, 0);
  EXPECT_GT(c.evicted, 0);
  EXPECT_GT(c.rejected, 0);
  EXPECT_GT(c.dropped, 0);
  EXPECT_DIGEST(d.value(), 0x7a398060a63dfb78ull);
}

/// The serialized TrainJuggler artifacts (and training costs) of the five
/// apps at the paper's §7.1 training configuration.
TEST(EngineGoldenTest, TrainedArtifacts) {
  Digest d;
  for (const workloads::Workload& w : workloads::AllWorkloads()) {
    auto trained =
        core::TrainJuggler(w.name, w.make, bench::PaperTrainingConfig(w));
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    d.Str(core::TrainedJugglerToString(trained->trained));
    d.F64(trained->costs.hotspot);
    d.F64(trained->costs.parameter_calibration);
    d.F64(trained->costs.memory_calibration);
    d.F64(trained->costs.time_models);
  }
  EXPECT_DIGEST(d.value(), 0x291a623230a55fceull);
}

}  // namespace
}  // namespace juggler::minispark
