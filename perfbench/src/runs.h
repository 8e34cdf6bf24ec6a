#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

// The three workloads. Each sets itself up (timed, kSetups times), measures
// for the requested seconds with tracing off, checks every answer, and with
// tracing on replays the same seeded inputs through each layer's public
// functions to fill the per-layer ledger.

#include <cstdint>
#include <string>

#include "harness.h"
#include "serving.h"
#include "stack.h"

namespace perfbench {

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_root;  ///< Working space inside the checkout.
  PoolSizes pools;
};

struct RunOutcome {
  Result result;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  ///< Answers that differ from the reference.
};

/// Fixed workload parameters. The reference rates are constants, never
/// derived from a measurement, so parent and child are loaded alike.
inline constexpr int kSetups = 7;
inline constexpr double kClosedShare = 2.0 / 3.0;  ///< Of the timed window.
/// CPU-per-request windows are cut into this many blocks, each corrected
/// for steal (serving, see AtNoSteal) or scaled by the speed probes on
/// either side of it (train_offline, see SpeedMeter).
inline constexpr int kBlocks = 20;
inline constexpr double kHotRatePerS = 5000.0;
inline constexpr size_t kHotQuestionsPerApp = 4;
inline constexpr double kHotWriteShare = 0.025;
inline constexpr double kChurnRatePerS = 1500.0;
inline constexpr size_t kChurnQuestionsPerApp = 480;
inline constexpr size_t kChurnCachePerShard = 256;
inline constexpr int kChurnShards = 2;
inline constexpr double kChurnZipf = 0.9;
inline constexpr double kChurnWriteShare = 0.05;
inline constexpr size_t kChurnMinRecords = 24;
inline constexpr double kChurnCadenceS = 1.0;
inline constexpr size_t kRecordsPerWrite = 4;
inline constexpr size_t kHotWriteBatches = 512;
inline constexpr size_t kChurnWriteBatches = 2048;
inline constexpr size_t kTraceOps = 4000;

RunOutcome RunHotRecurring(const RunArgs& args);
RunOutcome RunRoutedChurn(const RunArgs& args);
RunOutcome RunTrainOffline(const RunArgs& args);

/// Metrics shared by the workloads.
void SetTrainingMetrics(const std::vector<double>& train_s,
                        const TrainedSet& set, Result* result);
void SetServingMetrics(const PassStats& closed, const PassStats& open,
                       uint64_t wrong, Result* result);
/// Wall-clock serving figures (closed-loop throughput, open-loop read
/// latency) and load-generator health, including the share of machine CPU
/// the hypervisor stole. They are per-layer figures, not bounded ones: on a
/// shared 4-vCPU VM they follow the steal, which ran from 1% to 25%.
void SetLoadMetrics(const PassStats& closed, const PassStats& open,
                    Result* result);
/// Per-layer ledger of the offline pipeline, shared by every workload
/// because every workload trains its models during set-up: a stage-by-stage
/// walk of TrainJuggler with spans around each stage, a replay of each
/// stage's simulated runs, and the held-out sweep. Returns false when the
/// walk's artifact differs from TrainJuggler's.
bool TraceTraining(const TrainedSet& reference, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
