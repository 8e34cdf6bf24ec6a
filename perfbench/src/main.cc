// perfbench: the repository benchmark binary.
//
//   perfbench --workload hot_recurring|routed_churn|train_offline
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints a table of the metrics, then as its last stdout line the result
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer ledger with --trace 1. Exits 1 when any
// answer differs from the reference.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "runs.h"

namespace {

using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"cpu_us_per_req", "us"},
    {"success_ratio", "ratio"},
    {"train_s", "s"},         {"train_cost_machine_min", "machine-min"},
    {"pick_cost_pct", "%"},   {"predict_err_pct", "%"},
};

// A layer a workload never enters reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"net.parse_us", "us"},
    {"net.decode_us", "us"},
    {"net.encode_us", "us"},
    {"net.handle_us", "us"},
    {"net.handle_self_us", "us"},
    {"net.loop_self_us", "us"},
    {"net.fast_path_ratio", "ratio"},
    {"net.overload_rejected", "count"},
    {"cluster.forward_us", "us"},
    {"cluster.route_self_us", "us"},
    {"cluster.edge_self_us", "us"},
    {"cluster.shard_skew", "ratio"},
    {"cluster.reroutes", "count"},
    {"rpc.call_us", "us"},
    {"rpc.hop_self_us", "us"},
    {"service.call_us", "us"},
    {"service.hit_us", "us"},
    {"service.miss_us", "us"},
    {"service.queue_wait_us", "us"},
    {"service.hit_ratio", "ratio"},
    {"service.evictions", "count"},
    {"service.shed", "count"},
    {"core.recommend_us", "us"},
    {"core.derive_ms", "ms"},
    {"core.hotspot_ms", "ms"},
    {"core.size_calib_ms", "ms"},
    {"core.size_calib_self_ms", "ms"},
    {"core.memory_calib_ms", "ms"},
    {"core.memory_calib_self_ms", "ms"},
    {"core.time_model_ms", "ms"},
    {"core.time_model_self_ms", "ms"},
    {"online.observe_us", "us"},
    {"online.refit_ms", "ms"},
    {"online.refits_accepted", "count"},
    {"online.flushed_entries", "count"},
    {"minispark.runs", "count"},
    {"minispark.run_ms", "ms"},
    {"minispark.tasks_per_s", "1/s"},
    {"math.fit_us", "us"},
    {"loadgen.throughput_rps", "req/s"},
    {"loadgen.read_p50_ms", "ms"},
    {"loadgen.read_p99_ms", "ms"},
    {"loadgen.observe_p99_ms", "ms"},
    {"loadgen.lateness_p99_ms", "ms"},
    {"loadgen.steal_pct", "%"},
    {"loadgen.open_cpu_us_per_req", "us"},
    {"loadgen.client_cpu_us_per_op", "us"},
    {"loadgen.read_samples", "count"},
    {"loadgen.write_samples", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.train_overhead_pct", "%"},
    {"trace.rtt_us", "us"},
    {"trace.spans", "count"},
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload hot_recurring|routed_churn|train_offline "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  juggler::Logger::set_threshold(juggler::LogLevel::kWarning);
  std::string workload;
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_root = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (workload.empty() || args.seconds <= 0.0 || args.work_root.empty()) {
    Usage(argv[0]);
  }
  args.pools = perfbench::PoolSizesFor(perfbench::DetectNproc());

  perfbench::RunOutcome out;
  if (workload == "hot_recurring") {
    out = perfbench::RunHotRecurring(args);
  } else if (workload == "routed_churn") {
    out = perfbench::RunRoutedChurn(args);
  } else if (workload == "train_offline") {
    out = perfbench::RunTrainOffline(args);
  } else {
    Usage(argv[0]);
  }

  Result& result = out.result;
  std::printf("workload %s seed %llu seconds %.1f trace %d nproc %d\n",
              workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.pools.nproc);
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) {
      if (!result.Has(m.name)) result.Set(m.name, 0.0, m.unit);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      if (!result.Has(m.name)) {
        std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                     workload.c_str(), m.name);
        return 1;
      }
    }
  }
  std::printf("%s\n", result.ToJson(out.wrong == 0, out.attempted, out.failed)
                          .c_str());
  if (out.wrong > 0) {
    std::fprintf(stderr, "perfbench: %llu wrong answers\n",
                 static_cast<unsigned long long>(out.wrong));
    return 1;
  }
  return 0;
}
