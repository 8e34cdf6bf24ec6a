#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the three workloads: a seeded generator,
// nearest-rank percentiles, the open-loop pacer, a blocking HTTP client,
// the span tracer and the result line. Nothing here knows about Juggler.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// SplitMix64: the same seed yields the same stream on every platform
/// (std:: distributions are implementation-defined, so none are used).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Zipf over ranks 0..n-1: P(rank r) proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile of `samples` (q in (0, 1]): the value at 1-based
/// rank ceil(q * n) of the sorted samples. 0 for an empty input.
double NearestRank(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// A latency distribution as the benchmark reports it.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Samples strictly above the p99 value; the percentile is only trusted
  /// when at least ten samples lie beyond it.
  size_t beyond_p99 = 0;
};
LatencySummary Summarize(std::vector<double> samples);

/// Open-loop schedule: request i of a stream at `rate_per_s` is due at
/// start + i / rate. Latency is timed from the due time, so a stall that
/// delays later sends is charged to them.
class Pacer {
 public:
  Pacer(Clock::time_point start, double rate_per_s)
      : start_(start), rate_(rate_per_s) {}
  Clock::time_point Due(uint64_t index) const;
  /// Number of requests due within `seconds` of the start.
  uint64_t CountWithin(double seconds) const;

 private:
  Clock::time_point start_;
  double rate_;
};

/// CPU accounting at one instant: the machine's cumulative jiffies from
/// /proc/stat (all, and stolen by the hypervisor) and this process's CPU
/// time.
struct CpuSample {
  double total_jiffies = 0.0;
  double steal_jiffies = 0.0;
  double process_cpu_s = 0.0;
};
CpuSample SampleCpu();
/// Share of machine CPU time stolen between two samples, in percent.
double StealPct(const CpuSample& a, const CpuSample& b);
/// CPU time consumed by the calling thread / by the whole process, in
/// seconds, as the guest kernel charges it.
double ThreadCpuSeconds();
double ProcessCpuSeconds();

/// The serving stack's CPU time per request grows with the hypervisor's
/// steal, which the speed probe below follows only in part: on the
/// 4-vCPU reference VM, over about 900 closed-loop blocks (47 runs) of
/// hot_recurring and routed_churn at 0-25% steal, it rose by 1.6%
/// (hot_recurring) and 1.8% (routed_churn) per percent of machine CPU
/// stolen in the same block.
inline constexpr double kStealSlope = 0.017;
/// `cpu` measured in a window with `steal_pct` percent steal, as it would
/// read with none.
inline double AtNoSteal(double cpu, double steal_pct) {
  return cpu / (1.0 + kStealSlope * steal_pct);
}

/// \brief Machine-speed probe for the CPU-time metrics.
///
/// On a shared VM the same work costs a varying amount of CPU time: the
/// cache and memory system is shared with other tenants, and on the
/// reference VM one training pass took from 0.20 to 0.29 CPU seconds within
/// a minute on an otherwise idle guest. The probe is a fixed piece of the
/// benchmark's own work (small allocations, an ordered map, a sort) that
/// slows down with the machine but never with the program. The set-up and
/// training CPU times are measured between probes and scaled to the
/// reference speed, as if a probe had taken kProbeReferenceS.
inline constexpr double kProbeReferenceS = 0.005;

class SpeedMeter {
 public:
  /// Runs the probe on a fresh thread and returns the CPU seconds it took.
  double Probe();
  /// Mean of every reading so far; kProbeReferenceS before the first.
  double Mean() const;
  /// Process CPU seconds the probes used, to take out of a measured span.
  double spent_s() const { return spent_s_; }
  /// `cpu_s` at the reference speed, by the mean reading so far.
  double AtReference(double cpu_s) const {
    return cpu_s * kProbeReferenceS / Mean();
  }

 private:
  double sum_ = 0.0;
  int readings_ = 0;
  double spent_s_ = 0.0;
};

/// One run of the probe's work on the calling thread; returns a checksum so
/// the work cannot be optimised away (the same on every call).
uint64_t SpeedProbeWork();

/// One HTTP exchange as the client saw it.
struct HttpReply {
  int status = -1;  ///< -1 on a transport failure.
  std::string body;
};

/// Blocking keep-alive HTTP/1.1 client on one loopback connection.
class HttpClient {
 public:
  explicit HttpClient(uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Sends `wire` (a full serialized request) and reads one response.
  HttpReply RoundTrip(const std::string& wire);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Serialized request helpers.
std::string PostWire(const std::string& path, const std::string& body);
std::string GetWire(const std::string& path);

/// Polls GET `path` until it answers 200 (or `timeout_s` passes).
bool WaitFor200(uint16_t port, const std::string& path, double timeout_s);

/// \brief In-memory span recorder. Spans are kept until the run ends; the
/// per-layer metrics are medians over spans of one name.
///
/// A child span is the call into the next layer made for the same request
/// (possibly replayed after the parent, not nested in time), so a span's
/// self time is its duration minus the summed durations of its children.
class Tracer {
 public:
  static constexpr uint64_t kNoParent = 0;

  uint64_t Begin(const std::string& name, uint64_t parent = kNoParent);
  void End(uint64_t id);
  /// Records a finished span of known duration (microseconds).
  uint64_t Add(const std::string& name, double duration_us,
               uint64_t parent = kNoParent);

  /// Median duration (us) of spans called `name`; 0 when none.
  double MedianUs(const std::string& name) const;
  /// Median self time (us) of spans called `name`; 0 when none.
  double MedianSelfUs(const std::string& name) const;
  /// Summed duration / self time (us) of every span called `name`.
  double TotalUs(const std::string& name) const;
  double TotalSelfUs(const std::string& name) const;
  size_t Count(const std::string& name) const;

 private:
  struct Span {
    std::string name;
    uint64_t parent = kNoParent;
    Clock::time_point start;
    double duration_us = -1.0;
  };
  /// Self time of every finished span called `name`.
  std::vector<double> SelfTimesUs(const std::string& name) const;

  std::vector<Span> spans_;  ///< Span id = index + 1.
};

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},...}}.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  std::string ToJson(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
