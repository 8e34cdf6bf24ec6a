#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

// The client side of the two serving workloads: seeded operation streams,
// the closed-loop and open-loop load loops, and the answer log that checks
// every recommend response against the reference after the timed window.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/recommender.h"
#include "harness.h"
#include "quality.h"

namespace perfbench {

/// One client operation: a recommend read of question `index`, or an
/// observe write of batch `index`.
struct Op {
  bool write = false;
  uint32_t index = 0;
};

/// Draws operations: reads follow `zipf` over a seeded permutation of the
/// question indices, and a `write_share` of operations are writes.
class OpStream {
 public:
  OpStream(uint64_t seed, size_t questions, double zipf_s, double write_share,
           size_t write_batches);
  Op Next(Rng& rng) const;
  /// The `n` most popular questions, most popular first.
  std::vector<uint32_t> MostPopular(size_t n) const;

 private:
  std::vector<uint32_t> rank_to_question_;
  Zipf zipf_;
  double write_share_;
  size_t write_batches_;
};

/// Models the reference answers come from, by (shard, registry version,
/// app). A serving workload without refits has one version per shard.
class Oracle {
 public:
  using Models =
      std::map<std::string, std::shared_ptr<const juggler::core::TrainedJuggler>>;
  void Set(uint32_t shard, uint64_t version, Models models);
  const juggler::core::TrainedJuggler* Find(uint32_t shard, uint64_t version,
                                            const std::string& app) const;

 private:
  std::map<std::pair<uint32_t, uint64_t>, Models> models_;
};

/// Every recommend answer seen, deduplicated by (question, shard, version,
/// cache_hit, body). Each distinct body is compared with the reference in
/// Verify(), so a second, different body under one key is checked like the
/// first.
class AnswerLog {
 public:
  /// Records one 200 response body. Returns false when the body cannot be
  /// read.
  bool Record(uint32_t question, uint32_t shard, const std::string& body);
  void Merge(AnswerLog&& other);
  /// Number of logged answers that do not equal the reference of the
  /// question's owner shard. With `failover` an answer may instead come
  /// from any of the `shards`, as after a router reroute.
  uint64_t Verify(const std::vector<Question>& questions, const Oracle& oracle,
                  uint32_t shards = 1, bool failover = false) const;

 private:
  struct Key {
    uint64_t a = 0;  ///< question << 32 | shard << 1 | cache_hit
    uint64_t version = 0;
    bool operator==(const Key& o) const {
      return a == o.a && version == o.version;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.a * 0x9e3779b97f4a7c15ULL ^ k.version);
    }
  };
  struct Entry {
    std::string body;
    uint64_t count = 0;
  };
  /// Adds `count` answers with `body` under `key`.
  void Add(const Key& key, std::string body, uint64_t count);

  /// The distinct bodies seen under each key; almost always one.
  std::unordered_map<Key, std::vector<Entry>, KeyHash> entries_;
};

/// What one load pass saw.
struct PassStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;  ///< 2xx with a well-formed, self-consistent body.
  uint64_t failed = 0;
  double elapsed_s = 0.0;
  double steal_pct = 0.0;     ///< Machine CPU stolen during the pass.
  double process_cpu_s = 0.0;  ///< CPU time of this process in the pass.
  double client_cpu_s = 0.0;   ///< CPU time of the load-generator threads.
  /// RunClosedBlocks: the program's CPU time in the work done between
  /// blocks, AtNoSteal.
  double between_cpu_s = 0.0;
  /// RunClosedBlocks: the serving stack's CPU time per operation in each
  /// block, AtNoSteal, in microseconds.
  std::vector<double> block_cpu_us_per_op;
  /// Closed loop: completion time of each successful operation, seconds
  /// from the start. Open loop: due time of each successful read.
  std::vector<double> at_s;
  std::vector<double> read_ms;   ///< Open loop: from the due time.
  std::vector<double> write_ms;  ///< Open loop: from the due time.
  std::vector<double> late_ms;   ///< Open loop: send time minus due time.
};

/// Run-level figures from per-slice ones: the window is cut into
/// `kSliceS`-second slices and the median slice is reported, so a burst of
/// interference from outside the benchmark moves one slice, not the result.
inline constexpr double kSliceS = 1.0;
/// Median over slices of the closed-loop completion rate (ops/s).
double SlicedRate(const PassStats& closed);
/// Median over slices of the nearest-rank `q` percentile of read latency.
double SlicedPercentile(const PassStats& open, double q);
/// CPU time the serving stack spent per operation of the pass (this
/// process's CPU minus the load generator's), in microseconds.
double ServerCpuUsPerOp(const PassStats& pass);

/// How the load loops turn an Op into bytes and judge the reply.
struct Target {
  uint16_t port = 0;
  const std::vector<Question>* questions = nullptr;
  const std::vector<std::string>* write_wires = nullptr;
  /// Shard expected to answer each question (all 0 for one server).
  std::vector<uint32_t> owner;
  /// True when a write's 200 body reports success.
  std::function<bool(const std::string&)> write_ok;
};

/// Work run between two parts of a load pass, while no request is in
/// flight. It gets the seconds of load since the previous call and returns
/// the CPU seconds the program spent in it.
using Between = std::function<double(double load_s)>;

/// Closed loop: `connections` threads, one keep-alive connection each,
/// each sending its next operation when the previous one completes.
PassStats RunClosedLoop(const Target& target, const OpStream& stream,
                        uint64_t seed, int connections, double seconds,
                        AnswerLog* log);

/// The closed loop run as kBlocks blocks of seconds / kBlocks each. Each
/// block's server CPU per operation is taken AtNoSteal with the block's
/// steal; the median block is reported. `between`, if set, runs after each
/// block; its CPU time, AtNoSteal with the steal while it ran, is summed
/// into between_cpu_s.
PassStats RunClosedBlocks(const Target& target, const OpStream& stream,
                          uint64_t seed, int connections, double seconds,
                          AnswerLog* log, const Between& between = {});

/// Open loop at `rate_per_s`: operation i of one seeded sequence is due at
/// start + i / rate and is sent by connection i % connections.
PassStats RunOpenLoop(const Target& target, const OpStream& stream,
                      uint64_t seed, int connections, double rate_per_s,
                      double seconds, AnswerLog* log);

/// RunOpenLoop's seeded sequence sent as consecutive segments of
/// `segment_s` seconds, each paced from its own start, with `between` run
/// after every segment but the last. Due times in at_s count schedule time
/// from the first segment's start.
PassStats RunOpenSegments(const Target& target, const OpStream& stream,
                          uint64_t seed, int connections, double rate_per_s,
                          double seconds, double segment_s,
                          const Between& between, AnswerLog* log);

/// Sends each question of `order` once, in that order, spread over
/// `connections` (cache warm-up and lazy model loads); dies on any failure.
void WarmUp(const Target& target, const std::vector<uint32_t>& order,
            int connections, AnswerLog* log);

/// `count` observe batches in the JSON wire form, each `per_batch`
/// run-time records of one app at seeded parameters. A record's value is
/// the trained model's prediction scaled by a drift that alternates between
/// +20% and -15% every `flip_every` batches, so count-triggered refits find
/// candidates that beat the incumbent and get published.
std::vector<std::string> MakeObserveBodies(const TrainedSet& set,
                                           size_t count, size_t per_batch,
                                           size_t flip_every, Rng& rng);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
