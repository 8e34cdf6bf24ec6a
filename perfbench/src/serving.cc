#include "serving.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <thread>

#include "runs.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace juggler;  // NOLINT

OpStream::OpStream(uint64_t seed, size_t questions, double zipf_s,
                   double write_share, size_t write_batches)
    : zipf_(questions, zipf_s),
      write_share_(write_share),
      write_batches_(write_batches) {
  rank_to_question_.resize(questions);
  for (size_t i = 0; i < questions; ++i) {
    rank_to_question_[i] = static_cast<uint32_t>(i);
  }
  Rng rng(seed ^ 0x7e4d0c3a9b1f2e65ULL);
  for (size_t i = questions; i > 1; --i) {
    std::swap(rank_to_question_[i - 1], rank_to_question_[rng.Below(i)]);
  }
}

Op OpStream::Next(Rng& rng) const {
  Op op;
  if (write_batches_ > 0 && rng.Uniform() < write_share_) {
    op.write = true;
    op.index = static_cast<uint32_t>(rng.Below(write_batches_));
  } else {
    op.index = rank_to_question_[zipf_.Sample(rng)];
  }
  return op;
}

std::vector<uint32_t> OpStream::MostPopular(size_t n) const {
  n = std::min(n, rank_to_question_.size());
  return {rank_to_question_.begin(), rank_to_question_.begin() + n};
}

void Oracle::Set(uint32_t shard, uint64_t version, Models models) {
  models_[{shard, version}] = std::move(models);
}

const core::TrainedJuggler* Oracle::Find(uint32_t shard, uint64_t version,
                                         const std::string& app) const {
  const auto it = models_.find({shard, version});
  if (it == models_.end()) return nullptr;
  const auto model = it->second.find(app);
  return model == it->second.end() ? nullptr : model->second.get();
}

namespace {

/// Reads the two header fields of a recommend response without a full JSON
/// parse: the body always starts {"app":..,"cache_hit":..,"model_version":..
bool ReadHeader(const std::string& body, bool* cache_hit, uint64_t* version) {
  static constexpr char kHit[] = "\"cache_hit\":";
  static constexpr char kVersion[] = "\"model_version\":";
  const size_t hit = body.find(kHit);
  const size_t ver = body.find(kVersion);
  if (hit == std::string::npos || ver == std::string::npos) return false;
  *cache_hit = body.compare(hit + sizeof(kHit) - 1, 4, "true") == 0;
  char* end = nullptr;
  *version = std::strtoull(body.c_str() + ver + sizeof(kVersion) - 1, &end, 10);
  return end != body.c_str() + ver + sizeof(kVersion) - 1;
}

/// One operation on `client`; true when it succeeded.
bool Execute(const Target& target, const Op& op, HttpClient& client,
             AnswerLog* log) {
  if (op.write) {
    const HttpReply reply = client.RoundTrip((*target.write_wires)[op.index]);
    return reply.status == 200 && target.write_ok(reply.body);
  }
  const HttpReply reply =
      client.RoundTrip((*target.questions)[op.index].wire);
  if (reply.status != 200) return false;
  return log->Record(op.index, target.owner[op.index], reply.body);
}

std::vector<Op> Sequence(const OpStream& stream, uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Op> ops(n);
  for (Op& op : ops) op = stream.Next(rng);
  return ops;
}

/// Sends ops[0, n) open loop at `rate_per_s` from a start just ahead of
/// now: op i is due at start + i / rate and sent by connection
/// i % connections.
PassStats OpenPass(const Target& target, const Op* ops, size_t n,
                   int connections, double rate_per_s, AnswerLog* log) {
  const CpuSample cpu0 = SampleCpu();
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const Pacer pacer(start, rate_per_s);
  std::vector<PassStats> per(static_cast<size_t>(connections));
  std::vector<AnswerLog> logs(static_cast<size_t>(connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PassStats& mine = per[static_cast<size_t>(c)];
      AnswerLog& my_log = logs[static_cast<size_t>(c)];
      const double thread_cpu0 = ThreadCpuSeconds();
      auto client = std::make_unique<HttpClient>(target.port);
      for (size_t i = static_cast<size_t>(c); i < n;
           i += static_cast<size_t>(connections)) {
        const auto due = pacer.Due(i);
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        ++mine.attempted;
        if (!client->connected()) {
          client = std::make_unique<HttpClient>(target.port);
        }
        const bool ok = Execute(target, ops[i], *client, &my_log);
        const double ms = MicrosBetween(due, Clock::now()) / 1000.0;
        mine.late_ms.push_back(MicrosBetween(due, sent) / 1000.0);
        if (ok) {
          ++mine.ok;
          if (ops[i].write) {
            mine.write_ms.push_back(ms);
          } else {
            mine.read_ms.push_back(ms);
            mine.at_s.push_back(static_cast<double>(i) / rate_per_s);
          }
        } else {
          ++mine.failed;
        }
      }
      mine.client_cpu_s = ThreadCpuSeconds() - thread_cpu0;
    });
  }
  for (auto& t : threads) t.join();
  PassStats total;
  total.elapsed_s = SecondsBetween(start, Clock::now());
  const CpuSample cpu1 = SampleCpu();
  total.steal_pct = StealPct(cpu0, cpu1);
  total.process_cpu_s = cpu1.process_cpu_s - cpu0.process_cpu_s;
  for (size_t c = 0; c < per.size(); ++c) {
    total.attempted += per[c].attempted;
    total.ok += per[c].ok;
    total.failed += per[c].failed;
    total.client_cpu_s += per[c].client_cpu_s;
    for (std::vector<double> PassStats::*v :
         {&PassStats::at_s, &PassStats::read_ms, &PassStats::write_ms,
          &PassStats::late_ms}) {
      (total.*v).insert((total.*v).end(), (per[c].*v).begin(),
                        (per[c].*v).end());
    }
    log->Merge(std::move(logs[c]));
  }
  return total;
}

}  // namespace

bool AnswerLog::Record(uint32_t question, uint32_t shard,
                       const std::string& body) {
  bool cache_hit = false;
  uint64_t version = 0;
  if (!ReadHeader(body, &cache_hit, &version)) return false;
  Add(Key{static_cast<uint64_t>(question) << 32 |
              static_cast<uint64_t>(shard) << 1 | (cache_hit ? 1 : 0),
          version},
      body, 1);
  return true;
}

void AnswerLog::Add(const Key& key, std::string body, uint64_t count) {
  std::vector<Entry>& bodies = entries_[key];
  for (Entry& e : bodies) {
    if (e.body == body) {
      e.count += count;
      return;
    }
  }
  bodies.push_back(Entry{std::move(body), count});
}

void AnswerLog::Merge(AnswerLog&& other) {
  for (auto& [key, bodies] : other.entries_) {
    for (Entry& e : bodies) Add(key, std::move(e.body), e.count);
  }
  other.entries_.clear();
}

uint64_t AnswerLog::Verify(const std::vector<Question>& questions,
                           const Oracle& oracle, uint32_t shards,
                           bool failover) const {
  uint64_t wrong = 0;
  for (const auto& [key, bodies] : entries_) {
    const Question& q = questions[key.a >> 32];
    const uint32_t owner = static_cast<uint32_t>((key.a >> 1) & 0x7fffffff);
    const bool cache_hit = (key.a & 1) != 0;
    for (const Entry& entry : bodies) {
      bool right = false;
      for (uint32_t i = 0; i < (failover ? shards : 1) && !right; ++i) {
        const core::TrainedJuggler* model =
            oracle.Find((owner + i) % shards, key.version, q.app);
        right = model != nullptr &&
                ExpectedBody(*model, q, cache_hit, key.version) == entry.body;
      }
      if (right) continue;
      if (wrong == 0) {
        std::fprintf(stderr,
                     "perfbench: wrong answer for %s (shard %u, version "
                     "%llu): %.200s\n",
                     q.body.c_str(), owner,
                     static_cast<unsigned long long>(key.version),
                     entry.body.c_str());
        // Name the version whose model did produce the answer, if any.
        for (uint64_t v = 0; v <= key.version + 8; ++v) {
          const core::TrainedJuggler* m = oracle.Find(owner, v, q.app);
          if (m != nullptr &&
              ExpectedBody(*m, q, cache_hit, key.version) == entry.body) {
            std::fprintf(stderr,
                         "perfbench: that answer is the model of version "
                         "%llu\n",
                         static_cast<unsigned long long>(v));
          }
        }
      }
      wrong += entry.count;
    }
  }
  return wrong;
}

PassStats RunClosedLoop(const Target& target, const OpStream& stream,
                        uint64_t seed, int connections, double seconds,
                        AnswerLog* log) {
  std::vector<PassStats> per(static_cast<size_t>(connections));
  std::vector<AnswerLog> logs(static_cast<size_t>(connections));
  std::vector<std::thread> threads;
  const CpuSample cpu0 = SampleCpu();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PassStats& mine = per[static_cast<size_t>(c)];
      AnswerLog& my_log = logs[static_cast<size_t>(c)];
      Rng rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(c));
      const double thread_cpu0 = ThreadCpuSeconds();
      auto client = std::make_unique<HttpClient>(target.port);
      while (Clock::now() < deadline) {
        const Op op = stream.Next(rng);
        ++mine.attempted;
        if (!client->connected()) {
          client = std::make_unique<HttpClient>(target.port);
        }
        if (Execute(target, op, *client, &my_log)) {
          ++mine.ok;
          mine.at_s.push_back(SecondsBetween(start, Clock::now()));
        } else {
          ++mine.failed;
        }
      }
      mine.client_cpu_s = ThreadCpuSeconds() - thread_cpu0;
    });
  }
  for (auto& t : threads) t.join();
  PassStats total;
  total.elapsed_s = SecondsBetween(start, Clock::now());
  const CpuSample cpu1 = SampleCpu();
  total.steal_pct = StealPct(cpu0, cpu1);
  total.process_cpu_s = cpu1.process_cpu_s - cpu0.process_cpu_s;
  for (size_t c = 0; c < per.size(); ++c) {
    total.attempted += per[c].attempted;
    total.ok += per[c].ok;
    total.failed += per[c].failed;
    total.client_cpu_s += per[c].client_cpu_s;
    total.at_s.insert(total.at_s.end(), per[c].at_s.begin(),
                      per[c].at_s.end());
    log->Merge(std::move(logs[c]));
  }
  return total;
}

PassStats RunClosedBlocks(const Target& target, const OpStream& stream,
                          uint64_t seed, int connections, double seconds,
                          AnswerLog* log, const Between& between) {
  PassStats total;
  double steal_weighted = 0.0;
  for (int block = 0; block < kBlocks; ++block) {
    const PassStats pass = RunClosedLoop(
        target, stream, seed * kBlocks + static_cast<uint64_t>(block),
        connections, seconds / kBlocks, log);
    total.block_cpu_us_per_op.push_back(
        AtNoSteal(ServerCpuUsPerOp(pass), pass.steal_pct));
    if (between) {
      const CpuSample cpu0 = SampleCpu();
      const double cpu_s = between(pass.elapsed_s);
      total.between_cpu_s += AtNoSteal(cpu_s, StealPct(cpu0, SampleCpu()));
    }
    for (double t : pass.at_s) total.at_s.push_back(total.elapsed_s + t);
    total.attempted += pass.attempted;
    total.ok += pass.ok;
    total.failed += pass.failed;
    total.elapsed_s += pass.elapsed_s;
    total.process_cpu_s += pass.process_cpu_s;
    total.client_cpu_s += pass.client_cpu_s;
    steal_weighted += pass.steal_pct * pass.elapsed_s;
  }
  total.steal_pct = steal_weighted / total.elapsed_s;
  return total;
}

PassStats RunOpenLoop(const Target& target, const OpStream& stream,
                      uint64_t seed, int connections, double rate_per_s,
                      double seconds, AnswerLog* log) {
  const std::vector<Op> ops = Sequence(
      stream, seed, Pacer(Clock::now(), rate_per_s).CountWithin(seconds));
  return OpenPass(target, ops.data(), ops.size(), connections, rate_per_s,
                  log);
}

PassStats RunOpenSegments(const Target& target, const OpStream& stream,
                          uint64_t seed, int connections, double rate_per_s,
                          double seconds, double segment_s,
                          const Between& between, AnswerLog* log) {
  const std::vector<Op> ops = Sequence(
      stream, seed, Pacer(Clock::now(), rate_per_s).CountWithin(seconds));
  const size_t per_segment =
      std::max<size_t>(1, static_cast<size_t>(segment_s * rate_per_s));
  PassStats total;
  double steal_weighted = 0.0;
  for (size_t first = 0; first < ops.size(); first += per_segment) {
    if (first > 0 && between) between(segment_s);
    const size_t n = std::min(per_segment, ops.size() - first);
    const PassStats pass =
        OpenPass(target, ops.data() + first, n, connections, rate_per_s, log);
    const double offset_s = static_cast<double>(first) / rate_per_s;
    for (double t : pass.at_s) total.at_s.push_back(offset_s + t);
    for (std::vector<double> PassStats::*v :
         {&PassStats::read_ms, &PassStats::write_ms, &PassStats::late_ms}) {
      (total.*v).insert((total.*v).end(), (pass.*v).begin(),
                        (pass.*v).end());
    }
    total.attempted += pass.attempted;
    total.ok += pass.ok;
    total.failed += pass.failed;
    total.elapsed_s += pass.elapsed_s;
    total.process_cpu_s += pass.process_cpu_s;
    total.client_cpu_s += pass.client_cpu_s;
    steal_weighted += pass.steal_pct * pass.elapsed_s;
  }
  total.steal_pct = steal_weighted / std::max(total.elapsed_s, 1e-9);
  return total;
}

void WarmUp(const Target& target, const std::vector<uint32_t>& order,
            int connections, AnswerLog* log) {
  std::vector<AnswerLog> logs(static_cast<size_t>(connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client(target.port);
      for (size_t i = static_cast<size_t>(c); i < order.size();
           i += static_cast<size_t>(connections)) {
        const Op op{false, order[i]};
        if (!Execute(target, op, client, &logs[static_cast<size_t>(c)])) {
          Die("warm-up request failed: " + (*target.questions)[op.index].body);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (AnswerLog& l : logs) log->Merge(std::move(l));
}

std::vector<std::string> MakeObserveBodies(const TrainedSet& set,
                                           size_t count, size_t per_batch,
                                           size_t flip_every, Rng& rng) {
  const auto& all = workloads::AllWorkloads();
  std::vector<std::string> bodies;
  bodies.reserve(count);
  for (size_t b = 0; b < count; ++b) {
    const size_t a = rng.Below(all.size());
    const auto& w = all[a];
    const core::TrainedJuggler& model = set.results[a].trained;
    const double drift = (b / flip_every) % 2 == 0 ? 1.20 : 0.85;
    std::string body = "[";
    for (size_t r = 0; r < per_batch; ++r) {
      const size_t s = rng.Below(model.schedules().size());
      const double e =
          std::round(w.paper_params.examples * (0.3 + 0.8 * rng.Uniform()));
      const double f =
          std::round(w.paper_params.features * (0.3 + 0.8 * rng.Uniform()));
      const double predicted = model.time_models()[s].Predict({e, f});
      const double value =
          std::max(1.0, predicted * drift * (0.98 + 0.04 * rng.Uniform()));
      char record[384];
      std::snprintf(record, sizeof(record),
                    "%s{\"kind\":\"run_time\",\"app\":\"%s\",\"target\":%d,"
                    "\"params\":{\"examples\":%.0f,\"features\":%.0f,"
                    "\"iterations\":%d},\"model_version\":0,\"value\":%.3f}",
                    r == 0 ? "" : ",", w.name.c_str(),
                    model.schedules()[s].id, e, f, w.paper_params.iterations,
                    value);
      body += record;
    }
    body += "]";
    bodies.push_back(std::move(body));
  }
  return bodies;
}

double SlicedRate(const PassStats& closed) {
  std::vector<double> counts(
      static_cast<size_t>(std::max(1.0, std::floor(closed.elapsed_s / kSliceS))));
  for (double t : closed.at_s) {
    const size_t slice = static_cast<size_t>(t / kSliceS);
    if (slice < counts.size()) counts[slice] += 1.0;
  }
  for (double& c : counts) c /= kSliceS;
  return Median(std::move(counts));
}

double ServerCpuUsPerOp(const PassStats& pass) {
  return 1e6 * (pass.process_cpu_s - pass.client_cpu_s) /
         static_cast<double>(std::max<uint64_t>(1, pass.attempted));
}

double SlicedPercentile(const PassStats& open, double q) {
  std::map<size_t, std::vector<double>> slices;
  for (size_t i = 0; i < open.read_ms.size(); ++i) {
    slices[static_cast<size_t>(open.at_s[i] / kSliceS)].push_back(
        open.read_ms[i]);
  }
  std::vector<double> per_slice;
  for (auto& [slice, values] : slices) {
    per_slice.push_back(NearestRank(std::move(values), q));
  }
  return Median(std::move(per_slice));
}

void SetLoadMetrics(const PassStats& closed, const PassStats& open,
                    Result* result) {
  result->Set("loadgen.throughput_rps", SlicedRate(closed), "req/s");
  result->Set("loadgen.read_p50_ms", SlicedPercentile(open, 0.50), "ms");
  result->Set("loadgen.read_p99_ms", SlicedPercentile(open, 0.99), "ms");
  result->Set("loadgen.observe_p99_ms", NearestRank(open.write_ms, 0.99),
              "ms");
  result->Set("loadgen.lateness_p99_ms", NearestRank(open.late_ms, 0.99),
              "ms");
  result->Set("loadgen.read_samples", static_cast<double>(open.read_ms.size()),
              "count");
  result->Set("loadgen.write_samples",
              static_cast<double>(open.write_ms.size()), "count");
  result->Set("loadgen.steal_pct", open.steal_pct, "%");
  result->Set("loadgen.open_cpu_us_per_req", ServerCpuUsPerOp(open), "us");
  result->Set("loadgen.client_cpu_us_per_op",
              1e6 * open.client_cpu_s /
                  static_cast<double>(std::max<uint64_t>(1, open.attempted)),
              "us");
}

void SetServingMetrics(const PassStats& closed, const PassStats& open,
                       uint64_t wrong, Result* result) {
  const LatencySummary reads = Summarize(open.read_ms);
  const LatencySummary writes = Summarize(open.write_ms);
  std::fprintf(stderr,
               "perfbench: closed loop %llu ops in %.2f s; open loop %zu reads "
               "(%zu beyond p99), %zu writes (%zu beyond p99), late p99 "
               "%.3f ms, read p50 %.3f ms p99 %.3f ms; %.0f req/s closed; "
               "steal %.1f %% / %.1f %%; server cpu %.1f us/op closed, "
               "%.1f us/op open\n",
               static_cast<unsigned long long>(closed.attempted),
               closed.elapsed_s, reads.count, reads.beyond_p99, writes.count,
               writes.beyond_p99, NearestRank(open.late_ms, 0.99),
               SlicedPercentile(open, 0.50), SlicedPercentile(open, 0.99),
               SlicedRate(closed), closed.steal_pct, open.steal_pct,
               ServerCpuUsPerOp(closed), ServerCpuUsPerOp(open));
  const double attempted =
      static_cast<double>(closed.attempted + open.attempted);
  const double failed =
      static_cast<double>(closed.failed + open.failed + wrong);
  result->Set("cpu_us_per_req",
              Median(closed.block_cpu_us_per_op) +
                  1e6 * closed.between_cpu_s /
                      static_cast<double>(std::max<uint64_t>(1, closed.attempted)),
              "us");
  result->Set("success_ratio", 1.0 - failed / attempted, "ratio");
}

}  // namespace perfbench
