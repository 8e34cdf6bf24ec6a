// Self-tests of the benchmark's own measurement code.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "harness.h"
#include "quality.h"
#include "serving.h"
#include "stack.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

TEST(NearestRank, PicksTheCeilRankOfSortedSamples) {
  const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  EXPECT_EQ(NearestRank(v, 0.5), 5);
  EXPECT_EQ(NearestRank(v, 0.9), 9);
  EXPECT_EQ(NearestRank(v, 0.91), 10);
  EXPECT_EQ(NearestRank(v, 1.0), 10);
  EXPECT_EQ(NearestRank(v, 0.01), 1);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  EXPECT_EQ(Median({7}), 7);
}

TEST(Summarize, ReportsCountAndSamplesBeyondP99) {
  std::vector<double> v;
  for (int i = 1; i <= 2000; ++i) v.push_back(i);
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 2000u);
  EXPECT_EQ(s.p50, 1000);
  EXPECT_EQ(s.p99, 1980);
  EXPECT_EQ(s.beyond_p99, 20u);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    differs |= x != c.Next();
  }
  EXPECT_TRUE(differs);
  Rng u(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = u.Uniform();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipf, SkewsTowardLowRanksAndIsDeterministic) {
  const Zipf z(100, 1.0);
  Rng a(1), b(1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const size_t r = z.Sample(a);
    ASSERT_LT(r, 100u);
    EXPECT_EQ(r, z.Sample(b));
    ++counts[r];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
  const Zipf flat(4, 0.0);
  std::vector<int> even(4, 0);
  Rng c(3);
  for (int i = 0; i < 40000; ++i) ++even[flat.Sample(c)];
  for (int n : even) EXPECT_NEAR(n, 10000, 600);
}

TEST(OpStream, SameSeedSameOperations) {
  const OpStream s1(9, 500, 0.9, 0.05, 64);
  const OpStream s2(9, 500, 0.9, 0.05, 64);
  const OpStream other(10, 500, 0.9, 0.05, 64);
  Rng a(5), b(5), c(5);
  int writes = 0;
  bool differs = false;
  for (int i = 0; i < 5000; ++i) {
    const Op x = s1.Next(a);
    const Op y = s2.Next(b);
    const Op z = other.Next(c);
    EXPECT_EQ(x.write, y.write);
    EXPECT_EQ(x.index, y.index);
    differs |= x.index != z.index;
    writes += x.write ? 1 : 0;
    EXPECT_LT(x.index, x.write ? 64u : 500u);
  }
  EXPECT_TRUE(differs);  // The seed permutes which question is popular.
  EXPECT_NEAR(writes, 250, 60);
}

TEST(Questions, SameSeedSameRequests) {
  Rng a(11), b(11);
  const auto q1 = MakeQuestions(6, a);
  const auto q2 = MakeQuestions(6, b);
  ASSERT_EQ(q1.size(), 30u);
  std::set<std::string> distinct;
  for (size_t i = 0; i < q1.size(); ++i) {
    EXPECT_EQ(q1[i].wire, q2[i].wire);
    distinct.insert(q1[i].body);
  }
  EXPECT_EQ(distinct.size(), q1.size());
}

TEST(AnswerLog, ChecksEachAnswerAgainstItsShardAndVersion) {
  const auto& w = juggler::workloads::AllWorkloads().front();
  auto trained = juggler::core::TrainJuggler(w.name, w.make,
                                             PaperTrainingConfig(w));
  ASSERT_TRUE(trained.ok());
  const auto model =
      std::make_shared<const juggler::core::TrainedJuggler>(trained->trained);
  Rng rng(5);
  const std::vector<Question> questions = MakeQuestions(1, rng);
  ASSERT_EQ(questions.front().app, w.name);
  const std::string body = ExpectedBody(*model, questions.front(), true, 3);

  AnswerLog log;
  ASSERT_TRUE(log.Record(0, 1, body));
  ASSERT_TRUE(log.Record(0, 1, body));
  EXPECT_FALSE(log.Record(0, 1, "not a recommend answer"));

  Oracle on_owner;
  on_owner.Set(1, 3, {{w.name, model}});
  EXPECT_EQ(log.Verify(questions, on_owner, 2), 0u);
  Oracle wrong_version;
  wrong_version.Set(1, 2, {{w.name, model}});
  EXPECT_EQ(log.Verify(questions, wrong_version, 2), 2u);
  Oracle on_other;
  on_other.Set(0, 3, {{w.name, model}});
  EXPECT_EQ(log.Verify(questions, on_other, 2), 2u);
  EXPECT_EQ(log.Verify(questions, on_other, 2, /*failover=*/true), 0u);

  // A different body under a key already logged with the right body, on
  // the same log or merged from another thread's, is a wrong answer.
  std::string other = body;
  other.back() = ' ';
  AnswerLog same_thread;
  ASSERT_TRUE(same_thread.Record(0, 1, body));
  ASSERT_TRUE(same_thread.Record(0, 1, other));
  ASSERT_TRUE(same_thread.Record(0, 1, other));
  EXPECT_EQ(same_thread.Verify(questions, on_owner, 2), 2u);
  AnswerLog other_thread;
  ASSERT_TRUE(other_thread.Record(0, 1, other));
  log.Merge(std::move(other_thread));
  EXPECT_EQ(log.Verify(questions, on_owner, 2), 1u);
}

TEST(Tracer, SelfTimeIsDurationMinusChildren) {
  Tracer t;
  const uint64_t root = t.Add("rtt", 100.0);
  const uint64_t fwd = t.Add("forward", 60.0, root);
  t.Add("call", 45.0, fwd);
  t.Add("service", 5.0, fwd);
  const uint64_t root2 = t.Add("rtt", 80.0);
  t.Add("forward", 50.0, root2);
  EXPECT_EQ(t.MedianUs("rtt"), 80.0);
  EXPECT_EQ(t.MedianSelfUs("rtt"), 30.0);     // {40, 30}
  EXPECT_EQ(t.MedianSelfUs("forward"), 10.0);  // {10, 50}
  EXPECT_EQ(t.TotalUs("forward"), 110.0);
  EXPECT_EQ(t.TotalSelfUs("forward"), 60.0);
  EXPECT_EQ(t.MedianSelfUs("call"), 45.0);
  EXPECT_EQ(t.Count("rtt"), 2u);
  EXPECT_EQ(t.MedianUs("missing"), 0.0);
}

TEST(Pacer, DueTimesFollowTheReferenceRate) {
  const auto start = Clock::now();
  const Pacer p(start, 2000.0);
  EXPECT_EQ(p.Due(0), start);
  EXPECT_NEAR(MicrosBetween(start, p.Due(1)), 500.0, 0.01);
  EXPECT_NEAR(MicrosBetween(start, p.Due(4000)), 2e6, 0.01);
  EXPECT_EQ(p.CountWithin(2.5), 5000u);
}

TEST(Pacer, SendsAreNotEarlyAndLateOnlyBySchedulingNoise) {
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const Pacer p(start, 1000.0);
  for (uint64_t i = 0; i < 50; ++i) {
    std::this_thread::sleep_until(p.Due(i));
    const double late_ms = MicrosBetween(p.Due(i), Clock::now()) / 1000.0;
    EXPECT_GE(late_ms, 0.0);
    EXPECT_LT(late_ms, 50.0);
  }
}

TEST(CpuSample, StealShareIsStolenOverTotalJiffies) {
  CpuSample a, b;
  a.total_jiffies = 1000;
  a.steal_jiffies = 10;
  b.total_jiffies = 1400;
  b.steal_jiffies = 50;
  EXPECT_DOUBLE_EQ(StealPct(a, b), 10.0);
  EXPECT_EQ(StealPct(a, a), 0.0);
  const CpuSample now = SampleCpu();
  EXPECT_GT(now.total_jiffies, 0.0);
  EXPECT_GE(now.total_jiffies, now.steal_jiffies);
}

TEST(CpuAccounting, AtNoStealTakesOutTheMeasuredSlope) {
  EXPECT_EQ(AtNoSteal(2.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(AtNoSteal(1.0 + 10.0 * kStealSlope, 10.0), 1.0);
}

TEST(SpeedMeter, ScalesCpuTimeToTheReferenceProbe) {
  EXPECT_EQ(SpeedProbeWork(), SpeedProbeWork());
  SpeedMeter meter;
  EXPECT_EQ(meter.AtReference(2.0), 2.0);  // No reading yet.
  const double one = meter.Probe();
  const double two = meter.Probe();
  EXPECT_GT(one, 0.0);
  EXPECT_GT(two, 0.0);
  EXPECT_DOUBLE_EQ(meter.Mean(), (one + two) / 2.0);
  EXPECT_DOUBLE_EQ(meter.AtReference(meter.Mean()), kProbeReferenceS);
  // Each thread runs the work twice and times the second run.
  EXPECT_GE(meter.spent_s(), 2.0 * one);
}

TEST(OpStream, MostPopularFollowsTheSeededRanking) {
  const OpStream s(9, 500, 0.9, 0.0, 0);
  const std::vector<uint32_t> top = s.MostPopular(10);
  ASSERT_EQ(top.size(), 10u);
  EXPECT_EQ(s.MostPopular(600).size(), 500u);
  std::map<uint32_t, int> seen;
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) ++seen[s.Next(rng).index];
  EXPECT_GT(seen[top[0]], seen[top[9]]);
}

TEST(Result, LastLineHasExactlyTheRequiredKeys) {
  Result r;
  r.Set("p50_ms", 1.25, "ms");
  r.Set("setup_s", 0.5, "s");
  EXPECT_EQ(r.ToJson(true, 10, 1),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
