#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/units.h"

namespace juggler {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_FALSE(Status::Internal("x").ok());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  const Status s = Status::NotFound("missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::Internal("boom"); };
  auto outer = [&]() -> Status {
    JUGGLER_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

TEST(UnitsTest, ByteHelpers) {
  EXPECT_DOUBLE_EQ(KiB(1), 1024.0);
  EXPECT_DOUBLE_EQ(MiB(1), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(GiB(2), 2.0 * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(ToMiB(MiB(3.5)), 3.5);
  EXPECT_DOUBLE_EQ(ToGiB(GiB(0.25)), 0.25);
}

TEST(UnitsTest, TimeHelpers) {
  EXPECT_DOUBLE_EQ(Seconds(2), 2000.0);
  EXPECT_DOUBLE_EQ(Minutes(1.5), 90000.0);
  EXPECT_DOUBLE_EQ(ToSeconds(500), 0.5);
  EXPECT_DOUBLE_EQ(ToMinutes(120000), 2.0);
}

TEST(UnitsTest, MachineMinutesIsMachinesTimesMinutes) {
  EXPECT_DOUBLE_EQ(MachineMinutes(7, Minutes(3)), 21.0);
  EXPECT_DOUBLE_EQ(MachineMinutes(1, 0.0), 0.0);
}

TEST(UnitsTest, FormatBytesPicksUnit) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(KiB(2)), "2.0 KB");
  EXPECT_EQ(FormatBytes(MiB(35.9)), "35.9 MB");
  EXPECT_EQ(FormatBytes(GiB(35.9)), "35.9 GB");
}

// The threshold is read on every log statement while a tool may change it;
// under TSan this pins the read/write pair as race-free.
TEST(LoggerTest, ThresholdChangesWhileOtherThreadsLog) {
  const LogLevel saved = Logger::threshold();
  std::thread setter([] {
    for (int i = 0; i < 2000; ++i) {
      Logger::set_threshold(i % 2 ? LogLevel::kError : LogLevel::kWarning);
    }
  });
  std::vector<std::thread> loggers;
  for (int t = 0; t < 2; ++t) {
    loggers.emplace_back([] {
      for (int i = 0; i < 2000; ++i) JUGGLER_LOG(Debug) << "filtered " << i;
    });
  }
  setter.join();
  for (std::thread& t : loggers) t.join();
  Logger::set_threshold(saved);
  EXPECT_EQ(Logger::threshold(), saved);
}

TEST(UnitsTest, FormatTimePicksUnit) {
  EXPECT_EQ(FormatTime(3.0), "3.0 ms");
  EXPECT_EQ(FormatTime(Seconds(4.2)), "4.2 s");
  EXPECT_EQ(FormatTime(Minutes(2.5)), "2.5 min");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long-header"});
  t.AddRow({"xxxxxx", "1"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a      | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxxxx | 1           |"), std::string::npos);
}

TEST(TablePrinterTest, NumAndPercentFormat) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Percent(0.581), "58.1 %");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit over 1000 draws.
}

TEST(RngTest, JitterMeanNearOne) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Jitter(0.05);
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

}  // namespace
}  // namespace juggler
