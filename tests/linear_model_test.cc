#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "math/linear_model.h"
#include "math/stats.h"

namespace juggler::math {
namespace {

std::vector<Observation> GridObservations(
    const std::function<double(double, double)>& fn) {
  std::vector<Observation> out;
  for (double e : {1000.0, 2000.0, 4000.0}) {
    for (double f : {250.0, 500.0, 1000.0}) {
      out.push_back(Observation{{e, f}, fn(e, f)});
    }
  }
  return out;
}

TEST(LinearModelTest, FamiliesHaveExpectedArity) {
  const auto sizes = MakeSizeModelFamilies();
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[0].num_terms(), 1);
  EXPECT_EQ(sizes[1].num_terms(), 2);
  EXPECT_EQ(sizes[2].num_terms(), 2);
  EXPECT_EQ(sizes[3].num_terms(), 3);
  const auto times = MakeTimeModelFamilies();
  ASSERT_EQ(times.size(), 4u);
}

TEST(LinearModelTest, FitRecoversCoefficients) {
  auto model = MakeSizeModelFamilies()[1];  // size = t0*e + t1*e*f
  const auto data =
      GridObservations([](double e, double f) { return 4.0 * e + 0.5 * e * f; });
  ASSERT_TRUE(model.Fit(data).ok());
  ASSERT_TRUE(model.fitted());
  EXPECT_NEAR(model.coefficients()[0], 4.0, 1e-3);
  EXPECT_NEAR(model.coefficients()[1], 0.5, 1e-6);
  EXPECT_NEAR(model.Predict({3000, 600}), 4.0 * 3000 + 0.5 * 3000 * 600, 1.0);
}

TEST(LinearModelTest, FitRejectsTooFewObservations) {
  auto model = MakeSizeModelFamilies()[3];  // 3 terms
  std::vector<Observation> two = {{{1, 1}, 1.0}, {{2, 2}, 2.0}};
  EXPECT_FALSE(model.Fit(two).ok());
}

TEST(LinearModelTest, PredictOnUnfittedAsserts) {
  auto model = MakeSizeModelFamilies()[0];
  EXPECT_FALSE(model.fitted());
}

TEST(LinearModelTest, ToStringShowsCoefficients) {
  auto model = MakeSizeModelFamilies()[0];
  EXPECT_NE(model.ToString().find("unfitted"), std::string::npos);
  ASSERT_TRUE(
      model.Fit(GridObservations([](double e, double f) { return 2.0 * e * f; }))
          .ok());
  EXPECT_NE(model.ToString().find("e*f"), std::string::npos);
}

TEST(MeanRelativeErrorTest, ZeroForPerfectFit) {
  auto model = MakeSizeModelFamilies()[0];
  const auto data =
      GridObservations([](double e, double f) { return 1.5 * e * f; });
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_NEAR(MeanRelativeError(model, data), 0.0, 1e-9);
}

TEST(CrossValidationTest, SelectsGeneratingFamily) {
  // Data from size = t0*f + t1*e*f (family 3); CV must pick it (or a family
  // that fits it equally well).
  const auto data = GridObservations(
      [](double e, double f) { return 100.0 * f + 0.25 * e * f; });
  auto best = SelectModelByCrossValidation(MakeSizeModelFamilies(), data);
  ASSERT_TRUE(best.ok());
  EXPECT_LT(MeanRelativeError(*best, data), 1e-6);
}

TEST(CrossValidationTest, SelectsConstantPlusProductForTimeData) {
  const auto data = GridObservations(
      [](double e, double f) { return 5000.0 + 0.001 * e * f; });
  auto best = SelectModelByCrossValidation(MakeTimeModelFamilies(), data);
  ASSERT_TRUE(best.ok());
  EXPECT_LT(MeanRelativeError(*best, data), 1e-6);
}

TEST(CrossValidationTest, ToleratesNoise) {
  Rng rng(5);
  auto data = GridObservations(
      [](double e, double f) { return 2.0 * e * f + 10.0 * e; });
  for (auto& obs : data) obs.value *= rng.Jitter(0.02);
  auto best = SelectModelByCrossValidation(MakeSizeModelFamilies(), data);
  ASSERT_TRUE(best.ok());
  EXPECT_LT(MeanRelativeError(*best, data), 0.05);
}

TEST(CrossValidationTest, FailsOnEmptyData) {
  EXPECT_FALSE(SelectModelByCrossValidation(MakeSizeModelFamilies(), {}).ok());
}

TEST(CrossValidationTest, FailsWhenNoFamilyFits) {
  // One observation cannot LOO-validate any family.
  std::vector<Observation> one = {{{1, 1}, 1.0}};
  EXPECT_FALSE(SelectModelByCrossValidation(MakeSizeModelFamilies(), one).ok());
}

TEST(StatsTest, RelativeErrorAndAccuracy) {
  EXPECT_DOUBLE_EQ(RelativeError(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(RelativeError(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(PredictionAccuracy(90, 100), 0.9);
  EXPECT_DOUBLE_EQ(PredictionAccuracy(300, 100), 0.0);  // Clamped.
}

TEST(StatsTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

// ---------------------------------------------------------------------------
// Differential test: the design-matrix leave-one-out selection against the
// original per-fold implementation, kept verbatim below as the oracle.

StatusOr<LinearModel> ReferenceSelectModelByCrossValidation(
    std::vector<LinearModel> candidates, const std::vector<Observation>& data) {
  if (data.empty()) {
    return Status::InvalidArgument("SelectModelByCrossValidation: no data");
  }
  double best_error = std::numeric_limits<double>::infinity();
  int best_index = -1;

  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    LinearModel& candidate = candidates[ci];
    // Need strictly more points than terms so every LOO fold is solvable.
    if (static_cast<int>(data.size()) <= candidate.num_terms()) continue;
    double error_sum = 0.0;
    int folds = 0;
    bool usable = true;
    for (size_t held = 0; held < data.size(); ++held) {
      std::vector<Observation> train;
      train.reserve(data.size() - 1);
      for (size_t i = 0; i < data.size(); ++i) {
        if (i != held) train.push_back(data[i]);
      }
      LinearModel fold = candidate;
      if (!fold.Fit(train).ok()) {
        usable = false;
        break;
      }
      const double actual = data[held].value;
      if (actual != 0.0) {
        error_sum +=
            std::fabs(fold.Predict(data[held].params) - actual) / std::fabs(actual);
        ++folds;
      }
    }
    if (!usable || folds == 0) continue;
    const double error = error_sum / folds;
    if (error < best_error) {
      best_error = error;
      best_index = static_cast<int>(ci);
    }
  }

  if (best_index < 0) {
    return Status::NotFound(
        "SelectModelByCrossValidation: no candidate family could be fitted");
  }
  LinearModel best = candidates[static_cast<size_t>(best_index)];
  JUGGLER_RETURN_IF_ERROR(best.Fit(data));
  return best;
}

/// One seeded data set. `shape` picks the stress case: generic noisy data,
/// zero values and parameters, duplicate rows, collinear terms, extreme
/// magnitudes, or the paper's 3x3 training grid.
std::vector<Observation> DifferentialData(uint64_t seed, int n, int shape) {
  Rng rng(seed);
  const double t0 = rng.Uniform(0.0, 5000.0);
  const double t1 = rng.Uniform(0.0, 2.0);
  const double t2 = rng.Uniform(0.0, 1e-3);
  auto truth = [&](double e, double f) {
    return t0 + t1 * e + t2 * e * f + (rng.Uniform() < 0.5 ? 0.0 : t1 * f * f);
  };
  std::vector<Observation> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double e = rng.Uniform(1e3, 5e4);
    double f = rng.Uniform(1e2, 2e4);
    double value = truth(e, f) * rng.Jitter(0.1);
    switch (shape) {
      case 0:  // Generic noisy observations.
        break;
      case 1:  // Zero values (skipped by the error) and zero parameters.
        if (rng.Uniform() < 0.3) value = 0.0;
        if (rng.Uniform() < 0.2) e = 0.0;
        if (rng.Uniform() < 0.2) f = 0.0;
        break;
      case 2:  // Duplicate rows: a few distinct observations, repeated.
        if (i > 0 && rng.Uniform() < 0.7) {
          out.push_back(out[rng.UniformInt(static_cast<uint64_t>(i))]);
          continue;
        }
        break;
      case 3:  // Collinear terms: f fixed, so f, f^2 and 1 are proportional.
        f = 500.0;
        value = truth(e, f);
        break;
      case 4:  // Extreme magnitudes.
        e = std::pow(10.0, rng.Uniform(-3.0, 9.0));
        f = std::pow(10.0, rng.Uniform(-3.0, 6.0));
        value = std::pow(10.0, rng.Uniform(-6.0, 15.0));
        break;
      default: {  // The paper's grid, a few noisy repetitions.
        static constexpr double kE[] = {1000.0, 2000.0, 4000.0};
        static constexpr double kF[] = {250.0, 500.0, 1000.0};
        e = kE[i % 3];
        f = kF[(i / 3) % 3];
        value = truth(e, f) * rng.Jitter(0.02);
        break;
      }
    }
    out.push_back(Observation{{e, f}, value});
  }
  return out;
}

void ExpectSameSelection(const std::vector<LinearModel>& families,
                         const std::vector<Observation>& data,
                         const std::string& label) {
  auto expected = ReferenceSelectModelByCrossValidation(families, data);
  auto actual = SelectModelByCrossValidation(families, data);
  ASSERT_EQ(actual.status().code(), expected.status().code()) << label;
  if (!expected.ok()) return;
  ASSERT_EQ(actual->name(), expected->name()) << label;
  const std::vector<double>& want = expected->coefficients();
  const std::vector<double>& got = actual->coefficients();
  ASSERT_EQ(got.size(), want.size()) << label;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)),
            0)
      << label << ": " << actual->ToString() << " vs " << expected->ToString();
}

TEST(CrossValidationTest, BitIdenticalToPerFoldReference) {
  const auto size_families = MakeSizeModelFamilies();
  const auto time_families = MakeTimeModelFamilies();
  constexpr int kDataSets = 240;
  Rng sizes(2024);
  for (int i = 0; i < kDataSets; ++i) {
    // Mostly small sets, where the family choice is least settled, plus a
    // sparse sweep up to n = 300 (the reference is cubic in n).
    int n = i % 12 == 0 ? 1 + static_cast<int>(sizes.UniformInt(300))
                        : 1 + static_cast<int>(sizes.UniformInt(40));
    if (i < 4) n = i + 1;  // Too few rows for some or every family.
    if (i == 4) n = 300;
    const int shape = i % 6;
    const auto data = DifferentialData(1000 + static_cast<uint64_t>(i), n, shape);
    const std::string label = "data set " + std::to_string(i) + " (n=" +
                              std::to_string(n) + ", shape " +
                              std::to_string(shape) + ")";
    ExpectSameSelection(size_families, data, label + " size families");
    ExpectSameSelection(time_families, data, label + " time families");
  }
}

/// Property sweep: whichever of the four size families generated the data,
/// cross-validation recovers a model with near-zero error.
class FamilyRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(FamilyRecoveryTest, RecoversGeneratingFamily) {
  const int family = GetParam();
  Rng rng(static_cast<uint64_t>(family) + 100);
  const double t0 = rng.Uniform(0.5, 5.0);
  const double t1 = rng.Uniform(0.01, 0.2);
  const double t2 = rng.Uniform(0.001, 0.01);
  auto fn = [&](double e, double f) -> double {
    switch (family) {
      case 0:
        return t0 * e * f;
      case 1:
        return t0 * e + t1 * e * f;
      case 2:
        return t0 * f + t1 * e * f;
      default:
        return t0 + t1 * e + t2 * e * f;
    }
  };
  auto best =
      SelectModelByCrossValidation(MakeSizeModelFamilies(), GridObservations(fn));
  ASSERT_TRUE(best.ok());
  EXPECT_LT(MeanRelativeError(*best, GridObservations(fn)), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyRecoveryTest,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace juggler::math
