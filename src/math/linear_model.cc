#include "math/linear_model.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "math/nnls.h"

namespace juggler::math {

LinearModel::LinearModel(std::string name, std::vector<BasisFn> basis,
                         std::vector<std::string> term_names)
    : name_(std::move(name)),
      basis_(std::move(basis)),
      term_names_(std::move(term_names)) {
  assert(basis_.size() == term_names_.size());
}

Status LinearModel::Fit(const std::vector<Observation>& data) {
  const int n = static_cast<int>(data.size());
  const int k = num_terms();
  if (n < k) {
    return Status::InvalidArgument("LinearModel::Fit: fewer observations (" +
                                   std::to_string(n) + ") than terms (" +
                                   std::to_string(k) + ")");
  }
  Matrix a(n, k);
  std::vector<double> b(n);
  for (int r = 0; r < n; ++r) {
    EvaluateBasis(data[r].params, a.row(r));
    b[r] = data[r].value;
  }
  JUGGLER_RETURN_IF_ERROR(NonNegativeLeastSquares(a, b, &coefficients_));
  fitted_ = true;
  return Status::OK();
}

Status LinearModel::SetCoefficients(std::vector<double> coefficients) {
  if (static_cast<int>(coefficients.size()) != num_terms()) {
    return Status::InvalidArgument(
        "SetCoefficients: expected " + std::to_string(num_terms()) +
        " coefficients, got " + std::to_string(coefficients.size()));
  }
  coefficients_ = std::move(coefficients);
  fitted_ = true;
  return Status::OK();
}

double LinearModel::Predict(const std::vector<double>& params) const {
  assert(fitted_);
  double y = 0.0;
  for (int c = 0; c < num_terms(); ++c) y += coefficients_[c] * basis_[c](params);
  return y;
}

void LinearModel::EvaluateBasis(const std::vector<double>& params,
                                double* out) const {
  for (int c = 0; c < num_terms(); ++c) out[c] = basis_[c](params);
}

std::string LinearModel::ToString() const {
  std::string out = name_ + ":";
  if (!fitted_) return out + " (unfitted)";
  for (int c = 0; c < num_terms(); ++c) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s%.6g*%s", c > 0 ? "+ " : "",
                  coefficients_[c], term_names_[c].c_str());
    out += buf;
  }
  return out;
}

namespace {

double E(const std::vector<double>& p) { return p[0]; }
double F(const std::vector<double>& p) { return p[1]; }

}  // namespace

std::vector<LinearModel> MakeSizeModelFamilies() {
  std::vector<LinearModel> models;
  models.emplace_back(
      "size~e*f", std::vector<LinearModel::BasisFn>{[](const auto& p) {
        return E(p) * F(p);
      }},
      std::vector<std::string>{"e*f"});
  models.emplace_back(
      "size~e+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto& p) { return E(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"e", "e*f"});
  models.emplace_back(
      "size~f+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto& p) { return F(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"f", "e*f"});
  models.emplace_back(
      "size~1+e+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto&) { return 1.0; }, [](const auto& p) { return E(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"1", "e", "e*f"});
  return models;
}

std::vector<LinearModel> MakeTimeModelFamilies() {
  std::vector<LinearModel> models;
  models.emplace_back(
      "time~e*f", std::vector<LinearModel::BasisFn>{[](const auto& p) {
        return E(p) * F(p);
      }},
      std::vector<std::string>{"e*f"});
  models.emplace_back(
      "time~1+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto&) { return 1.0; },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"1", "e*f"});
  models.emplace_back(
      "time~f+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto& p) { return F(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"f", "e*f"});
  models.emplace_back(
      "time~f^2+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto& p) { return F(p) * F(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"f^2", "e*f"});
  return models;
}

StatusOr<LinearModel> MakeModelFamilyByName(const std::string& name) {
  for (auto families : {MakeSizeModelFamilies(), MakeTimeModelFamilies()}) {
    for (LinearModel& m : families) {
      if (m.name() == name) return std::move(m);
    }
  }
  return Status::NotFound("unknown model family: " + name);
}

double MeanRelativeError(const LinearModel& model,
                         const std::vector<Observation>& data) {
  double sum = 0.0;
  int n = 0;
  for (const auto& obs : data) {
    if (obs.value == 0.0) continue;
    sum += std::fabs(model.Predict(obs.params) - obs.value) / std::fabs(obs.value);
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

StatusOr<LinearModel> SelectModelByCrossValidation(
    std::vector<LinearModel> candidates, const std::vector<Observation>& data) {
  if (data.empty()) {
    return Status::InvalidArgument("SelectModelByCrossValidation: no data");
  }
  const int n = static_cast<int>(data.size());
  double best_error = std::numeric_limits<double>::infinity();
  int best_index = -1;
  std::vector<double> b(static_cast<size_t>(n - 1));
  std::vector<double> coef;

  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const LinearModel& candidate = candidates[ci];
    const int k = candidate.num_terms();
    // Need strictly more points than terms so every LOO fold is solvable.
    if (n <= k) continue;
    Matrix full(n, k);
    for (int r = 0; r < n; ++r) {
      candidate.EvaluateBasis(data[static_cast<size_t>(r)].params, full.row(r));
    }
    // Fold `held` trains on rows 0..held-1, held+1..n-1 in that order. Start
    // from fold 0 (rows 1..n-1); moving to fold `held` only changes training
    // position held-1, from row `held` to row `held-1`.
    Matrix a(n - 1, k);
    for (int r = 1; r < n; ++r) {
      for (int c = 0; c < k; ++c) a(r - 1, c) = full(r, c);
      b[static_cast<size_t>(r - 1)] = data[static_cast<size_t>(r)].value;
    }
    double error_sum = 0.0;
    int folds = 0;
    bool usable = true;
    for (int held = 0; held < n; ++held) {
      if (held > 0) {
        for (int c = 0; c < k; ++c) a(held - 1, c) = full(held - 1, c);
        b[static_cast<size_t>(held - 1)] =
            data[static_cast<size_t>(held - 1)].value;
      }
      if (!NonNegativeLeastSquares(a, b, &coef).ok()) {
        usable = false;
        break;
      }
      const double actual = data[static_cast<size_t>(held)].value;
      if (actual != 0.0) {
        // Same summation order as LinearModel::Predict.
        double predicted = 0.0;
        for (int c = 0; c < k; ++c) predicted += coef[c] * full(held, c);
        error_sum += std::fabs(predicted - actual) / std::fabs(actual);
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
  LinearModel best = std::move(candidates[static_cast<size_t>(best_index)]);
  JUGGLER_RETURN_IF_ERROR(best.Fit(data));
  return best;
}

}  // namespace juggler::math
