#include "quality.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "net/json.h"
#include "net/recommend_codec.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace juggler;  // NOLINT

namespace {

Question MakeQuestion(const std::string& app, double examples,
                      double features, int iterations) {
  char body[256];
  std::snprintf(body, sizeof(body),
                "{\"app\":\"%s\",\"params\":{\"examples\":%.0f,"
                "\"features\":%.0f,\"iterations\":%d}}",
                app.c_str(), examples, features, iterations);
  Question q;
  q.app = app;
  q.body = body;
  q.wire = PostWire("/v1/recommend", q.body);
  auto json = net::Json::Parse(q.body);
  if (!json.ok()) Die("question json: " + json.status().ToString());
  auto parsed = net::ParseRecommendRequest(*json);
  if (!parsed.ok()) Die("question decode: " + parsed.status().ToString());
  q.request = std::move(parsed).value();
  return q;
}

}  // namespace

std::vector<Question> MakeQuestions(size_t n_per_app, Rng& rng) {
  std::vector<Question> out;
  for (const auto& w : workloads::AllWorkloads()) {
    std::set<std::pair<long, long>> seen;
    while (seen.size() < n_per_app) {
      const long e = std::lround(w.paper_params.examples *
                                 (0.25 + 1.0 * rng.Uniform()));
      const long f = std::lround(w.paper_params.features *
                                 (0.25 + 1.0 * rng.Uniform()));
      if (e < 1 || f < 1 || !seen.emplace(e, f).second) continue;
      out.push_back(MakeQuestion(w.name, static_cast<double>(e),
                                 static_cast<double>(f),
                                 w.paper_params.iterations));
    }
  }
  return out;
}

std::string ExpectedBody(const core::TrainedJuggler& model,
                         const Question& question, bool cache_hit,
                         uint64_t version) {
  const auto& r = question.request;
  auto recs = model.Recommend(r.params, r.machine_type, r.objective);
  if (!recs.ok()) return "error: " + recs.status().ToString();
  service::RecommendResponse response;
  response.recommendations =
      std::make_shared<const std::vector<core::Recommendation>>(
          std::move(recs).value());
  response.cache_hit = cache_hit;
  response.model_version = version;
  return net::ResponseJson(r.app, response).Dump();
}

Quality EvaluateHeldOut(const TrainedSet& set) {
  constexpr int kPointsPerApp = 4;
  // Held-out (examples, features) fractions of the paper parameters, away
  // from the training grid's 0.4 / 0.7 / 1.0. Fixed rather than seeded, so
  // the quality figures compare like for like across seeds and commits.
  static constexpr double kPoints[kPointsPerApp][2] = {
      {0.5, 0.85}, {0.55, 0.6}, {0.85, 0.5}, {0.9, 0.9}};
  Quality q;
  double cost_ratio_sum = 0.0;
  double err_sum = 0.0;
  const auto& all = workloads::AllWorkloads();
  for (size_t a = 0; a < all.size(); ++a) {
    const auto& w = all[a];
    const core::TrainedJuggler& model = set.results[a].trained;
    for (int p = 0; p < kPointsPerApp; ++p) {
      const minispark::AppParams params{
          std::round(kPoints[p][0] * w.paper_params.examples),
          std::round(kPoints[p][1] * w.paper_params.features),
          w.paper_params.iterations};
      auto recs = model.Recommend(params, minispark::PaperCluster(1));
      if (!recs.ok() || recs->empty()) {
        Die("held-out recommend for " + w.name + " failed");
      }
      const core::Recommendation& pick = *std::min_element(
          recs->begin(), recs->end(), [](const auto& x, const auto& y) {
            return x.predicted_cost_machine_min < y.predicted_cost_machine_min;
          });
      const std::vector<bench::SweepPoint> sweep =
          bench::SweepMachines(w, params, pick.plan);
      const bench::SweepPoint& at = sweep[static_cast<size_t>(
          std::clamp(pick.machines, 1, bench::kMaxMachines) - 1)];
      const double cheapest = bench::CheapestPoint(sweep).cost_machine_min;
      cost_ratio_sum += at.cost_machine_min / cheapest;
      err_sum += std::abs(pick.predicted_time_ms - at.time_ms) / at.time_ms;
      if (at.cost_machine_min == cheapest) ++q.optimal;
      ++q.cases;
    }
  }
  q.pick_cost_pct = 100.0 * cost_ratio_sum / q.cases;
  q.predict_err_pct = 100.0 * err_sum / q.cases;
  return q;
}

}  // namespace perfbench
