#ifndef PERFBENCH_QUALITY_H_
#define PERFBENCH_QUALITY_H_

// What the answers must be: the reference response for a recommend
// question, the seeded question sets, and the held-out check of the trained
// models against simulator ground truth.

#include <cstdint>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "harness.h"
#include "service/recommendation_service.h"
#include "stack.h"

namespace perfbench {

/// One recommend question as sent on the wire and as the server decodes it.
struct Question {
  std::string app;
  std::string body;  ///< JSON document of POST /v1/recommend.
  std::string wire;  ///< Full serialized HTTP request.
  juggler::service::RecommendRequest request;
};

/// `n_per_app` distinct questions per HiBench app, parameters drawn from
/// `rng` around each app's paper parameters. App-major order. Each is
/// decoded with the server's own codec, so the reference sees exactly what
/// the server sees.
std::vector<Question> MakeQuestions(size_t n_per_app, Rng& rng);

/// The body a correct server returns for `question` answered by `model` at
/// registry version `version`: net::ResponseJson of
/// TrainedJuggler::Recommend, serialized.
std::string ExpectedBody(const juggler::core::TrainedJuggler& model,
                         const Question& question, bool cache_hit,
                         uint64_t version);

/// Held-out quality of a trained set: for each app, parameters not in the
/// training grid, Juggler's cheapest pick vs a 1..12-machine simulator
/// sweep of the same schedule.
struct Quality {
  /// Mean simulated cost of the pick as a share of the sweep's cheapest
  /// point, in percent (100 = always the cheapest).
  double pick_cost_pct = 0.0;
  double predict_err_pct = 0.0;  ///< Mean |predicted - simulated| / simulated.
  int cases = 0;
  int optimal = 0;  ///< Cases where the pick is the cheapest point.
};
Quality EvaluateHeldOut(const TrainedSet& set);

}  // namespace perfbench

#endif  // PERFBENCH_QUALITY_H_
