// Byte-level tests of the recommend reply writer (net::AppendResponseJson)
// and the shared JSON scalar formatter (common/json_text.h). Each is checked
// against the implementation it replaced, kept here as the reference: the
// Json-tree reply builder and the snprintf/to_string formatter. Every body
// the servers send must stay byte-identical to what those produced.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_text.h"
#include "common/random.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "net/http_recommend_server.h"
#include "net/json.h"
#include "net/recommend_codec.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"
#include "workloads/workloads.h"

namespace juggler::net {
namespace {

namespace fs = std::filesystem;

constexpr double kTwo53 = 9007199254740992.0;

// ---------------------------------------------------------------------------
// References: the formatter and the tree builder as they were before the
// direct writer.

void ReferenceAppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void ReferenceAppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < kTwo53) {
    out->append(std::to_string(static_cast<long long>(v)));
    return;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, result.ptr);
}

Json TreeResponseJson(const std::string& app,
                      const service::RecommendResponse& response) {
  Json recommendations = Json::Arr();
  for (const core::Recommendation& r : *response.recommendations) {
    Json item = Json::Obj();
    item.Set("schedule_id", Json::Number(r.schedule_id))
        .Set("plan", Json::Str(r.plan.ToString()))
        .Set("predicted_bytes", Json::Number(r.predicted_bytes))
        .Set("machines", Json::Number(r.machines))
        .Set("predicted_time_ms", Json::Number(r.predicted_time_ms))
        .Set("predicted_cost_machine_min",
             Json::Number(r.predicted_cost_machine_min))
        .Set("objective_score", Json::Number(r.objective_score));
    recommendations.Append(std::move(item));
  }
  Json out = Json::Obj();
  out.Set("app", Json::Str(app))
      .Set("cache_hit", Json::Bool(response.cache_hit))
      .Set("model_version",
           Json::Number(static_cast<double>(response.model_version)))
      .Set("recommendations", std::move(recommendations));
  return out;
}

// ---------------------------------------------------------------------------
// Seeded generators. Each draw favours the edges: non-finite values,
// integral values around 2^53, -0.0, escapes.

double EdgyDouble(Rng& rng) {
  switch (rng.UniformInt(uint64_t{12})) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return rng.UniformInt(uint64_t{2}) ? HUGE_VAL : -HUGE_VAL;
    case 2: return -0.0;
    case 3: return kTwo53 + 2.0 * static_cast<double>(rng.UniformInt(
                                    uint64_t{4}));  // At and above 2^53.
    case 4: return -kTwo53 - 2.0;
    case 5: return kTwo53 - 1.0;
    case 6: return std::ldexp(1.0, static_cast<int>(rng.UniformInt(
                                       int64_t{54}, int64_t{1000})));
    case 7: return std::round(rng.Uniform(-1e9, 1e9));
    case 8: {
      // Any bit pattern: subnormals, huge exponents, NaN payloads.
      const uint64_t bits = rng.Next();
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      return v;
    }
    default:
      return rng.Uniform(0.0, 1e7) * (rng.UniformInt(uint64_t{2}) ? 1 : -1);
  }
}

std::string EdgyString(Rng& rng) {
  static const char* const kPieces[] = {
      "svm", "a", "\"", "\\", "\n", "\r", "\t", "\b", "\f", "\x01", "\x1f",
      "\x7f", "/", "\xc3\xa9", "\xff", "p(1)", " ", "{", "}", "\\u0000"};
  std::string out;
  const size_t n = rng.UniformInt(uint64_t{8});
  for (size_t i = 0; i < n; ++i) {
    out += kPieces[rng.UniformInt(std::size(kPieces))];
  }
  if (rng.UniformInt(uint64_t{4}) == 0) out.push_back('\0');
  return out;
}

uint64_t EdgyVersion(Rng& rng) {
  switch (rng.UniformInt(uint64_t{6})) {
    case 0: return 0;
    case 1: return 9007199254740992ULL;  // 2^53
    case 2: return 9007199254740993ULL;  // Not exact as a double.
    case 3: return std::numeric_limits<uint64_t>::max();
    case 4: return rng.Next();
    default: return rng.UniformInt(uint64_t{1000});
  }
}

service::RecommendResponse EdgyResponse(Rng& rng) {
  std::vector<core::Recommendation> recs(rng.UniformInt(uint64_t{4}));
  for (core::Recommendation& r : recs) {
    r.schedule_id =
        static_cast<int>(rng.UniformInt(int64_t{-3}, int64_t{1000}));
    const size_t ops = rng.UniformInt(uint64_t{4});
    for (size_t i = 0; i < ops; ++i) {
      const auto id = static_cast<minispark::DatasetId>(
          rng.UniformInt(int64_t{-2}, int64_t{99}));
      r.plan.ops.push_back(rng.UniformInt(uint64_t{2})
                               ? minispark::CacheOp::Persist(id)
                               : minispark::CacheOp::Unpersist(id));
    }
    r.predicted_bytes = EdgyDouble(rng);
    r.machines = static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{64}));
    r.predicted_time_ms = EdgyDouble(rng);
    r.predicted_cost_machine_min = EdgyDouble(rng);
    r.objective_score = EdgyDouble(rng);
  }
  service::RecommendResponse response;
  response.recommendations =
      std::make_shared<const std::vector<core::Recommendation>>(
          std::move(recs));
  response.cache_hit = rng.UniformInt(uint64_t{2}) == 1;
  response.model_version = EdgyVersion(rng);
  return response;
}

// ---------------------------------------------------------------------------

TEST(JsonTextTest, MatchesTheFormerFormatterOnSeededInputs) {
  Rng rng(20221);
  for (int i = 0; i < 20000; ++i) {
    const double v = EdgyDouble(rng);
    std::string expected, actual;
    ReferenceAppendNumber(&expected, v);
    AppendJsonNumber(&actual, v);
    ASSERT_EQ(actual, expected) << "value bits " << std::hexfloat << v;

    const std::string s = EdgyString(rng);
    expected.clear();
    actual.clear();
    ReferenceAppendEscaped(&expected, s);
    AppendJsonString(&actual, s);
    ASSERT_EQ(actual, expected);
  }
  // Every single byte, escaped or copied.
  for (int c = 0; c < 256; ++c) {
    const std::string s(1, static_cast<char>(c));
    std::string expected, actual;
    ReferenceAppendEscaped(&expected, s);
    AppendJsonString(&actual, s);
    EXPECT_EQ(actual, expected) << "byte " << c;
  }
}

TEST(ResponseWriterTest, SeededRepliesMatchTheTreeAndResponseJson) {
  Rng rng(16);
  for (int i = 0; i < 3000; ++i) {
    const std::string app = EdgyString(rng);
    service::RecommendResponse response = EdgyResponse(rng);
    const std::string body = ResponseBody(app, response);
    ASSERT_EQ(body, TreeResponseJson(app, response).Dump()) << "case " << i;
    ASSERT_EQ(body, ResponseJson(app, response).Dump()) << "case " << i;

    // Spliced from the service's encoding: the same bytes.
    response.recommendations_json = std::make_shared<const std::string>(
        service::EncodeRecommendationsJson(*response.recommendations));
    ASSERT_EQ(ResponseBody(app, response), body) << "case " << i;

    // Appending continues whatever the buffer already holds.
    std::string appended = "[1,";
    AppendResponseJson(&appended, app, response);
    ASSERT_EQ(appended, "[1," + body);
  }
}

TEST(ResponseWriterTest, EdgeValuesPrintAsTheTreeDid) {
  std::vector<core::Recommendation> recs(1);
  recs[0].schedule_id = 7;
  recs[0].plan.ops = {minispark::CacheOp::Persist(1),
                      minispark::CacheOp::Unpersist(1)};
  recs[0].predicted_bytes = std::numeric_limits<double>::quiet_NaN();
  recs[0].machines = 3;
  recs[0].predicted_time_ms = -0.0;
  recs[0].predicted_cost_machine_min = kTwo53;
  recs[0].objective_score = -HUGE_VAL;
  service::RecommendResponse response;
  response.recommendations =
      std::make_shared<const std::vector<core::Recommendation>>(recs);
  response.cache_hit = true;
  response.model_version = std::numeric_limits<uint64_t>::max();

  const std::string app = "q\"b\\s\n\x01";
  const std::string body = ResponseBody(app, response);
  EXPECT_EQ(body,
            "{\"app\":\"q\\\"b\\\\s\\n\\u0001\",\"cache_hit\":true,"
            "\"model_version\":18446744073709551616,\"recommendations\":["
            "{\"schedule_id\":7,\"plan\":\"p(1) u(1)\","
            "\"predicted_bytes\":null,\"machines\":3,"
            "\"predicted_time_ms\":0,"
            "\"predicted_cost_machine_min\":9007199254740992,"
            "\"objective_score\":null}]}");
  EXPECT_EQ(body, TreeResponseJson(app, response).Dump());

  // An empty list and cache_hit false.
  response.recommendations =
      std::make_shared<const std::vector<core::Recommendation>>();
  response.cache_hit = false;
  response.model_version = 1;
  EXPECT_EQ(ResponseBody("svm", response),
            "{\"app\":\"svm\",\"cache_hit\":false,\"model_version\":1,"
            "\"recommendations\":[]}");
  EXPECT_EQ(ResponseBody("svm", response),
            TreeResponseJson("svm", response).Dump());
}

// ---------------------------------------------------------------------------
// Batch bodies, end to end through HttpRecommendServer.

const core::TrainedJuggler& SvmModel() {
  static const core::TrainedJuggler* const model = [] {
    const auto w = workloads::GetWorkload("svm").value();
    core::JugglerConfig config;
    config.time_grid = core::TrainingGrid{{4000, 8000, 16000},
                                          {1000, 2000, 4000},
                                          /*iterations=*/5};
    config.memory_reference = w.paper_params;
    config.run_options.noise_sigma = 0.0;
    config.run_options.straggler_prob = 0.0;
    auto training = core::TrainJuggler("svm", w.make, config);
    EXPECT_TRUE(training.ok()) << training.status().ToString();
    return new core::TrainedJuggler(std::move(training)->trained);
  }();
  return *model;
}

struct Stack {
  std::shared_ptr<service::ModelRegistry> registry;
  std::shared_ptr<service::RecommendationService> service;
  std::unique_ptr<HttpRecommendServer> server;

  explicit Stack(const std::string& name) {
    const fs::path dir = fs::path(testing::TempDir()) / ("codec_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      std::ofstream out(dir / "svm.model");
      EXPECT_TRUE(core::SaveTrainedJuggler(SvmModel(), out).ok());
    }
    registry = std::make_shared<service::ModelRegistry>(dir.string());
    EXPECT_TRUE(registry->Refresh().ok());
    service = std::make_shared<service::RecommendationService>(
        registry, service::RecommendationService::Options{});
    server = std::make_unique<HttpRecommendServer>(
        registry, service, HttpRecommendServer::Options{});
  }
};

/// The batch body as it was built before: one tree, dumped once.
std::string TreeBatchBody(
    const std::vector<service::RecommendRequest>& requests,
    const std::vector<StatusOr<service::RecommendResponse>>& responses) {
  Json results = Json::Arr();
  for (size_t i = 0; i < responses.size(); ++i) {
    results.Append(responses[i].ok()
                       ? TreeResponseJson(requests[i].app, *responses[i])
                       : ErrorJson(responses[i].status()));
  }
  return Json::Obj().Set("results", std::move(results)).Dump();
}

TEST(ResponseWriterTest, BatchBodyEqualsTheTreeBuiltBody) {
  // Three keys (one differs only by its objective), a duplicate and an
  // unknown app.
  const std::string svm = R"({"app":"svm","params":{"examples":12000,)"
                          R"("features":3000,"iterations":5}})";
  const std::string other = R"({"app":"svm","params":{"examples":9000,)"
                            R"("features":2500,"iterations":5})";
  const std::string slots[] = {
      svm, R"({"app":"nope","params":{"examples":100,"features":10}})",
      other + "}", svm,
      other + R"(,"objective":{"cost":1,"p99_latency":0.5}})"};
  std::string body = R"({"requests":[)";
  std::vector<service::RecommendRequest> requests;
  for (const std::string& slot : slots) {
    if (!requests.empty()) body.push_back(',');
    body += slot;
    auto parsed = ParseRecommendRequest(Json::Parse(slot).value());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    requests.push_back(std::move(parsed).value());
  }
  body += "]}";

  // Two stacks over the same model: one answers through the server, the
  // other's service feeds the tree-built reference. Cold first, then warm.
  Stack served("batch_served");
  Stack reference("batch_reference");
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/recommend";
  request.version = "HTTP/1.1";
  request.body = body;
  for (const char* phase : {"cold", "warm"}) {
    const HttpResponse response = served.server->Handle(request);
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.body,
              TreeBatchBody(requests,
                            reference.service->RecommendBatch(requests)))
        << phase;
  }
  EXPECT_EQ(served.service->GetStats().evaluations, 3u);
}

}  // namespace
}  // namespace juggler::net
