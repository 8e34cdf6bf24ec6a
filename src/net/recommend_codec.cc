#include "net/recommend_codec.h"

#include <cassert>
#include <cstdint>
#include <utility>

#include "common/json_text.h"
#include "common/parse.h"
#include "common/units.h"
#include "minispark/cluster.h"

namespace juggler::net {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kAborted:
      return "ABORTED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

StatusCode CodeFromName(const std::string& name) {
  if (name == "OK") return StatusCode::kOk;
  if (name == "INVALID_ARGUMENT") return StatusCode::kInvalidArgument;
  if (name == "NOT_FOUND") return StatusCode::kNotFound;
  if (name == "OUT_OF_RANGE") return StatusCode::kOutOfRange;
  if (name == "FAILED_PRECONDITION") return StatusCode::kFailedPrecondition;
  if (name == "RESOURCE_EXHAUSTED") return StatusCode::kResourceExhausted;
  if (name == "ABORTED") return StatusCode::kAborted;
  if (name == "UNAVAILABLE") return StatusCode::kUnavailable;
  return StatusCode::kInternal;
}

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kUnavailable:
      return 503;  // Transient: full queue / not ready. Retry with backoff.
    default:
      return 500;
  }
}

Json ErrorJson(const Status& status) {
  Json error = Json::Obj();
  error.Set("code", Json::Str(CodeName(status.code())))
      .Set("message", Json::Str(status.message()));
  return Json::Obj().Set("error", std::move(error));
}

Status StatusFromErrorJson(const std::string& payload) {
  auto json = Json::Parse(payload);
  if (json.ok() && json->is_object()) {
    if (const Json* error = json->Find("error");
        error != nullptr && error->is_object()) {
      const StatusCode code = CodeFromName(error->StringOr("code", ""));
      const std::string message = error->StringOr("message", "");
      if (code != StatusCode::kOk && !message.empty()) {
        return Status(code, message);
      }
    }
  }
  return Status::Internal("malformed error payload: " + payload);
}

StatusOr<service::RecommendRequest> ParseRecommendRequest(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  service::RecommendRequest request;
  const Json* app = json.Find("app");
  if (app == nullptr || !app->is_string() || app->string_value().empty()) {
    return Status::InvalidArgument("missing required string field 'app'");
  }
  request.app = app->string_value();

  const Json* params = json.Find("params");
  if (params == nullptr || !params->is_object()) {
    return Status::InvalidArgument("missing required object field 'params'");
  }
  const Json* examples = params->Find("examples");
  const Json* features = params->Find("features");
  if (examples == nullptr || !examples->is_number() ||
      examples->number_value() <= 0.0) {
    return Status::InvalidArgument("'params.examples' must be a number > 0");
  }
  if (features == nullptr || !features->is_number() ||
      features->number_value() <= 0.0) {
    return Status::InvalidArgument("'params.features' must be a number > 0");
  }
  request.params.examples = examples->number_value();
  request.params.features = features->number_value();
  const double iterations = params->NumberOr("iterations", 1.0);
  if (iterations < 1.0 || iterations > 1e9) {
    return Status::InvalidArgument("'params.iterations' must be in [1, 1e9]");
  }
  request.params.iterations = static_cast<int>(iterations);

  // Machine type: the paper's private-cluster node unless overridden.
  request.machine_type = minispark::PaperCluster(1);
  double machine_gb = 12.0;
  if (const Json* machine = json.Find("machine"); machine != nullptr) {
    if (!machine->is_object()) {
      return Status::InvalidArgument("'machine' must be an object");
    }
    machine_gb = machine->NumberOr("machine_gb", machine_gb);
    if (machine_gb <= 0.0) {
      return Status::InvalidArgument("'machine.machine_gb' must be > 0");
    }
  }
  request.machine_type.executor_memory_bytes = GiB(machine_gb);

  // Multi-objective weights. Omitted -> classic cost-only ordering. When the
  // object is present, every omitted weight is 0 — "optimize what you name".
  if (const Json* objective = json.Find("objective"); objective != nullptr) {
    if (!objective->is_object()) {
      return Status::InvalidArgument("'objective' must be an object");
    }
    core::Objective weights{0.0, 0.0, 0.0};
    struct Field {
      const char* name;
      double* value;
    };
    const Field fields[] = {{"cost", &weights.cost},
                            {"p99_latency", &weights.p99_latency},
                            {"memory", &weights.memory}};
    for (const Field& field : fields) {
      if (const Json* value = objective->Find(field.name); value != nullptr) {
        if (!value->is_number()) {
          return Status::InvalidArgument(std::string("'objective.") +
                                         field.name + "' must be a number");
        }
        *field.value = value->number_value();
      }
    }
    JUGGLER_RETURN_IF_ERROR(weights.Validate());
    request.objective = weights;
  }
  return request;
}

void AppendResponseJson(std::string* out, const std::string& app,
                        const service::RecommendResponse& response) {
  std::string encoded;
  const std::string* recommendations = response.recommendations_json.get();
  if (recommendations == nullptr) {
    encoded = service::EncodeRecommendationsJson(*response.recommendations);
    recommendations = &encoded;
  }
  out->reserve(out->size() + app.size() + recommendations->size() + 96);
  out->append("{\"app\":");
  AppendJsonString(out, app);
  out->append(response.cache_hit ? ",\"cache_hit\":true"
                                 : ",\"cache_hit\":false");
  out->append(",\"model_version\":");
  AppendJsonNumber(out, static_cast<double>(response.model_version));
  out->append(",\"recommendations\":");
  out->append(*recommendations);
  out->push_back('}');
}

std::string ResponseBody(const std::string& app,
                         const service::RecommendResponse& response) {
  std::string out;
  AppendResponseJson(&out, app, response);
  return out;
}

Json ResponseJson(const std::string& app,
                  const service::RecommendResponse& response) {
  // The writer's output is always one valid document (every string is
  // escaped, every number finite or null), so the parse cannot fail.
  auto parsed = Json::Parse(ResponseBody(app, response));
  assert(parsed.ok());
  return parsed.ok() ? std::move(parsed).value() : Json();
}

StatusOr<std::vector<online::Observation>> ParseObservationsJson(
    const Json& json) {
  if (!json.is_array()) {
    return Status::InvalidArgument("observations must be a JSON array");
  }
  std::vector<online::Observation> out;
  out.reserve(json.array_items().size());
  for (size_t i = 0; i < json.array_items().size(); ++i) {
    const Json& record = json.array_items()[i];
    const std::string at = "observation " + std::to_string(i);
    if (!record.is_object()) {
      return Status::InvalidArgument(at + " must be an object");
    }
    online::Observation o;
    const std::string kind = record.StringOr("kind", "");
    if (kind == "run_time") {
      o.kind = online::ObservationKind::kRunTime;
    } else if (kind == "dataset_size") {
      o.kind = online::ObservationKind::kDatasetSize;
    } else if (kind == "serve_latency") {
      o.kind = online::ObservationKind::kServeLatency;
    } else {
      return Status::InvalidArgument(
          at + ": 'kind' must be run_time, dataset_size, or serve_latency");
    }
    o.app = record.StringOr("app", "");
    if (o.app.empty() || o.app.size() > online::kMaxAppBytes) {
      return Status::InvalidArgument(at + ": 'app' must be a string of 1.." +
                                     std::to_string(online::kMaxAppBytes) +
                                     " bytes");
    }
    // NumberOr yields an arbitrary double (1e30, -1e30, NaN all reach
    // here); converting out-of-range doubles with static_cast is undefined
    // behavior, so every conversion below goes through a checked helper.
    const double target = record.NumberOr("target", 0.0);
    int32_t target32 = 0;
    if (!DoubleToInt32(target, &target32)) {
      return Status::InvalidArgument(at +
                                     ": 'target' must be a 32-bit integer");
    }
    o.target = target32;
    const double model_version = record.NumberOr("model_version", 0.0);
    uint64_t model_version64 = 0;
    if (!DoubleToUint64(model_version, &model_version64)) {
      return Status::InvalidArgument(
          at + ": 'model_version' must be a non-negative integer");
    }
    o.model_version = model_version64;
    const Json* params = record.Find("params");
    if (params == nullptr || !params->is_object()) {
      return Status::InvalidArgument(at +
                                     ": missing object field 'params'");
    }
    o.params.examples = params->NumberOr("examples", 0.0);
    o.params.features = params->NumberOr("features", 0.0);
    const double iterations = params->NumberOr("iterations", 1.0);
    int32_t iterations32 = 0;
    if (!DoubleToInt32(iterations, &iterations32) || iterations32 < 0) {
      return Status::InvalidArgument(
          at + ": 'params.iterations' must be an integer >= 0");
    }
    o.params.iterations = iterations32;
    if (o.params.examples <= 0.0 || o.params.features <= 0.0) {
      return Status::InvalidArgument(
          at + ": 'params.examples'/'params.features' must be > 0");
    }
    const Json* value = record.Find("value");
    if (value == nullptr || !value->is_number() ||
        value->number_value() < 0.0) {
      return Status::InvalidArgument(at +
                                     ": 'value' must be a number >= 0");
    }
    o.value = value->number_value();
    o.predicted = record.NumberOr("predicted", 0.0);
    if (o.predicted < 0.0) {
      return Status::InvalidArgument(at + ": 'predicted' must be >= 0");
    }
    out.push_back(std::move(o));
  }
  return out;
}

HttpResponse ErrorResponse(const Status& status) {
  const int http_status = HttpStatusFor(status.code());
  HttpResponse response =
      HttpResponse::JsonBody(http_status, ErrorJson(status).Dump());
  if (http_status == 503) {
    response.headers.emplace_back("Retry-After", "1");
  }
  return response;
}

}  // namespace juggler::net
