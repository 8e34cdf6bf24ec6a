#ifndef JUGGLER_NET_RECOMMEND_CODEC_H_
#define JUGGLER_NET_RECOMMEND_CODEC_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "net/http.h"
#include "net/json.h"
#include "online/observation.h"
#include "service/recommendation_service.h"

namespace juggler::net {

/// \brief The recommend API's JSON wire codec, shared by every edge that
/// speaks it: the HTTP front end (http_recommend_server), the RPC shard
/// backends (cluster::ShardServer) and the router (cluster::Router). One
/// parser, one serializer — a router can forward a shard's reply verbatim
/// because both ends agree on these exact shapes.

/// Canonical name of a status code ("INVALID_ARGUMENT", ...).
const char* CodeName(StatusCode code);

/// Inverse of CodeName(); kInternal for anything unrecognized (an unknown
/// code crossing the wire must still fail closed).
StatusCode CodeFromName(const std::string& name);

/// HTTP status for a Status code: InvalidArgument/OutOfRange -> 400,
/// NotFound -> 404, ResourceExhausted/FailedPrecondition -> 503,
/// everything else -> 500.
int HttpStatusFor(StatusCode code);

/// {"error":{"code":"...","message":"..."}}
Json ErrorJson(const Status& status);

/// Reconstructs a Status from an ErrorJson() document (the payload of a
/// kError RPC frame). Malformed documents become kInternal with the raw
/// payload quoted, so a corrupt shard reply is never mistaken for success.
Status StatusFromErrorJson(const std::string& payload);

/// Decodes the HTTP/RPC wire format into a service request:
///   {"app":"svm","params":{"examples":N,"features":N,"iterations":N},
///    "machine":{"machine_gb":G}}           // machine optional
StatusOr<service::RecommendRequest> ParseRecommendRequest(const Json& json);

/// Appends one recommend reply to `out`, written directly:
///   {"app":"svm","cache_hit":B,"model_version":N,"recommendations":[...]}
/// The recommendations array is spliced from `response.recommendations_json`
/// when the service encoded it, else encoded on the spot with
/// service::EncodeRecommendationsJson. Every serving path (HTTP singles and
/// batches, shard replies) answers through this writer, the one place the
/// reply's fields are named.
void AppendResponseJson(std::string* out, const std::string& app,
                        const service::RecommendResponse& response);

/// AppendResponseJson() into a fresh string: one recommend reply body.
std::string ResponseBody(const std::string& app,
                         const service::RecommendResponse& response);

/// The reply as a Json tree, parsed from ResponseBody(), so
/// `ResponseJson(app, r).Dump() == ResponseBody(app, r)`. For callers that
/// want to inspect a reply; no serving path builds one.
Json ResponseJson(const std::string& app,
                  const service::RecommendResponse& response);

/// Maps a Status to the HTTP response the API uses (HttpStatusFor + JSON
/// error body; 503 carries Retry-After).
HttpResponse ErrorResponse(const Status& status);

/// Decodes the JSON form of POST /v1/observe: a top-level array of
///   {"kind":"run_time"|"dataset_size"|"serve_latency","app":"svm",
///    "target":N,"params":{"examples":N,"features":N,"iterations":N},
///    "model_version":N,"value":N,"predicted":N}   // predicted optional
/// The HTTP edge re-encodes the result through the binary wire format before
/// buffering, so both ingestion paths exercise the same validation.
StatusOr<std::vector<online::Observation>> ParseObservationsJson(
    const Json& json);

}  // namespace juggler::net

#endif  // JUGGLER_NET_RECOMMEND_CODEC_H_
