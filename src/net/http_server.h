#ifndef JUGGLER_NET_HTTP_SERVER_H_
#define JUGGLER_NET_HTTP_SERVER_H_

#include <cstddef>
#include <string>

#include "common/lock_diag.h"
#include "net/http.h"
#include "net/loop_server.h"

namespace juggler::net {

/// \brief The HTTP/1.1 side of LoopServer (see the codec contract there).
/// Replies honour the request's keep-alive. A full dispatch queue answers
/// 503 with Retry-After; a protocol error 400/413/501 and a stalled request
/// 408, each followed by a close (the framing is lost).
struct HttpCodec {
  using Decoder = HttpParser;
  using Request = HttpRequest;
  using Response = HttpResponse;
  using Reply = bool;  ///< Keep-alive of the request being answered.
  static constexpr Reply kNoRequest = false;
  static constexpr const char* kLockClass = "net.HttpServer.completions";
  static constexpr int kLockRank = lockdiag::kRankNet;

  static HttpRequest& RequestOf(HttpParser::Result& result) {
    return result.request;
  }
  static bool ReplyFor(const HttpRequest& request) {
    return request.KeepAlive();
  }
  static bool KeepAlive(bool keep_alive) { return keep_alive; }
  static bool AnswerInline(HttpRequest&, std::string*) { return false; }

  /// Flood guard: stop reading from a connection whose parse buffer already
  /// holds this much beyond one maximal request (pipelining stays allowed,
  /// an unbounded pile-up does not).
  static size_t ReadPauseThreshold(const HttpParser::Limits& limits) {
    return limits.max_header_bytes + limits.max_body_bytes + 4096;
  }

  static void AppendResponse(const HttpResponse& response, bool keep_alive,
                             std::string* out) {
    AppendSerializedResponse(response, keep_alive, out);
  }
  static void AppendOverload(bool keep_alive, std::string* out) {
    HttpResponse response =
        HttpResponse::Text(503, "server overloaded; retry with backoff\n");
    response.headers.emplace_back("Retry-After", "1");
    AppendResponse(response, keep_alive, out);
  }
  static void AppendParseError(const HttpParser::Result& result,
                               std::string* out) {
    AppendResponse(
        HttpResponse::Text(result.error_status, result.error_detail + "\n"),
        /*keep_alive=*/false, out);
  }
  static void AppendReadTimeout(std::string* out) {
    AppendResponse(HttpResponse::Text(408, "request header read timeout\n"),
                   /*keep_alive=*/false, out);
  }
};

extern template class LoopServer<HttpCodec>;

/// Non-blocking HTTP front end: one event-loop thread plus a bounded handler
/// pool (LoopServer), answering with HttpCodec's replies.
using HttpServer = LoopServer<HttpCodec>;

}  // namespace juggler::net

#endif  // JUGGLER_NET_HTTP_SERVER_H_
