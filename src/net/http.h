#ifndef JUGGLER_NET_HTTP_H_
#define JUGGLER_NET_HTTP_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace juggler::net {

/// \brief One parsed HTTP/1.x request.
struct HttpRequest {
  std::string method;   ///< Uppercase token, e.g. "GET".
  std::string target;   ///< Request target as sent, e.g. "/v1/recommend?x=1".
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1".
  /// Headers in wire order; names as sent (matching is case-insensitive).
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header value whose name equals `name` case-insensitively, or
  /// nullptr.
  const std::string* FindHeader(const std::string& name) const;

  /// Request target without the query string ("/v1/apps?x=1" -> "/v1/apps").
  std::string Path() const;

  /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; a Connection header
  /// of "close" / "keep-alive" overrides either way.
  bool KeepAlive() const;
};

/// \brief An HTTP response under construction; serialized by
/// SerializeResponse().
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  /// Extra headers (e.g. Retry-After, Allow). Content-Length, Content-Type
  /// and Connection are emitted by the serializer — do not add them here.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  static HttpResponse Text(int status, std::string body);
  static HttpResponse JsonBody(int status, std::string json);
};

/// Reason phrase for the status codes this server emits ("Unknown" for the
/// rest — still a valid response line).
const char* StatusReason(int status);

/// Appends `response` to `out` as an HTTP/1.1 response with an explicit
/// Content-Length and a Connection header matching `keep_alive`. Writes
/// straight into `out` (a connection's output buffer), with no temporary.
void AppendSerializedResponse(const HttpResponse& response, bool keep_alive,
                              std::string* out);

/// AppendSerializedResponse() into a fresh string.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// \brief Incremental HTTP/1.1 request parser for one connection.
///
/// Feed bytes as they arrive with Append(); pull complete requests with
/// Next(). The parser owns the connection's input buffer, so pipelined
/// requests (several requests in one TCP segment) simply queue up: each
/// Next() consumes exactly one.
///
/// Scope — what a minimal-but-correct origin server needs, and nothing more:
///  - request line + headers, strict CRLF line endings;
///  - bodies via Content-Length or Transfer-Encoding: chunked (decoded with
///    bounded size lines, bounded trailers, and a cap on the encoded stream
///    so a trickle of 1-byte chunks cannot park below the flood guard); any
///    other Transfer-Encoding is rejected with 501 rather than mis-framed,
///    and TE + Content-Length together is a 400 (request smuggling vector);
///  - size limits: header section and body are each capped, oversize input
///    yields 413 without buffering the flood;
///  - malformed input yields 400 with a one-line reason; the connection
///    should then be closed (framing is unrecoverable after a parse error).
class HttpParser {
 public:
  struct Limits {
    size_t max_header_bytes = 64 * 1024;
    size_t max_body_bytes = 1 << 20;
  };

  enum class State {
    kNeedMore,  ///< Incomplete request buffered; feed more bytes.
    kReady,     ///< `request` is complete.
    kError,     ///< Protocol error; respond with `error_status` and close.
  };

  struct Result {
    State state = State::kNeedMore;
    HttpRequest request;       ///< Valid when state == kReady.
    int error_status = 0;      ///< 400/413/501 when state == kError.
    std::string error_detail;  ///< One-line human-readable reason.
  };

  explicit HttpParser(const Limits& limits) : limits_(limits) {}

  /// Buffers incoming bytes. After a protocol error the parser is poisoned
  /// and Append() drops everything: the connection must close, so buffering
  /// the rest of a hostile stream would be unbounded memory growth for
  /// bytes nobody will ever parse.
  void Append(const char* data, size_t size) {
    if (failed_) return;
    buffer_.append(data, size);
  }

  /// Extracts the next complete request from the buffer, if any. After
  /// kError the parser is poisoned: framing is lost, every further Next()
  /// reports the same error.
  Result Next();

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  Result Fail(int status, std::string detail);

  /// Decodes a Transfer-Encoding: chunked body starting at `body_start` in
  /// the buffer. Consumes through the trailer section on success.
  Result NextChunked(HttpRequest request, size_t body_start);

  Limits limits_;
  std::string buffer_;
  bool failed_ = false;
  int failed_status_ = 0;
  std::string failed_detail_;
};

}  // namespace juggler::net

#endif  // JUGGLER_NET_HTTP_H_
