#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>

#include "common/parse.h"

namespace juggler::net {

namespace {

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && (s[begin] == ' ' || s[begin] == '\t')) ++begin;
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t')) --end;
  return s.substr(begin, end - begin);
}

bool IsTokenChar(char c) {
  // RFC 7230 token characters (the ones that matter for methods/headers).
  return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
         c == '!' || c == '#' || c == '$' || c == '%' || c == '&' ||
         c == '\'' || c == '*' || c == '+' || c == '-' || c == '.' ||
         c == '^' || c == '_' || c == '`' || c == '|' || c == '~';
}

bool IsValidToken(const std::string& s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), IsTokenChar);
}

/// Content-Length grammar is 1*DIGIT: no sign, no whitespace, no hex.
/// A value that is digits but does not fit uint64_t is distinguished from
/// a malformed one so the caller can answer 413 (too large) vs 400 (junk).
enum class ContentLengthParse { kOk, kMalformed, kOverflow };

ContentLengthParse ParseContentLength(const std::string& value, size_t* out) {
  if (value.empty()) return ContentLengthParse::kMalformed;
  for (const char c : value) {
    if (c < '0' || c > '9') return ContentLengthParse::kMalformed;
  }
  uint64_t parsed = 0;
  if (!ParseUnsigned(value, &parsed)) return ContentLengthParse::kOverflow;
  // uint64_t -> size_t is lossless on every supported (64-bit) target, and
  // ParseUnsigned already rejected values that overflow uint64_t.
  *out = static_cast<size_t>(parsed);  // NOLINT(analyze-narrowing): lossless.
  return ContentLengthParse::kOk;
}

/// At most the first 40 bytes of `s`, for echoing attacker-controlled text
/// into one-line error details without amplifying it.
std::string Snippet(const std::string& s) {
  constexpr size_t kMax = 40;
  return s.size() <= kMax ? s : s.substr(0, kMax) + "...";
}

/// Chunk-size grammar is 1*HEXDIG (extensions already stripped). 16 digits
/// bound the value to uint64_t without an overflow branch per digit.
bool ParseChunkSize(const std::string& line, uint64_t* out) {
  if (line.empty() || line.size() > 16) return false;
  uint64_t value = 0;
  for (const char c : line) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = value * 16 + static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& [header_name, value] : headers) {
    if (EqualsIgnoreCase(header_name, name)) return &value;
  }
  return nullptr;
}

std::string HttpRequest::Path() const {
  const size_t query = target.find('?');
  return query == std::string::npos ? target : target.substr(0, query);
}

bool HttpRequest::KeepAlive() const {
  if (const std::string* connection = FindHeader("Connection")) {
    if (EqualsIgnoreCase(*connection, "close")) return false;
    if (EqualsIgnoreCase(*connection, "keep-alive")) return true;
  }
  return version == "HTTP/1.1";
}

HttpResponse HttpResponse::Text(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::JsonBody(int status, std::string json) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(json);
  return response;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

void AppendSerializedResponse(const HttpResponse& response, bool keep_alive,
                              std::string* out) {
  char number[24];
  out->reserve(out->size() + 128 + response.body.size());
  out->append("HTTP/1.1 ");
  out->append(number,
              std::to_chars(number, number + sizeof(number), response.status)
                  .ptr);
  out->push_back(' ');
  out->append(StatusReason(response.status));
  out->append("\r\n");
  out->append("Content-Type: ").append(response.content_type).append("\r\n");
  out->append("Content-Length: ");
  out->append(number, std::to_chars(number, number + sizeof(number),
                                    response.body.size())
                          .ptr);
  out->append("\r\n");
  out->append("Connection: ")
      .append(keep_alive ? "keep-alive" : "close")
      .append("\r\n");
  for (const auto& [name, value] : response.headers) {
    out->append(name).append(": ").append(value).append("\r\n");
  }
  out->append("\r\n");
  out->append(response.body);
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  AppendSerializedResponse(response, keep_alive, &out);
  return out;
}

HttpParser::Result HttpParser::Fail(int status, std::string detail) {
  failed_ = true;
  failed_status_ = status;
  failed_detail_ = detail;
  buffer_.clear();  // Framing is lost; drop whatever was buffered.
  Result result;
  result.state = State::kError;
  result.error_status = status;
  result.error_detail = std::move(detail);
  return result;
}

HttpParser::Result HttpParser::Next() {
  if (failed_) {
    Result result;
    result.state = State::kError;
    result.error_status = failed_status_;
    result.error_detail = failed_detail_;
    return result;
  }

  const size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (buffer_.size() > limits_.max_header_bytes) {
      return Fail(413, "header section exceeds " +
                           std::to_string(limits_.max_header_bytes) +
                           " bytes");
    }
    return Result{};  // kNeedMore
  }
  if (header_end > limits_.max_header_bytes) {
    return Fail(413, "header section exceeds " +
                         std::to_string(limits_.max_header_bytes) + " bytes");
  }

  // --- Request line ---------------------------------------------------------
  HttpRequest request;
  const size_t line_end = buffer_.find("\r\n");
  const std::string request_line = buffer_.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      request_line.find(' ', sp2 + 1) != std::string::npos) {
    return Fail(400, "malformed request line");
  }
  request.method = request_line.substr(0, sp1);
  request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  request.version = request_line.substr(sp2 + 1);
  if (!IsValidToken(request.method) || request.method.size() > 16) {
    return Fail(400, "invalid method token");
  }
  if (request.target.empty() || request.target[0] != '/') {
    return Fail(400, "request target must be origin-form (start with '/')");
  }
  if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
    return Fail(400,
                "unsupported HTTP version '" + Snippet(request.version) + "'");
  }

  // --- Header fields --------------------------------------------------------
  bool have_content_length = false;
  bool chunked = false;
  size_t content_length = 0;
  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t eol = buffer_.find("\r\n", pos);
    if (eol > header_end) eol = header_end;
    const std::string line = buffer_.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    if (line[0] == ' ' || line[0] == '\t') {
      return Fail(400, "obsolete header line folding is not supported");
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Fail(400, "header field without ':'");
    }
    std::string name = line.substr(0, colon);
    std::string value = Trim(line.substr(colon + 1));
    if (!IsValidToken(name)) return Fail(400, "invalid header field name");
    if (EqualsIgnoreCase(name, "Transfer-Encoding")) {
      // "chunked" alone is supported; any other coding (or a coding list)
      // would change the framing in ways we do not implement, so 501 rather
      // than mis-frame. A second TE header is a framing ambiguity: 400.
      if (chunked) return Fail(400, "duplicate Transfer-Encoding header");
      if (!EqualsIgnoreCase(value, "chunked")) {
        return Fail(501, "Transfer-Encoding '" + Snippet(value) +
                             "' is not supported; use 'chunked' or "
                             "Content-Length");
      }
      chunked = true;
    }
    if (EqualsIgnoreCase(name, "Content-Length")) {
      size_t parsed = 0;
      switch (ParseContentLength(value, &parsed)) {
        case ContentLengthParse::kMalformed:
          return Fail(400, "invalid Content-Length '" + Snippet(value) + "'");
        case ContentLengthParse::kOverflow:
          // A declared size beyond uint64_t is "too large", not junk: the
          // client framed a body we will never accept. Reject before any
          // body byte is buffered.
          return Fail(413, "Content-Length '" + Snippet(value) +
                               "' overflows; limit is " +
                               std::to_string(limits_.max_body_bytes));
        case ContentLengthParse::kOk:
          break;
      }
      if (have_content_length && parsed != content_length) {
        return Fail(400, "conflicting Content-Length headers");
      }
      if (parsed > limits_.max_body_bytes) {
        // Checked here — not after the header loop — so the 413 (and the
        // connection close that follows) happens before the flood of body
        // bytes is ever waited for or buffered.
        return Fail(413, "body of " + std::to_string(parsed) +
                             " bytes exceeds limit of " +
                             std::to_string(limits_.max_body_bytes));
      }
      have_content_length = true;
      content_length = parsed;
    }
    request.headers.emplace_back(std::move(name), std::move(value));
  }

  // --- Body -----------------------------------------------------------------
  const size_t body_start = header_end + 4;
  if (chunked) {
    if (have_content_length) {
      // RFC 7230 §3.3.3: the classic request-smuggling vector. Reject rather
      // than pick a winner.
      return Fail(400,
                  "both Transfer-Encoding and Content-Length present");
    }
    return NextChunked(std::move(request), body_start);
  }
  if (buffer_.size() < body_start + content_length) {
    return Result{};  // kNeedMore
  }
  request.body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);

  Result result;
  result.state = State::kReady;
  result.request = std::move(request);
  return result;
}

HttpParser::Result HttpParser::NextChunked(HttpRequest request,
                                           size_t body_start) {
  // Cap on the *encoded* stream, kept strictly below the server's read-pause
  // flood guard (max_header + max_body + 4096 buffered bytes): a client
  // dribbling 1-byte chunks must hit this 413 before the server ever stops
  // reading, or the connection would deadlock waiting for bytes that are
  // already refused. The overhead allowance also bounds size lines and
  // trailers, so no separate per-line limit can be gamed.
  const size_t max_encoded = limits_.max_body_bytes + 2048;
  const auto encoded_overflow = [&]() -> bool {
    return buffer_.size() - body_start > max_encoded;
  };

  std::string body;
  size_t pos = body_start;
  // Chunk data: <hex-size>[;ext]CRLF <bytes> CRLF ... 0CRLF
  for (;;) {
    const size_t eol = buffer_.find("\r\n", pos);
    if (eol == std::string::npos) {
      if (encoded_overflow()) {
        return Fail(413, "chunked body exceeds encoded limit of " +
                             std::to_string(max_encoded) + " bytes");
      }
      return Result{};  // kNeedMore
    }
    std::string size_line = buffer_.substr(pos, eol - pos);
    // Chunk extensions (";name=value") carry nothing we honor: strip and
    // discard. The spec allows BWS around ';' in practice; trim it.
    if (const size_t semi = size_line.find(';'); semi != std::string::npos) {
      size_line = size_line.substr(0, semi);
    }
    size_line = Trim(size_line);
    uint64_t chunk_size = 0;
    if (!ParseChunkSize(size_line, &chunk_size)) {
      return Fail(400, "invalid chunk size '" + Snippet(size_line) + "'");
    }
    if (chunk_size > limits_.max_body_bytes ||
        body.size() + chunk_size > limits_.max_body_bytes) {
      // Checked from the size line alone, before the chunk's bytes are
      // waited for (same policy as the Content-Length 413).
      return Fail(413, "chunked body exceeds limit of " +
                           std::to_string(limits_.max_body_bytes) + " bytes");
    }
    pos = eol + 2;
    if (chunk_size == 0) break;  // Last chunk; trailers follow.
    if (buffer_.size() < pos + chunk_size + 2) {
      if (encoded_overflow()) {
        return Fail(413, "chunked body exceeds encoded limit of " +
                             std::to_string(max_encoded) + " bytes");
      }
      return Result{};  // kNeedMore
    }
    body.append(buffer_, pos, static_cast<size_t>(chunk_size));
    if (buffer_[pos + chunk_size] != '\r' ||
        buffer_[pos + chunk_size + 1] != '\n') {
      return Fail(400, "chunk data not terminated by CRLF");
    }
    pos += chunk_size + 2;
  }

  // Trailer section: header-shaped lines we discard, ended by an empty line.
  for (;;) {
    const size_t eol = buffer_.find("\r\n", pos);
    if (eol == std::string::npos) {
      if (encoded_overflow()) {
        return Fail(413, "chunked body exceeds encoded limit of " +
                             std::to_string(max_encoded) + " bytes");
      }
      return Result{};  // kNeedMore
    }
    if (eol == pos) {  // Empty line: end of trailers, end of request.
      pos = eol + 2;
      break;
    }
    const std::string line = buffer_.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon == std::string::npos || !IsValidToken(line.substr(0, colon))) {
      return Fail(400, "malformed trailer field");
    }
    pos = eol + 2;
  }

  request.body = std::move(body);
  buffer_.erase(0, pos);
  Result result;
  result.state = State::kReady;
  result.request = std::move(request);
  return result;
}

}  // namespace juggler::net
