#ifndef JUGGLER_RPC_RPC_SERVER_H_
#define JUGGLER_RPC_RPC_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/lock_diag.h"
#include "net/loop_server.h"
#include "rpc/frame.h"

namespace juggler::rpc {

/// \brief The JRPC side of net::LoopServer (see the codec contract there).
///
/// Protocol behavior:
///  - kPing is answered inline on the loop thread, ahead of the FastHandler
///    (health probes must not queue behind model evaluations);
///  - every other reply (FastHandler or pool) carries the request's id, and
///    the connection stays open after it;
///  - a full dispatch queue answers kError with `kOverloadPayload` and the
///    request's id immediately — bounded queues shed at the edge, never park
///    unboundedly;
///  - a framing error or a stalled partial frame sends one kError frame
///    (request id 0: the broken stream no longer identifies a request) and
///    closes the connection.
struct RpcCodec {
  using Decoder = FrameDecoder;
  using Request = RpcFrame;
  using Response = RpcFrame;
  using Reply = uint64_t;  ///< Id of the request being answered.
  static constexpr Reply kNoRequest = 0;
  static constexpr const char* kLockClass = "rpc.RpcServer.completions";
  static constexpr int kLockRank = lockdiag::kRankRpc;

  /// Payload of the kError frame sent on overload. The cluster tier keeps
  /// the HTTP API's error JSON shape so the router can map it back to a
  /// Status (RESOURCE_EXHAUSTED -> 503 + Retry-After at the HTTP edge).
  static constexpr const char* kOverloadPayload =
      "{\"error\":{\"code\":\"RESOURCE_EXHAUSTED\","
      "\"message\":\"rpc server overloaded; retry with backoff\"}}";

  static RpcFrame& RequestOf(FrameDecoder::Result& result) {
    return result.frame;
  }
  static uint64_t ReplyFor(const RpcFrame& request) {
    return request.request_id;
  }
  static bool KeepAlive(uint64_t) { return true; }

  /// Turns a kPing into its kPong in place: same id, payload echoed.
  static bool AnswerInline(RpcFrame& request, std::string* out) {
    if (request.type != FrameType::kPing) return false;
    request.type = FrameType::kPong;
    AppendFrame(request, out);
    return true;
  }

  /// Flood guard: stop reading from a connection whose decode buffer already
  /// holds more than one maximal frame beyond the in-flight one (pipelined
  /// frames stay allowed, an unbounded pile-up does not).
  static size_t ReadPauseThreshold(const FrameDecoder::Limits& limits) {
    return limits.max_payload_bytes + 2 * kFrameHeaderBytes + 4096;
  }

  static void AppendResponse(RpcFrame& response, uint64_t request_id,
                             std::string* out) {
    response.request_id = request_id;
    AppendFrame(response, out);
  }
  static void AppendOverload(uint64_t request_id, std::string* out) {
    AppendError(request_id, kOverloadPayload, out);
  }
  static void AppendParseError(const FrameDecoder::Result& result,
                               std::string* out) {
    AppendError(kNoRequest,
                "{\"error\":{\"code\":\"INVALID_ARGUMENT\",\"message\":\"" +
                    result.error_detail + "\"}}",
                out);
  }
  static void AppendReadTimeout(std::string* out) {
    AppendError(kNoRequest,
                "{\"error\":{\"code\":\"ABORTED\","
                "\"message\":\"frame read timeout\"}}",
                out);
  }

 private:
  static void AppendError(uint64_t request_id, std::string payload,
                          std::string* out) {
    AppendFrame(RpcFrame{FrameType::kError, request_id, std::move(payload)},
                out);
  }
};

/// Non-blocking JRPC server: the HTTP edge's event loop and handler pool
/// (net::LoopServer), speaking binary frames.
using RpcServer = net::LoopServer<RpcCodec>;

}  // namespace juggler::rpc

extern template class juggler::net::LoopServer<juggler::rpc::RpcCodec>;

#endif  // JUGGLER_RPC_RPC_SERVER_H_
