#ifndef JUGGLER_RPC_RPC_CHANNEL_H_
#define JUGGLER_RPC_RPC_CHANNEL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "net/poller.h"
#include "net/reactor.h"
#include "rpc/frame.h"
#include "rpc/rpc_client.h"

namespace juggler::rpc {

/// \brief Non-blocking JRPC client connection driven by an event loop
/// (`net::Reactor`): the asynchronous counterpart of RpcClient, with the
/// same failure model and one call in flight.
///
/// Everything runs on the loop thread: Call() dials if the channel is
/// closed (non-blocking connect), writes the frame as the socket takes it,
/// and the reply callback runs when the matching frame has arrived. The
/// owner's tick calls CheckDeadline(): `connect_timeout_ms` bounds the dial
/// and `call_timeout_ms` the rest (send + wait + receive). Any transport
/// problem — refused dial, deadline, peer close, framing, an id mismatch —
/// closes the connection and reaches the callback as a non-OK Status
/// (kAborted for deadlines, kInternal otherwise); a kError frame is an OK
/// result, exactly as with RpcClient. An idle channel the peer closes (say,
/// the shard's idle sweep) just closes; the next Call() dials again.
class RpcChannel : private net::Reactor::Watcher {
 public:
  using Callback = std::function<void(StatusOr<RpcFrame>)>;
  using Clock = std::chrono::steady_clock;

  /// `loop` must outlive the channel. Only the address, timeouts and limits
  /// of `options` are used.
  RpcChannel(net::Reactor* loop, const RpcClient::Options& options);
  ~RpcChannel();

  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  /// Loop thread; requires !busy(). `done` runs exactly once, on the loop
  /// thread and never inside Call(), after the channel is ready for the
  /// next Call() (idle on success, closed on failure).
  void Call(FrameType type, const std::string& payload, Callback done);

  /// Loop thread: fails the call in flight if its deadline has passed.
  void CheckDeadline(Clock::time_point now);

  /// Loop thread: closes the connection; a call in flight fails with
  /// kUnavailable.
  void Close();

  bool busy() const { return done_ != nullptr; }
  bool open() const { return fd_ >= 0; }

 private:
  void OnEvent(const net::Poller::Event& event) override;
  /// Writes what the socket takes; false when that failed the call.
  bool Flush();
  /// Reads and decodes; `error`: the poller flagged the socket.
  void ReadReply(bool error);
  void CloseSocket();
  /// Closes the connection and hands `status` to the call in flight.
  void Fail(Status status);
  /// Hands `result` to the call in flight (queued while inside Call()).
  void Finish(StatusOr<RpcFrame> result);
  void SyncInterest();
  std::string Peer() const;

  net::Reactor* const loop_;
  const RpcClient::Options options_;
  int fd_ = -1;
  bool connecting_ = false;
  bool in_call_ = false;     ///< Call() is on the stack.
  bool want_read_ = false;   ///< Read interest registered.
  bool want_write_ = false;  ///< Write interest registered.
  uint64_t next_request_id_ = 1;
  uint64_t request_id_ = 0;  ///< Of the call in flight.
  std::string out_;          ///< Frame bytes not yet written.
  FrameDecoder decoder_;
  Clock::time_point deadline_{};
  Callback done_;
};

}  // namespace juggler::rpc

#endif  // JUGGLER_RPC_RPC_CHANNEL_H_
