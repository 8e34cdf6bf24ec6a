#include "rpc/rpc_channel.h"

#include <utility>

#include "net/socket_util.h"

namespace juggler::rpc {

RpcChannel::RpcChannel(net::Reactor* loop, const RpcClient::Options& options)
    : loop_(loop), options_(options), decoder_(options.limits) {}

RpcChannel::~RpcChannel() { Close(); }

std::string RpcChannel::Peer() const {
  return options_.host + ":" + std::to_string(options_.port);
}

void RpcChannel::Call(FrameType type, const std::string& payload,
                      Callback done) {
  done_ = std::move(done);
  request_id_ = next_request_id_++;
  out_.clear();
  AppendFrame(RpcFrame{type, request_id_, payload}, &out_);
  // Failures found before Call() returns reach the callback through the
  // loop's queue, never re-entrantly.
  in_call_ = true;
  if (fd_ < 0) {
    auto fd = net::StartConnect(options_.host, options_.port);
    if (!fd.ok()) {
      Fail(fd.status());
    } else if (Status watched = loop_->Watch(*fd, /*want_read=*/false,
                                             /*want_write=*/true, this);
               !watched.ok()) {
      net::CloseFd(*fd);
      Fail(watched);
    } else {
      fd_ = *fd;
      connecting_ = true;
      want_read_ = false;
      want_write_ = true;
      decoder_ = FrameDecoder(options_.limits);  // Fresh framing.
      deadline_ =
          Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);
    }
  } else {
    deadline_ =
        Clock::now() + std::chrono::milliseconds(options_.call_timeout_ms);
    Flush();
  }
  in_call_ = false;
}

void RpcChannel::CheckDeadline(Clock::time_point now) {
  if (!busy() || now <= deadline_) return;
  if (connecting_) {
    Fail(Status::Aborted("connect " + Peer() + " timed out after " +
                         std::to_string(options_.connect_timeout_ms) + " ms"));
  } else {
    Fail(Status::Aborted("rpc call to " + Peer() + " timed out after " +
                         std::to_string(options_.call_timeout_ms) + " ms"));
  }
}

void RpcChannel::Close() {
  CloseSocket();
  if (busy()) Finish(Status::Unavailable("rpc channel to " + Peer() + " closed"));
}

void RpcChannel::CloseSocket() {
  if (fd_ < 0) return;
  loop_->Unwatch(fd_);
  net::CloseFd(fd_);
  fd_ = -1;
  connecting_ = false;
  out_.clear();
}

void RpcChannel::OnEvent(const net::Poller::Event& event) {
  if (connecting_) {
    if (!event.writable && !event.error) return;
    if (Status connected = net::ConnectError(fd_); !connected.ok()) {
      Fail(Status::Internal("connect " + Peer() + ": " + connected.message()));
      return;
    }
    connecting_ = false;
    deadline_ =
        Clock::now() + std::chrono::milliseconds(options_.call_timeout_ms);
    Flush();
    return;  // No reply before the request is out.
  }
  if (event.writable && !out_.empty() && !Flush()) return;
  if (event.readable || event.error) ReadReply(event.error);
}

bool RpcChannel::Flush() {
  size_t written = 0;
  while (written < out_.size()) {
    auto n = net::WriteSome(fd_, out_.data() + written, out_.size() - written);
    if (!n.ok()) {
      Fail(n.status());
      return false;
    }
    if (*n < 0) break;  // Socket buffer full: wait for writability.
    written += static_cast<size_t>(*n);
  }
  out_.erase(0, written);
  SyncInterest();
  return true;
}

void RpcChannel::ReadReply(bool error) {
  char buffer[16384];
  bool eof = false;
  for (;;) {
    auto n = net::ReadSome(fd_, buffer, sizeof(buffer));
    if (!n.ok()) {
      if (busy()) {
        Fail(n.status());
      } else {
        CloseSocket();
      }
      return;
    }
    if (*n < 0) break;  // Drained.
    if (*n == 0) {
      eof = true;
      break;
    }
    decoder_.Append(buffer, static_cast<size_t>(*n));
  }
  if (!busy()) {
    // Idle: the peer closed (idle sweep), reset, or sent bytes nobody asked
    // for (framing lost). Either way this connection is done.
    if (eof || error || decoder_.buffered_bytes() > 0) CloseSocket();
    return;
  }
  FrameDecoder::Result result = decoder_.Next();
  if (result.state == FrameDecoder::State::kError) {
    Fail(Status::Internal("rpc protocol error from " + Peer() + ": " +
                          result.error_detail));
    return;
  }
  if (result.state == FrameDecoder::State::kReady) {
    if (result.frame.request_id != request_id_) {
      // One call in flight: anything else on the stream means the two ends
      // disagree about framing. Unrecoverable.
      Fail(Status::Internal("rpc response id mismatch from " + Peer()));
      return;
    }
    if (eof || error) CloseSocket();  // Answered, then closed.
    Finish(std::move(result.frame));
    return;
  }
  if (eof || error) {
    Fail(Status::Internal("rpc peer " + Peer() + " closed mid-response"));
  }
}

void RpcChannel::Fail(Status status) {
  CloseSocket();
  Finish(std::move(status));
}

void RpcChannel::Finish(StatusOr<RpcFrame> result) {
  Callback done = std::move(done_);
  done_ = nullptr;
  if (in_call_) {
    (void)loop_->Post([done = std::move(done),
                       result = std::move(result)]() mutable {
      done(std::move(result));
    });
    return;
  }
  done(std::move(result));
}

void RpcChannel::SyncInterest() {
  if (fd_ < 0) return;
  const bool want_read = !connecting_;
  const bool want_write = connecting_ || !out_.empty();
  if (want_read == want_read_ && want_write == want_write_) return;
  if (loop_->Update(fd_, want_read, want_write).ok()) {
    want_read_ = want_read;
    want_write_ = want_write;
  }
}

}  // namespace juggler::rpc
