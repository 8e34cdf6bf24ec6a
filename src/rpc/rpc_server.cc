#include "rpc/rpc_server.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/socket_util.h"

namespace juggler::rpc {

namespace {

using Clock = std::chrono::steady_clock;

/// Loop tick: upper bound on stop latency and idle-sweep granularity.
constexpr int kLoopTickMs = 50;

/// Flood guard: stop reading from a connection whose decode buffer already
/// holds more than one maximal frame beyond the in-flight one (pipelined
/// frames stay allowed, an unbounded pile-up does not).
size_t ReadPauseThreshold(const FrameDecoder::Limits& limits) {
  return limits.max_payload_bytes + 2 * kFrameHeaderBytes + 4096;
}

}  // namespace

RpcServer::RpcServer(const Options& options, Handler handler,
                     FastHandler fast_handler)
    : options_(options),
      handler_(std::move(handler)),
      fast_handler_(std::move(fast_handler)),
      mu_(lockdiag::RegisterLockClass("rpc.RpcServer.completions",
                                      lockdiag::kRankRpc)) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  auto listen_fd = net::ListenTcp(options_.host, options_.port);
  if (!listen_fd.ok()) return listen_fd.status();
  listen_fd_ = *listen_fd;
  auto port = net::LocalPort(listen_fd_);
  if (!port.ok()) {
    net::CloseFd(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  bound_port_ = *port;

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    net::CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("pipe2: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  poller_ = net::Poller::Create(options_.force_poll);
  backend_ = poller_->backend_name();
  JUGGLER_RETURN_IF_ERROR(poller_->Add(listen_fd_, /*want_read=*/true,
                                       /*want_write=*/false));
  JUGGLER_RETURN_IF_ERROR(poller_->Add(wake_read_fd_, /*want_read=*/true,
                                       /*want_write=*/false));

  pool_ = std::make_unique<service::ThreadPool>(service::ThreadPool::Options{
      options_.num_handler_threads, options_.dispatch_queue_capacity});
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void RpcServer::Stop() {
  if (!started_.load()) return;
  stop_.store(true);
  if (loop_thread_.joinable()) {
    WakeLoop();
    loop_thread_.join();
  }
  if (pool_) pool_->Shutdown();
  net::CloseFd(listen_fd_);
  net::CloseFd(wake_read_fd_);
  net::CloseFd(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

RpcServer::Stats RpcServer::GetStats() const {
  Stats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.active = active_.load(std::memory_order_relaxed);
  stats.frames = frames_.load(std::memory_order_relaxed);
  stats.pings = pings_.load(std::memory_order_relaxed);
  stats.fast_path = fast_path_.load(std::memory_order_relaxed);
  stats.overload_rejected =
      overload_rejected_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  return stats;
}

void RpcServer::WakeLoop() {
  const char byte = 'w';
  // EAGAIN means the pipe already holds a pending wake-up; that is enough.
  ssize_t n;
  do {
    n = ::write(wake_write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
}

void RpcServer::LoopMain() {
  std::vector<net::Poller::Event> events;
  while (!stop_.load(std::memory_order_acquire)) {
    if (Status status = poller_->Wait(kLoopTickMs, &events); !status.ok()) {
      break;  // Poller broken (fd table exhausted, ...): shut down.
    }
    for (const net::Poller::Event& event : events) {
      if (event.fd == wake_read_fd_) {
        char drain[64];
        ssize_t n;
        do {
          n = ::read(wake_read_fd_, drain, sizeof(drain));
        } while (n > 0 || (n < 0 && errno == EINTR));
        continue;
      }
      if (event.fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      HandleConnectionEvent(event);
    }
    ApplyCompletions();
    SweepIdle();
  }
  for (auto& [id, conn] : connections_) {
    poller_->Remove(conn->fd);
    net::CloseFd(conn->fd);
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
  connections_.clear();
  connection_by_fd_.clear();
}

void RpcServer::AcceptPending() {
  for (;;) {
    auto accepted = net::AcceptNonBlocking(listen_fd_);
    if (!accepted.ok()) return;  // Listener broken; keep serving open conns.
    const int fd = *accepted;
    if (fd < 0) return;  // Accept queue drained.
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (connections_.size() >= options_.max_connections) {
      // Reject at the edge with a typed frame rather than a silent RST.
      RpcFrame reject;
      reject.type = FrameType::kError;
      reject.payload = options_.overload_error_payload;
      const std::string bytes = EncodeFrame(reject);
      (void)net::WriteSome(fd, bytes.data(), bytes.size()).ok();
      net::CloseFd(fd);
      overload_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    net::SetTcpNoDelay(fd);
    auto conn = std::make_unique<Connection>(options_.limits);
    conn->fd = fd;
    conn->id = next_connection_id_++;
    conn->last_activity = Clock::now();
    if (!poller_->Add(fd, /*want_read=*/true, /*want_write=*/false).ok()) {
      net::CloseFd(fd);
      continue;
    }
    connection_by_fd_[fd] = conn->id;
    active_.fetch_add(1, std::memory_order_relaxed);
    connections_.emplace(conn->id, std::move(conn));
  }
}

RpcServer::Connection* RpcServer::FindConnection(uint64_t id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : it->second.get();
}

void RpcServer::CloseConnection(uint64_t id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  poller_->Remove(conn->fd);
  connection_by_fd_.erase(conn->fd);
  net::CloseFd(conn->fd);
  active_.fetch_sub(1, std::memory_order_relaxed);
  connections_.erase(it);
}

void RpcServer::HandleConnectionEvent(const net::Poller::Event& event) {
  const auto fd_it = connection_by_fd_.find(event.fd);
  if (fd_it == connection_by_fd_.end()) return;  // Closed earlier this batch.
  const uint64_t id = fd_it->second;
  Connection* conn = FindConnection(id);
  if (conn == nullptr) return;

  if (event.error) {
    CloseConnection(id);
    return;
  }

  if (event.readable && !conn->read_closed && !conn->read_paused) {
    char buffer[16384];
    for (;;) {
      auto n = net::ReadSome(conn->fd, buffer, sizeof(buffer));
      if (!n.ok()) {  // ECONNRESET and friends.
        CloseConnection(id);
        return;
      }
      if (*n < 0) break;  // Drained (EAGAIN).
      if (*n == 0) {      // Orderly shutdown from the peer.
        conn->read_closed = true;
        break;
      }
      conn->decoder.Append(buffer, static_cast<size_t>(*n));
      conn->last_activity = Clock::now();
      if (conn->decoder.buffered_bytes() >
          ReadPauseThreshold(options_.limits)) {
        conn->read_paused = true;
        break;
      }
    }
    PumpFrames(conn);
  }

  FlushWrites(conn);
}

void RpcServer::PumpFrames(Connection* conn) {
  while (!conn->handler_inflight && !conn->close_after_write) {
    FrameDecoder::Result result = conn->decoder.Next();
    if (result.state == FrameDecoder::State::kNeedMore) break;
    if (result.state == FrameDecoder::State::kError) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      RpcFrame error;
      error.type = FrameType::kError;
      // Framing is lost, so no request id can be echoed; 0 marks "stream".
      error.payload = "{\"error\":{\"code\":\"INVALID_ARGUMENT\","
                      "\"message\":\"" + result.error_detail + "\"}}";
      AppendFrame(error, &conn->out);
      conn->close_after_write = true;
      conn->read_closed = true;  // Never parse this stream again.
      break;
    }

    frames_.fetch_add(1, std::memory_order_relaxed);
    conn->last_activity = Clock::now();
    if (result.frame.type == FrameType::kPing) {
      // Health probes answer inline: a shard mid-evaluation must still look
      // alive to the router's prober.
      pings_.fetch_add(1, std::memory_order_relaxed);
      RpcFrame pong;
      pong.type = FrameType::kPong;
      pong.request_id = result.frame.request_id;
      pong.payload = std::move(result.frame.payload);
      AppendFrame(pong, &conn->out);
      continue;  // Next pipelined frame, if buffered.
    }
    if (fast_handler_) {
      if (std::optional<RpcFrame> fast = fast_handler_(result.frame)) {
        fast_path_.fetch_add(1, std::memory_order_relaxed);
        fast->request_id = result.frame.request_id;
        AppendFrame(*fast, &conn->out);
        continue;
      }
    }
    DispatchToPool(conn, std::move(result.frame));
  }
}

void RpcServer::DispatchToPool(Connection* conn, RpcFrame request) {
  const uint64_t id = conn->id;
  const uint64_t request_id = request.request_id;
  Status submitted =
      pool_->Submit([this, id, request_id, request = std::move(request)] {
        RpcFrame response = handler_(request);
        response.request_id = request_id;
        Completion completion;
        completion.connection_id = id;
        completion.bytes = EncodeFrame(response);
        {
          MutexLock lock(mu_);
          completions_.push_back(std::move(completion));
        }
        WakeLoop();
      });
  if (!submitted.ok()) {
    // Full dispatch queue (or shutdown): shed at the edge, immediately.
    overload_rejected_.fetch_add(1, std::memory_order_relaxed);
    RpcFrame error;
    error.type = FrameType::kError;
    error.request_id = request_id;
    error.payload = options_.overload_error_payload;
    AppendFrame(error, &conn->out);
    return;
  }
  conn->handler_inflight = true;
}

void RpcServer::ApplyCompletions() {
  std::vector<Completion> ready;
  {
    MutexLock lock(mu_);
    ready.swap(completions_);
  }
  for (Completion& completion : ready) {
    Connection* conn = FindConnection(completion.connection_id);
    if (conn == nullptr) continue;  // Connection died while handling.
    conn->out += completion.bytes;
    conn->handler_inflight = false;
    conn->last_activity = Clock::now();
    if (conn->read_paused && conn->decoder.buffered_bytes() <=
                                 ReadPauseThreshold(options_.limits)) {
      conn->read_paused = false;
    }
    PumpFrames(conn);  // Pipelined frames waiting in the buffer.
    FlushWrites(conn);
  }
}

void RpcServer::FlushWrites(Connection* conn) {
  const uint64_t id = conn->id;
  size_t written = 0;
  while (written < conn->out.size()) {
    auto n = net::WriteSome(conn->fd, conn->out.data() + written,
                            conn->out.size() - written);
    if (!n.ok()) {  // EPIPE/ECONNRESET: peer is gone.
      CloseConnection(id);
      return;
    }
    if (*n < 0) break;  // Kernel buffer full (EAGAIN).
    written += static_cast<size_t>(*n);
  }
  conn->out.erase(0, written);

  if (conn->out.empty()) {
    if (conn->close_after_write ||
        (conn->read_closed && !conn->handler_inflight &&
         conn->decoder.buffered_bytes() == 0)) {
      CloseConnection(id);
      return;
    }
  }

  const bool want_read = !conn->read_closed && !conn->read_paused;
  const bool want_write = !conn->out.empty();
  if (want_read != conn->reg_read || want_write != conn->want_write) {
    if (poller_->Update(conn->fd, want_read, want_write).ok()) {
      conn->reg_read = want_read;
      conn->want_write = want_write;
    }
  }
}

void RpcServer::SweepIdle() {
  if (options_.idle_timeout_ms <= 0) return;
  const auto now = Clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<uint64_t> expired;
  for (const auto& [id, conn] : connections_) {
    if (conn->handler_inflight || !conn->out.empty()) continue;
    if (now - conn->last_activity > limit) expired.push_back(id);
  }
  for (const uint64_t id : expired) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(id);
  }
}

}  // namespace juggler::rpc
