#ifndef JUGGLER_NET_LOOP_SERVER_H_
#define JUGGLER_NET_LOOP_SERVER_H_

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_diag.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/poller.h"
#include "net/socket_util.h"
#include "service/thread_pool.h"

namespace juggler::net {

/// Counters of one LoopServer, read with relaxed loads (a scrape, not a
/// snapshot).
struct LoopServerStats {
  uint64_t accepted = 0;           ///< Connections accepted.
  uint64_t active = 0;             ///< Currently open connections.
  uint64_t requests = 0;           ///< Complete requests (frames) decoded.
  uint64_t pings = 0;              ///< Answered inline by the codec (kPing).
  uint64_t fast_path = 0;          ///< Answered inline by the FastHandler.
  uint64_t overload_rejected = 0;  ///< Overload replies (503 / kError).
  uint64_t parse_errors = 0;       ///< Protocol errors (connection closed).
  uint64_t idle_closed = 0;        ///< Connections reaped by idle timeout.
  uint64_t slow_read_closed = 0;   ///< Closed for stalling mid-request.
  uint64_t slow_write_closed = 0;  ///< Closed for not draining replies.
};

/// \brief Non-blocking TCP server core shared by the HTTP edge
/// (`net::HttpServer`) and the JRPC shard port (`rpc::RpcServer`): one
/// event-loop thread (epoll, poll fallback) for all connection I/O plus a
/// bounded handler pool for request execution. The `Codec` supplies only
/// what differs between the protocols; a template rather than virtual calls
/// keeps the per-request path free of indirection.
///
/// Threading model:
///  - The loop thread accepts, reads, decodes, writes, and sweeps idle and
///    stalled connections. Connection state belongs to it exclusively — no
///    locks on the I/O path.
///  - A complete request is either answered inline (by the codec, e.g. a
///    JRPC ping, or by the optional `FastHandler`: sub-millisecond work
///    only, such as cache hits and health checks) or dispatched to the
///    handler pool. The pool thread runs the `Handler`, encodes the reply,
///    and hands the bytes back to the loop through a mutex-guarded
///    completion list + wake pipe.
///  - Per connection, at most one request is in the handler at a time;
///    pipelined requests wait in the connection's decode buffer, so replies
///    always leave in request order.
///
/// Backpressure contract (the RecommendationService policy, preserved at the
/// socket edge): when the handler pool's bounded queue is full the server
/// answers the codec's overload reply immediately — it never parks a
/// request in an unbounded queue, never hangs the client, and never drops
/// the connection without a response.
///
/// Codec contract (static members; see HttpCodec and rpc::RpcCodec):
///  - `Decoder` (with `Limits`, `Result`, `State`), `Request`, `Response`,
///    and `Reply`: what an answer must carry from its request (HTTP:
///    keep-alive; JRPC: the request id). `kNoRequest` is the Reply for an
///    answer tied to no request (a connection rejected at accept).
///  - `RequestOf(Result&)`, `ReplyFor(const Request&)`, `KeepAlive(Reply)`;
///  - `AppendResponse(Response&, Reply, out)`, `AppendOverload(Reply, out)`,
///    `AppendParseError(const Result&, out)`, `AppendReadTimeout(out)`;
///  - `AnswerInline(Request&, out)`: answer ahead of the FastHandler, or
///    return false;
///  - `ReadPauseThreshold(const Limits&)`: the flood-guard bound;
///  - `kLockClass`/`kLockRank`: the completion lock's class and rank.
template <typename Codec>
class LoopServer {
 public:
  using Decoder = typename Codec::Decoder;
  using Request = typename Codec::Request;
  using Response = typename Codec::Response;
  using Reply = typename Codec::Reply;
  using Stats = LoopServerStats;

  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral; read back with port().
    int num_handler_threads = 4;
    /// Requests parked waiting for a handler thread; when full, new
    /// requests get the codec's overload reply immediately.
    size_t dispatch_queue_capacity = 256;
    typename Decoder::Limits limits;
    /// Connections with no traffic and no request in flight for this long
    /// are closed by the sweeper.
    int idle_timeout_ms = 30'000;
    /// Slow-client guard, distinct from the idle sweep (which trickled bytes
    /// reset): once the first byte of a request has arrived, the complete
    /// request must decode within this deadline or the connection gets the
    /// codec's read-timeout reply (HTTP 408, JRPC kError) and is closed.
    /// <= 0 disables.
    int header_read_timeout_ms = 10'000;
    /// Once reply bytes are queued, the peer must drain them within this
    /// deadline or the connection is closed. <= 0 disables.
    int write_timeout_ms = 10'000;
    size_t max_connections = 1024;
    /// Use the portable poll(2) backend even where epoll is available.
    bool force_poll = false;
  };

  /// Runs on a handler-pool thread; may block (e.g. on a model evaluation).
  using Handler = std::function<Response(const Request&)>;

  /// Optional fast path, run on the event-loop thread before dispatching.
  /// Return a response to answer inline (cache hits, trivial GETs), or
  /// nullopt to fall through to the pool. Must not block.
  using FastHandler = std::function<std::optional<Response>(const Request&)>;

  LoopServer(const Options& options, Handler handler,
             FastHandler fast_handler = nullptr)
      : options_(options),
        handler_(std::move(handler)),
        fast_handler_(std::move(fast_handler)),
        mu_(lockdiag::RegisterLockClass(Codec::kLockClass, Codec::kLockRank)) {
  }
  ~LoopServer() { Stop(); }

  LoopServer(const LoopServer&) = delete;
  LoopServer& operator=(const LoopServer&) = delete;

  /// Binds, listens, and starts the loop + handler threads. Errors:
  /// Internal (socket/bind failures), InvalidArgument (bad host),
  /// FailedPrecondition (already started).
  [[nodiscard]] Status Start() EXCLUDES(mu_) {
    if (started_.exchange(true)) {
      return Status::FailedPrecondition("server already started");
    }
    auto listen_fd = ListenTcp(options_.host, options_.port);
    if (!listen_fd.ok()) return listen_fd.status();
    listen_fd_ = *listen_fd;
    auto port = LocalPort(listen_fd_);
    if (!port.ok()) {
      CloseFd(listen_fd_);
      listen_fd_ = -1;
      return port.status();
    }
    bound_port_ = *port;

    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      CloseFd(listen_fd_);
      listen_fd_ = -1;
      return Status::Internal(std::string("pipe2: ") + std::strerror(errno));
    }
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];

    poller_ = Poller::Create(options_.force_poll);
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

  /// Graceful stop: closes the listener and every connection, joins the
  /// loop thread, then drains and joins the handler pool. Idempotent.
  void Stop() EXCLUDES(mu_) {
    if (!started_.load()) return;
    stop_.store(true);
    if (loop_thread_.joinable()) {
      WakeLoop();
      loop_thread_.join();
    }
    // After the loop exits no new work is dispatched; drain handlers that
    // are still running (their completions land in completions_ and are
    // dropped).
    if (pool_) pool_->Shutdown();
    CloseFd(listen_fd_);
    CloseFd(wake_read_fd_);
    CloseFd(wake_write_fd_);
    listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  }

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return bound_port_; }

  /// "epoll" or "poll" (valid after a successful Start()).
  const std::string& backend() const { return backend_; }

  Stats GetStats() const {
    Stats stats;
    stats.accepted = accepted_.load(std::memory_order_relaxed);
    stats.active = active_.load(std::memory_order_relaxed);
    stats.requests = requests_.load(std::memory_order_relaxed);
    stats.pings = pings_.load(std::memory_order_relaxed);
    stats.fast_path = fast_path_.load(std::memory_order_relaxed);
    stats.overload_rejected =
        overload_rejected_.load(std::memory_order_relaxed);
    stats.parse_errors = parse_errors_.load(std::memory_order_relaxed);
    stats.idle_closed = idle_closed_.load(std::memory_order_relaxed);
    stats.slow_read_closed = slow_read_closed_.load(std::memory_order_relaxed);
    stats.slow_write_closed =
        slow_write_closed_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Loop tick: upper bound on stop latency and sweep granularity.
  static constexpr int kLoopTickMs = 50;

  /// Per-connection state. Owned and touched by the loop thread only.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    Decoder decoder;
    std::string out;                ///< Bytes awaiting write.
    bool handler_inflight = false;  ///< A request is in the pool right now.
    bool close_after_write = false;
    bool read_closed = false;  ///< Peer half-closed or poisoned decoder.
    /// Flood guard engaged: the decode buffer holds more than one maximal
    /// request beyond the in-flight one, so reads wait for completions.
    bool read_paused = false;
    bool reg_read = true;      ///< EPOLLIN currently registered.
    bool want_write = false;   ///< EPOLLOUT currently registered.
    Clock::time_point last_activity;
    /// Deadline anchors (epoch == disarmed): `read_start` is when the first
    /// byte of the current partial request arrived; `write_start` is when
    /// `out` last went empty -> non-empty. Trickled bytes refresh
    /// last_activity but not these, which is what catches slowloris.
    Clock::time_point read_start{};
    Clock::time_point write_start{};

    Connection(int socket_fd, uint64_t conn_id,
               const typename Decoder::Limits& limits)
        : fd(socket_fd), id(conn_id), decoder(limits),
          last_activity(Clock::now()) {}
  };

  /// A finished handler invocation travelling back to the loop thread.
  /// The connection is found by fd and confirmed by id: the fd may have been
  /// closed and reused while the handler ran.
  struct Completion {
    int fd = -1;
    uint64_t connection_id = 0;
    std::string bytes;  ///< Fully encoded reply.
    bool keep_alive = true;
  };

  void WakeLoop() {
    const char byte = 'w';
    // EAGAIN means the pipe already holds a pending wake-up; that is enough.
    ssize_t n;
    do {
      n = ::write(wake_write_fd_, &byte, 1);
    } while (n < 0 && errno == EINTR);
  }

  void LoopMain() {
    std::vector<Poller::Event> events;
    while (!stop_.load(std::memory_order_acquire)) {
      if (Status status = poller_->Wait(kLoopTickMs, &events); !status.ok()) {
        break;  // Poller broken (fd table exhausted, ...): shut down.
      }
      for (const Poller::Event& event : events) {
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
      Sweep();
    }
    // Loop exit: close every connection (the loop thread owns them all).
    for (auto& [fd, conn] : connections_) {
      poller_->Remove(fd);
      CloseFd(fd);
      active_.fetch_sub(1, std::memory_order_relaxed);
    }
    connections_.clear();
  }

  void AcceptPending() {
    for (;;) {
      auto accepted = AcceptNonBlocking(listen_fd_);
      if (!accepted.ok()) return;  // Listener broken; keep serving open conns.
      const int fd = *accepted;
      if (fd < 0) return;  // Accept queue drained.
      accepted_.fetch_add(1, std::memory_order_relaxed);
      if (connections_.size() >= options_.max_connections) {
        // Reject at the edge, with a reply rather than a silent RST.
        std::string bytes;
        Codec::AppendOverload(Codec::kNoRequest, &bytes);
        (void)WriteSome(fd, bytes.data(), bytes.size()).ok();
        CloseFd(fd);
        overload_rejected_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      SetTcpNoDelay(fd);
      auto conn = std::make_unique<Connection>(fd, next_connection_id_++,
                                               options_.limits);
      if (!poller_->Add(fd, /*want_read=*/true, /*want_write=*/false).ok()) {
        CloseFd(fd);
        continue;
      }
      active_.fetch_add(1, std::memory_order_relaxed);
      connections_.emplace(fd, std::move(conn));
    }
  }

  Connection* FindConnection(int fd) {
    const auto it = connections_.find(fd);
    return it == connections_.end() ? nullptr : it->second.get();
  }

  void CloseConnection(int fd) {
    if (connections_.erase(fd) == 0) return;
    poller_->Remove(fd);
    CloseFd(fd);
    active_.fetch_sub(1, std::memory_order_relaxed);
  }

  void HandleConnectionEvent(const Poller::Event& event) {
    const int fd = event.fd;
    Connection* conn = FindConnection(fd);
    if (conn == nullptr) return;  // Closed earlier this batch.

    if (event.error) {
      CloseConnection(fd);
      return;
    }

    if (event.readable && !conn->read_closed && !conn->read_paused) {
      char buffer[16384];
      for (;;) {
        auto n = ReadSome(fd, buffer, sizeof(buffer));
        if (!n.ok()) {  // ECONNRESET and friends.
          CloseConnection(fd);
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
            Codec::ReadPauseThreshold(options_.limits)) {
          conn->read_paused = true;
          break;
        }
      }
      PumpRequests(conn);
    }

    // PumpRequests may have poisoned/closed nothing but queued output.
    FlushWrites(conn);
  }

  /// Decodes as many buffered requests as can be answered or dispatched now.
  void PumpRequests(Connection* conn) {
    while (!conn->handler_inflight && !conn->close_after_write) {
      typename Decoder::Result result = conn->decoder.Next();
      if (result.state == Decoder::State::kNeedMore) break;
      if (result.state == Decoder::State::kError) {
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        Codec::AppendParseError(result, &conn->out);
        conn->close_after_write = true;
        conn->read_closed = true;  // Framing lost; never decode this again.
        break;
      }

      requests_.fetch_add(1, std::memory_order_relaxed);
      conn->last_activity = Clock::now();
      conn->read_start = {};  // Complete request: the next gets a fresh clock.
      Request& request = Codec::RequestOf(result);
      if (Codec::AnswerInline(request, &conn->out)) {
        pings_.fetch_add(1, std::memory_order_relaxed);
        continue;  // Next pipelined request, if buffered.
      }
      const Reply reply = Codec::ReplyFor(request);
      if (fast_handler_) {
        if (std::optional<Response> fast = fast_handler_(request)) {
          fast_path_.fetch_add(1, std::memory_order_relaxed);
          Codec::AppendResponse(*fast, reply, &conn->out);
          if (!Codec::KeepAlive(reply)) conn->close_after_write = true;
          continue;
        }
      }
      DispatchToPool(conn, reply, std::move(request));
    }

    // Header-read deadline: armed while a partial request sits in the
    // buffer, disarmed when the buffer drains. last_activity is *not* the
    // anchor — trickled bytes refresh it, which is exactly the slowloris hole.
    if (conn->decoder.buffered_bytes() == 0) {
      conn->read_start = {};
    } else if (conn->read_start == Clock::time_point{}) {
      conn->read_start = Clock::now();
    }
  }

  void DispatchToPool(Connection* conn, Reply reply, Request request) {
    const int fd = conn->fd;
    const uint64_t id = conn->id;
    Status submitted =
        pool_->Submit([this, fd, id, reply, request = std::move(request)] {
          Response response = handler_(request);
          Completion completion{fd, id, {}, Codec::KeepAlive(reply)};
          Codec::AppendResponse(response, reply, &completion.bytes);
          {
            MutexLock lock(mu_);
            completions_.push_back(std::move(completion));
          }
          WakeLoop();
        });
    if (!submitted.ok()) {
      // Full dispatch queue (or shutdown): shed at the edge, immediately.
      overload_rejected_.fetch_add(1, std::memory_order_relaxed);
      Codec::AppendOverload(reply, &conn->out);
      if (!Codec::KeepAlive(reply)) conn->close_after_write = true;
      return;
    }
    conn->handler_inflight = true;
  }

  void ApplyCompletions() EXCLUDES(mu_) {
    std::vector<Completion> ready;
    {
      MutexLock lock(mu_);
      ready.swap(completions_);
    }
    for (Completion& completion : ready) {
      Connection* conn = FindConnection(completion.fd);
      if (conn == nullptr || conn->id != completion.connection_id) {
        continue;  // Connection died while handling.
      }
      conn->out += completion.bytes;
      conn->handler_inflight = false;
      conn->last_activity = Clock::now();
      if (!completion.keep_alive) conn->close_after_write = true;
      if (conn->read_paused && conn->decoder.buffered_bytes() <=
                                   Codec::ReadPauseThreshold(options_.limits)) {
        conn->read_paused = false;
      }
      PumpRequests(conn);  // Pipelined requests waiting in the buffer.
      FlushWrites(conn);
    }
  }

  /// Flushes the write buffer; adjusts write interest; may close `conn`.
  void FlushWrites(Connection* conn) {
    const int fd = conn->fd;
    size_t written = 0;
    while (written < conn->out.size()) {
      auto n = WriteSome(fd, conn->out.data() + written,
                         conn->out.size() - written);
      if (!n.ok()) {  // EPIPE/ECONNRESET: peer is gone.
        CloseConnection(fd);
        return;
      }
      if (*n < 0) break;  // Socket buffer full (EAGAIN).
      written += static_cast<size_t>(*n);
    }
    conn->out.erase(0, written);

    // Response-write deadline: armed while bytes are queued for a peer that
    // is not draining them, disarmed once the buffer empties.
    if (!conn->out.empty()) {
      if (conn->write_start == Clock::time_point{}) {
        conn->write_start = Clock::now();
      }
    } else if (conn->close_after_write ||
               (conn->read_closed && !conn->handler_inflight &&
                conn->decoder.buffered_bytes() == 0)) {
      CloseConnection(fd);
      return;
    } else {
      conn->write_start = {};
    }

    // Keep the poller's interest set in sync; a paused reader must drop
    // EPOLLIN or level-triggered readiness would spin the loop.
    const bool want_read = !conn->read_closed && !conn->read_paused;
    const bool want_write = !conn->out.empty();
    if (want_read != conn->reg_read || want_write != conn->want_write) {
      if (poller_->Update(fd, want_read, want_write).ok()) {
        conn->reg_read = want_read;
        conn->want_write = want_write;
      }
    }
  }

  /// Closes idle connections and enforces the header-read and response-write
  /// deadlines (slow-client guard), in one pass over the connections.
  void Sweep() {
    const auto now = Clock::now();
    const auto idle_limit = std::chrono::milliseconds(options_.idle_timeout_ms);
    const auto read_limit =
        std::chrono::milliseconds(options_.header_read_timeout_ms);
    const auto write_limit =
        std::chrono::milliseconds(options_.write_timeout_ms);
    std::vector<int> idle;
    std::vector<int> write_stalled;
    std::vector<int> read_stalled;
    for (const auto& [fd, conn] : connections_) {
      const bool busy = conn->handler_inflight || !conn->out.empty();
      if (options_.idle_timeout_ms > 0 && !busy &&
          now - conn->last_activity > idle_limit) {
        idle.push_back(fd);
      } else if (options_.write_timeout_ms > 0 &&
                 conn->write_start != Clock::time_point{} &&
                 now - conn->write_start > write_limit) {
        write_stalled.push_back(fd);
      } else if (options_.header_read_timeout_ms > 0 &&
                 !conn->handler_inflight &&
                 conn->read_start != Clock::time_point{} &&
                 now - conn->read_start > read_limit) {
        read_stalled.push_back(fd);
      }
    }
    for (const int fd : idle) {
      idle_closed_.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(fd);
    }
    for (const int fd : write_stalled) {
      // The peer is not draining its socket; a late reply would only sit in
      // the buffer, so close outright.
      slow_write_closed_.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(fd);
    }
    for (const int fd : read_stalled) {
      Connection* conn = FindConnection(fd);
      if (conn == nullptr) continue;
      slow_read_closed_.fetch_add(1, std::memory_order_relaxed);
      Codec::AppendReadTimeout(&conn->out);
      conn->close_after_write = true;
      conn->read_closed = true;  // Mid-request framing: never decode again.
      conn->read_start = {};
      FlushWrites(conn);
    }
  }

  const Options options_;
  const Handler handler_;
  const FastHandler fast_handler_;

  // Immutable after Start().
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::string backend_;

  // Loop-thread-only state (no locks: single writer, single reader).
  std::unique_ptr<Poller> poller_;
  /// Open connections by fd; `Connection::id` tells reuses of an fd apart.
  std::map<int, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;

  std::unique_ptr<service::ThreadPool> pool_;
  std::thread loop_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  /// Lock class `Codec::kLockClass` ("net.HttpServer.completions", rank
  /// net=10; "rpc.RpcServer.completions", rank rpc=12): the outermost layer
  /// of the lock order — pool workers take it *after* releasing every
  /// service-layer lock (the handler has fully returned), and the loop
  /// thread holds it only to swap the vector.
  mutable Mutex mu_ ACQUIRED_BEFORE(lockdiag::kServiceOrder);
  std::vector<Completion> completions_ GUARDED_BY(mu_);

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> pings_{0};
  std::atomic<uint64_t> fast_path_{0};
  std::atomic<uint64_t> overload_rejected_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> slow_read_closed_{0};
  std::atomic<uint64_t> slow_write_closed_{0};
};

}  // namespace juggler::net

#endif  // JUGGLER_NET_LOOP_SERVER_H_
