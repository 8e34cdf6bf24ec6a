#ifndef JUGGLER_NET_LOOP_SERVER_H_
#define JUGGLER_NET_LOOP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/poller.h"
#include "net/reactor.h"
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
  /// Taken by the FastHandler to answer later (a service miss, a routed
  /// call) instead of going to the handler pool.
  uint64_t deferred = 0;
  uint64_t overload_rejected = 0;  ///< Overload replies (503 / kError).
  uint64_t parse_errors = 0;       ///< Protocol errors (connection closed).
  uint64_t idle_closed = 0;        ///< Connections reaped by idle timeout.
  uint64_t slow_read_closed = 0;   ///< Closed for stalling mid-request.
  uint64_t slow_write_closed = 0;  ///< Closed for not draining replies.
};

/// \brief Non-blocking TCP server core shared by the HTTP edge
/// (`net::HttpServer`) and the JRPC shard port (`rpc::RpcServer`): connection
/// I/O on one event loop (a `Reactor`: epoll, poll fallback) plus a bounded
/// handler pool for request execution. The `Codec` supplies only what differs
/// between the protocols; a template rather than virtual calls keeps the
/// per-request path free of indirection.
///
/// Threading model:
///  - The loop thread accepts, reads, decodes, writes, and sweeps idle and
///    stalled connections. Connection state belongs to it exclusively — no
///    locks on the I/O path. The loop is the server's own, or a `Reactor`
///    another component also runs on (the cluster router's HTTP edge shares
///    the router's loop with its shard connections).
///  - A complete request is answered inline (by the codec, e.g. a JRPC ping,
///    or by the optional FastHandler: sub-millisecond work only, such as
///    cache hits and health checks), taken by the FastHandler to be answered
///    later through a `Deferred` token, or dispatched to the handler pool —
///    which is itself one user of the token: the pool thread runs the
///    `Handler` and completes the token with its response.
///  - Completing a token on the loop thread appends the reply bytes to the
///    connection directly. From any other thread the bytes are encoded there
///    and handed to the loop through its posted-closure queue + wake pipe.
///  - Per connection, at most one request is outstanding (deferred or in the
///    pool) at a time; pipelined requests wait in the connection's decode
///    buffer, so replies always leave in request order.
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
///  - `ReadPauseThreshold(const Limits&)`: the flood guard bound;
///  - `kLockClass`/`kLockRank`: the lock class and rank of the own loop's
///    posted-closure queue.
template <typename Codec>
class LoopServer : private Reactor::Watcher {
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
    /// Use the portable poll(2) backend even where epoll is available (own
    /// loop only; a shared loop keeps its owner's backend).
    bool force_poll = false;
  };

 private:
  struct Connection;
  /// What a token needs to reach its connection. Shared by every token of
  /// one run of the server; `server` is read and cleared on the loop thread
  /// only, so tokens completed after Stop() are dropped.
  struct Sink {
    std::shared_ptr<Reactor> reactor;
    LoopServer* server = nullptr;
  };

 public:
  /// \brief Completion token for one request: answers it from any thread,
  /// at most once (a late or repeated completion is dropped, as is one for a
  /// connection that closed meanwhile). Cheap to copy.
  class Deferred {
   public:
    void Complete(Response response) const {
      const bool keep_alive = Codec::KeepAlive(reply_);
      if (sink_->reactor->InLoopThread()) {
        if (sink_->server != nullptr) {
          sink_->server->Deliver(fd_, id_, seq_, keep_alive,
                                 [&](std::string* out) {
                                   Codec::AppendResponse(response, reply_, out);
                                 });
        }
        return;
      }
      std::string bytes;
      Codec::AppendResponse(response, reply_, &bytes);
      (void)sink_->reactor->Post([sink = sink_, fd = fd_, id = id_,
                                  seq = seq_, keep_alive,
                                  bytes = std::move(bytes)] {
        if (sink->server == nullptr) return;  // Stopped meanwhile.
        sink->server->Deliver(fd, id, seq, keep_alive,
                              [&](std::string* out) { *out += bytes; });
      });
    }

   private:
    friend class LoopServer;
    Deferred(std::shared_ptr<Sink> sink, const Connection& conn, Reply reply)
        : sink_(std::move(sink)), fd_(conn.fd), id_(conn.id),
          seq_(conn.inflight_seq), reply_(reply) {}

    std::shared_ptr<Sink> sink_;
    int fd_;
    uint64_t id_;
    uint64_t seq_;
    Reply reply_;
  };

  /// Handed to a DeferringHandler with each request.
  class Deferral {
   public:
    /// Claims the request: it is answered when the returned token is
    /// completed, and the handler's return value is ignored.
    Deferred Take() {
      taken_ = true;
      return Deferred(server_->sink_, *conn_, reply_);
    }

   private:
    friend class LoopServer;
    Deferral(LoopServer* server, const Connection* conn, Reply reply)
        : server_(server), conn_(conn), reply_(reply) {}

    LoopServer* server_;
    const Connection* conn_;
    Reply reply_;
    bool taken_ = false;
  };

  /// Runs on a handler-pool thread; may block (e.g. on a model evaluation).
  using Handler = std::function<Response(const Request&)>;

  /// Optional fast path, run on the event-loop thread before dispatching.
  /// Return a response to answer inline (cache hits, trivial GETs), or
  /// nullopt to fall through to the pool. Must not block.
  using FastHandler = std::function<std::optional<Response>(const Request&)>;

  /// A FastHandler that may also take the request to answer it later
  /// (`Deferral::Take()`), e.g. by handing it to a worker or a non-blocking
  /// client whose callback completes the token. Must not block.
  using DeferringHandler =
      std::function<std::optional<Response>(const Request&, Deferral&)>;

  LoopServer(const Options& options, Handler handler,
             FastHandler fast_handler = nullptr)
      : LoopServer(nullptr, options, std::move(handler),
                   Adapt(std::move(fast_handler))) {}

  LoopServer(const Options& options, Handler handler,
             DeferringHandler fast_handler)
      : LoopServer(nullptr, options, std::move(handler),
                   std::move(fast_handler)) {}

  /// Serves on `reactor` (null: a loop of its own). A shared loop is started
  /// and stopped by its owner; Start() requires it running, and Stop()
  /// detaches this server from it.
  LoopServer(std::shared_ptr<Reactor> reactor, const Options& options,
             Handler handler, DeferringHandler fast_handler)
      : options_(options),
        handler_(std::move(handler)),
        fast_handler_(std::move(fast_handler)),
        owns_reactor_(reactor == nullptr),
        reactor_(owns_reactor_
                     ? std::make_shared<Reactor>(Codec::kLockClass,
                                                 Codec::kLockRank,
                                                 options.force_poll)
                     : std::move(reactor)),
        backend_(reactor_->backend()) {}

  ~LoopServer() { Stop(); }

  LoopServer(const LoopServer&) = delete;
  LoopServer& operator=(const LoopServer&) = delete;

  /// Binds, listens, and starts serving (the loop, if its own, and the
  /// handler pool). On failure everything opened so far is closed and
  /// Start() may be retried. Errors: Internal (socket/bind failures),
  /// InvalidArgument (bad host), FailedPrecondition (already started, or a
  /// shared loop that is not running).
  [[nodiscard]] Status Start() {
    if (started_.exchange(true)) {
      return Status::FailedPrecondition("server already started");
    }
    Status status = Open();
    if (!status.ok()) {
      Close();
      started_.store(false);
    }
    return status;
  }

  /// Graceful stop: closes the listener and every connection, stops the
  /// loop (if its own), then drains and joins the handler pool. Replies
  /// completed after this are dropped. Idempotent.
  void Stop() {
    if (!started_.load() || stopped_.exchange(true)) return;
    if (owns_reactor_) reactor_->Stop();
    Close();
  }

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return bound_port_; }

  /// "epoll" or "poll".
  const std::string& backend() const { return backend_; }

  Stats GetStats() const {
    Stats stats;
    stats.accepted = accepted_.load(std::memory_order_relaxed);
    stats.active = active_.load(std::memory_order_relaxed);
    stats.requests = requests_.load(std::memory_order_relaxed);
    stats.pings = pings_.load(std::memory_order_relaxed);
    stats.fast_path = fast_path_.load(std::memory_order_relaxed);
    stats.deferred = deferred_.load(std::memory_order_relaxed);
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

  /// Per-connection state. Owned and touched by the loop thread only.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    Decoder decoder;
    std::string out;                ///< Bytes awaiting write.
    /// A request is outstanding (deferred or in the pool) right now.
    bool handler_inflight = false;
    /// Numbers the outstanding request, so its token cannot answer a later
    /// one.
    uint64_t inflight_seq = 0;
    bool pumping = false;  ///< PumpRequests is on the stack for it.
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

  static DeferringHandler Adapt(FastHandler fast_handler) {
    if (!fast_handler) return nullptr;
    return [fast = std::move(fast_handler)](const Request& request,
                                            Deferral&) {
      return fast(request);
    };
  }

  Status Open() {
    auto listen_fd = ListenTcp(options_.host, options_.port);
    if (!listen_fd.ok()) return listen_fd.status();
    listen_fd_ = *listen_fd;
    auto port = LocalPort(listen_fd_);
    if (!port.ok()) return port.status();
    bound_port_ = *port;
    if (!owns_reactor_ && !reactor_->running()) {
      return Status::FailedPrecondition("shared event loop is not running");
    }
    pool_ = std::make_unique<service::ThreadPool>(service::ThreadPool::Options{
        options_.num_handler_threads, options_.dispatch_queue_capacity});
    Status attached;
    reactor_->RunSync([this, &attached] { attached = Attach(); });
    JUGGLER_RETURN_IF_ERROR(attached);
    if (owns_reactor_) return reactor_->Start();
    return Status::OK();
  }

  /// Loop thread (or no loop running): registers the listener and the sweep.
  Status Attach() {
    sink_ = std::make_shared<Sink>(Sink{reactor_, this});
    JUGGLER_RETURN_IF_ERROR(reactor_->Watch(listen_fd_, /*want_read=*/true,
                                            /*want_write=*/false, this));
    sweep_hook_ = reactor_->AddTickHook([this] { Sweep(); });
    attached_ = true;
    return Status::OK();
  }

  /// Loop thread (or no loop running): closes every connection and leaves
  /// the loop; tokens still out are dropped from here on.
  void Detach() {
    if (sink_ != nullptr) sink_->server = nullptr;
    if (!attached_) return;
    attached_ = false;
    reactor_->RemoveTickHook(sweep_hook_);
    reactor_->Unwatch(listen_fd_);
    for (auto& [fd, conn] : connections_) {
      reactor_->Unwatch(fd);
      CloseFd(fd);
      active_.fetch_sub(1, std::memory_order_relaxed);
    }
    connections_.clear();
  }

  /// Undoes Open(), whole or partial.
  void Close() {
    reactor_->RunSync([this] { Detach(); });
    if (pool_) {
      // After the detach no new work is dispatched; drain handlers that are
      // still running (their replies are dropped).
      pool_->Shutdown();
      pool_.reset();
    }
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }

  void OnEvent(const Poller::Event& event) override {
    if (event.fd == listen_fd_) {
      AcceptPending();
    } else {
      HandleConnectionEvent(event);
    }
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
      if (!reactor_->Watch(fd, /*want_read=*/true, /*want_write=*/false, this)
               .ok()) {
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
    reactor_->Unwatch(fd);
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

  /// Decodes as many buffered requests as can be answered or handed off now.
  void PumpRequests(Connection* conn) {
    conn->pumping = true;
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
        // Outstanding while the handler runs: a token it takes and completes
        // before returning clears this again.
        conn->handler_inflight = true;
        ++conn->inflight_seq;
        Deferral deferral(this, conn, reply);
        std::optional<Response> fast = fast_handler_(request, deferral);
        if (deferral.taken_) {
          deferred_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        conn->handler_inflight = false;
        if (fast.has_value()) {
          fast_path_.fetch_add(1, std::memory_order_relaxed);
          Codec::AppendResponse(*fast, reply, &conn->out);
          if (!Codec::KeepAlive(reply)) conn->close_after_write = true;
          continue;
        }
      }
      DispatchToPool(conn, reply, std::move(request));
    }
    conn->pumping = false;

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
    conn->handler_inflight = true;
    ++conn->inflight_seq;
    Status submitted = pool_->Submit(
        [this, deferred = Deferred(sink_, *conn, reply),
         request = std::move(request)] {
          deferred.Complete(handler_(request));
        });
    if (!submitted.ok()) {
      // Full dispatch queue (or shutdown): shed at the edge, immediately.
      conn->handler_inflight = false;
      overload_rejected_.fetch_add(1, std::memory_order_relaxed);
      Codec::AppendOverload(reply, &conn->out);
      if (!Codec::KeepAlive(reply)) conn->close_after_write = true;
    }
  }

  /// Loop thread: appends the outstanding request's answer (`append` writes
  /// the bytes), then moves the connection on.
  template <typename Append>
  void Deliver(int fd, uint64_t id, uint64_t seq, bool keep_alive,
               const Append& append) {
    Connection* conn = FindConnection(fd);
    if (conn == nullptr || conn->id != id || !conn->handler_inflight ||
        conn->inflight_seq != seq) {
      return;  // Connection died (or moved on) while handling.
    }
    append(&conn->out);
    conn->handler_inflight = false;
    conn->last_activity = Clock::now();
    if (!keep_alive) conn->close_after_write = true;
    if (conn->read_paused && conn->decoder.buffered_bytes() <=
                                 Codec::ReadPauseThreshold(options_.limits)) {
      conn->read_paused = false;
    }
    // Answered from inside its own handler: that pump goes on from here.
    if (conn->pumping) return;
    PumpRequests(conn);  // Pipelined requests waiting in the buffer.
    FlushWrites(conn);
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
      if (reactor_->Update(fd, want_read, want_write).ok()) {
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
  const DeferringHandler fast_handler_;
  const bool owns_reactor_;
  const std::shared_ptr<Reactor> reactor_;
  const std::string backend_;

  // Set by Start(), read-only while serving.
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::unique_ptr<service::ThreadPool> pool_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // Loop-thread-only state (no locks: single writer, single reader).
  std::shared_ptr<Sink> sink_;
  bool attached_ = false;
  uint64_t sweep_hook_ = 0;
  /// Open connections by fd; `Connection::id` tells reuses of an fd apart.
  std::map<int, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> pings_{0};
  std::atomic<uint64_t> fast_path_{0};
  std::atomic<uint64_t> deferred_{0};
  std::atomic<uint64_t> overload_rejected_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> slow_read_closed_{0};
  std::atomic<uint64_t> slow_write_closed_{0};
};

}  // namespace juggler::net

#endif  // JUGGLER_NET_LOOP_SERVER_H_
