#ifndef JUGGLER_RPC_RPC_SERVER_H_
#define JUGGLER_RPC_RPC_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/poller.h"
#include "rpc/frame.h"
#include "service/thread_pool.h"

namespace juggler::rpc {

/// \brief Non-blocking JRPC server: the HttpServer event-loop architecture
/// (one loop thread owning all connection I/O, a bounded handler pool for
/// request execution, completions returned through a mutex-guarded list +
/// wake pipe) speaking binary frames instead of HTTP.
///
/// Protocol behavior:
///  - kPing is answered inline on the loop thread (health probes must not
///    queue behind model evaluations);
///  - every other frame is first offered to the optional `FastHandler` on
///    the loop thread (sub-millisecond work only: the shard answers warm
///    cache hits and malformed requests there); a frame it declines runs the
///    Handler on the pool. Either way the returned frame is sent with the
///    request's id stamped in, and responses leave in request order;
///  - a full dispatch queue answers kError with `overload_error_payload`
///    immediately — bounded queues shed at the edge, never park unboundedly;
///  - a framing error sends one kError frame (request id 0: the broken
///    stream no longer identifies a request) and closes the connection.
class RpcServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral; read back with port().
    int num_handler_threads = 4;
    /// Requests parked waiting for a handler thread; when full, new frames
    /// get an immediate kError response.
    size_t dispatch_queue_capacity = 256;
    FrameDecoder::Limits limits;
    int idle_timeout_ms = 30'000;
    size_t max_connections = 1024;
    bool force_poll = false;
    /// Payload of the kError frame sent on overload. The cluster tier keeps
    /// the HTTP API's error JSON shape so the router can map it back to a
    /// Status (RESOURCE_EXHAUSTED -> 503 + Retry-After at the HTTP edge).
    std::string overload_error_payload =
        "{\"error\":{\"code\":\"RESOURCE_EXHAUSTED\","
        "\"message\":\"rpc server overloaded; retry with backoff\"}}";
  };

  /// Runs on a handler-pool thread; may block (e.g. on a model evaluation).
  /// The returned frame's request_id is overwritten with the request's.
  using Handler = std::function<RpcFrame(const RpcFrame&)>;

  /// Optional fast path, run on the event-loop thread before dispatching.
  /// Return a frame to answer inline, or nullopt to fall through to the
  /// pool. Must not block. The returned request_id is overwritten too.
  using FastHandler = std::function<std::optional<RpcFrame>(const RpcFrame&)>;

  struct Stats {
    uint64_t accepted = 0;           ///< Connections accepted.
    uint64_t active = 0;             ///< Currently open connections.
    uint64_t frames = 0;             ///< Complete frames parsed.
    uint64_t pings = 0;              ///< Answered inline on the loop thread.
    uint64_t fast_path = 0;          ///< Answered inline by the FastHandler.
    uint64_t overload_rejected = 0;  ///< kError from a full dispatch queue.
    uint64_t protocol_errors = 0;    ///< Malformed frames (connection closed).
    uint64_t idle_closed = 0;        ///< Connections reaped by idle timeout.
  };

  RpcServer(const Options& options, Handler handler,
            FastHandler fast_handler = nullptr);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  [[nodiscard]] Status Start() EXCLUDES(mu_);

  /// Graceful stop: closes the listener and every connection, joins the
  /// loop thread, then drains and joins the handler pool. Idempotent.
  void Stop() EXCLUDES(mu_);

  uint16_t port() const { return bound_port_; }
  const std::string& backend() const { return backend_; }
  Stats GetStats() const;

 private:
  /// Per-connection state. Owned and touched by the loop thread only.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    std::string out;                ///< Bytes awaiting write.
    bool handler_inflight = false;  ///< A frame is in the pool right now.
    bool close_after_write = false;
    bool read_closed = false;
    bool read_paused = false;  ///< Flood guard engaged.
    bool reg_read = true;
    bool want_write = false;
    std::chrono::steady_clock::time_point last_activity;

    explicit Connection(const FrameDecoder::Limits& limits)
        : decoder(limits) {}
  };

  struct Completion {
    uint64_t connection_id = 0;
    std::string bytes;  ///< Fully serialized response frame.
  };

  void LoopMain();
  void WakeLoop();
  void AcceptPending();
  void HandleConnectionEvent(const net::Poller::Event& event);
  void PumpFrames(Connection* conn);
  void DispatchToPool(Connection* conn, RpcFrame request);
  void FlushWrites(Connection* conn);
  void ApplyCompletions() EXCLUDES(mu_);
  void SweepIdle();
  void CloseConnection(uint64_t id);
  Connection* FindConnection(uint64_t id);

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
  std::unique_ptr<net::Poller> poller_;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  std::map<int, uint64_t> connection_by_fd_;
  uint64_t next_connection_id_ = 1;

  std::unique_ptr<service::ThreadPool> pool_;
  std::thread loop_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  /// Lock class "rpc.RpcServer.completions" (rank rpc=12): same role as
  /// net.HttpServer.completions — taken by pool workers only after the
  /// handler released all service-layer locks, swapped by the loop thread.
  mutable Mutex mu_ ACQUIRED_BEFORE(lockdiag::kServiceOrder);
  std::vector<Completion> completions_ GUARDED_BY(mu_);

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> pings_{0};
  std::atomic<uint64_t> fast_path_{0};
  std::atomic<uint64_t> overload_rejected_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> idle_closed_{0};
};

}  // namespace juggler::rpc

#endif  // JUGGLER_RPC_RPC_SERVER_H_
