#ifndef JUGGLER_CLUSTER_ROUTER_H_
#define JUGGLER_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "cluster/hash_ring.h"
#include "cluster/hot_key_table.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/reactor.h"
#include "rpc/frame.h"
#include "rpc/rpc_channel.h"
#include "service/metrics.h"

namespace juggler::cluster {

/// \brief Consistent-hash router over a fixed fleet of JRPC shards.
///
/// Each recommend question routes by hash of (app, params, machine) — the
/// same composite the prediction cache keys on, minus the model version —
/// so a recurring question always lands on the shard whose cache is warm
/// for it and whose lazy registry has its model resident.
///
/// Failure model:
///  - a background prober pings every shard on a fixed cadence and flips a
///    per-shard healthy bit; routing prefers healthy shards;
///  - a transport failure mid-request (dial, timeout, peer close, framing)
///    closes that connection, marks the shard unhealthy and reroutes the
///    request — and every call waiting for a connection to that shard — to
///    the next shard in its preference order; the client sees one slower
///    request, not an error (the reroute counter records it);
///  - an application-level kError reply is returned as-is, never rerouted:
///    the shard answered, the request itself was bad;
///  - only when every attempted shard fails transport-wise does the caller
///    get an error (503-shaped: the condition is transient).
///
/// Threading: forwarding runs on one event loop (`loop()`, started by
/// Start()). Each shard has up to `max_clients_per_shard` non-blocking JRPC
/// connections (rpc::RpcChannel) with one call in flight each; a request is
/// a small state machine driven by their callbacks, and the loop tick
/// enforces the connect and call deadlines. RouterHttpServer serves on the
/// same loop, so a routed single recommend or observe crosses no thread
/// inside the router. The blocking API posts to the loop and waits; the
/// prober pings from its own thread over fresh connections.
class Router {
 public:
  struct Options {
    /// Backend addresses, "host:port" each. Order defines shard indices.
    std::vector<std::string> shards;
    size_t virtual_nodes = 64;
    /// Deadline of one shard call (send + wait + receive), enforced by the
    /// router loop's tick. Must cover a cold model evaluation on the shard.
    int rpc_timeout_ms = 5'000;
    /// Deadline of one dial (the loop's non-blocking connect) and of a probe.
    int connect_timeout_ms = 1'000;
    /// Distinct shards tried per request (owner + failovers).
    size_t max_attempts = 3;
    int probe_interval_ms = 250;
    /// Non-blocking JRPC connections per shard on the router loop, one call
    /// in flight each; further calls for the shard wait for one to free up.
    size_t max_clients_per_shard = 8;
    rpc::FrameDecoder::Limits limits;
  };

  /// Validates addresses. Start() launches the loop and the prober.
  static StatusOr<std::unique_ptr<Router>> Create(const Options& options);

  /// Prefer Create(): this constructor skips address validation (shards_
  /// stays empty; Create() fills it after parsing each address).
  explicit Router(const Options& options);

  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] Status Start();
  /// Fails the calls still pending (kUnavailable), closes every shard
  /// connection and joins the loop and the prober.
  void Stop();

  // Blocking API: callable from any thread but the router loop. Each call
  // is posted to the loop and runs there as Forward() does; the caller
  // waits for the answer. FailedPrecondition when the router is not started.

  /// Routes one single-recommend request (JSON payload) by `route_key`.
  /// Returns the shard's reply payload verbatim, or the reconstructed
  /// Status of a kError reply / all-shards-down transport failure.
  [[nodiscard]] StatusOr<std::string> ForwardRecommend(
      const std::string& route_key, const std::string& payload);

  /// Routes one observation batch (online binary wire format) by
  /// `route_key` — the application name, so an app's observations land on
  /// the shard whose registry serves its model and whose online loop can
  /// refit it. Same failover discipline as ForwardRecommend.
  [[nodiscard]] StatusOr<std::string> ForwardObserve(
      const std::string& route_key, const std::string& payload);

  /// Sends `type` to the first healthy shard (any shard can answer
  /// fleet-level metadata like kApps). Same failover as ForwardRecommend.
  [[nodiscard]] StatusOr<std::string> CallAny(rpc::FrameType type,
                                              const std::string& payload);

  /// One broadcast result per shard, in shard order.
  struct BroadcastResult {
    std::string address;
    StatusOr<std::string> reply;
  };
  std::vector<BroadcastResult> Broadcast(rpc::FrameType type,
                                         const std::string& payload);

  /// Receives a routed call's result on the router loop.
  using Done = std::function<void(StatusOr<std::string>)>;

  /// No bound on calls waiting for a shard connection (blocking callers are
  /// bounded by their own threads).
  static constexpr size_t kNoWaitBound = static_cast<size_t>(-1);

  /// Loop thread only: routes one kRecommend or kObserve by `route_key`,
  /// exactly as ForwardRecommend/ForwardObserve do, and hands the result to
  /// `done` (on the loop, after this returns). When every connection of the
  /// chosen shard is busy the call waits; with `max_waiting` calls already
  /// waiting router-wide it fails at once with ResourceExhausted instead.
  void Forward(const std::string& route_key, rpc::FrameType type,
               std::string payload, size_t max_waiting, Done done);

  /// The event loop the router forwards on; RouterHttpServer serves there.
  const std::shared_ptr<net::Reactor>& loop() const { return loop_; }

  /// Point-in-time per-shard counters for /metrics.
  struct ShardStats {
    std::string address;
    bool healthy = false;
    uint64_t requests = 0;
    uint64_t errors = 0;
    service::LatencyHistogram::Snapshot latency;
  };
  std::vector<ShardStats> GetShardStats() const;

  uint64_t reroutes() const {
    return reroutes_.load(std::memory_order_relaxed);
  }
  /// Warm hints sent to surviving shards after a failover reroute.
  uint64_t warm_hints() const {
    return warm_hints_.load(std::memory_order_relaxed);
  }
  /// Hot keys forwarded across all warm hints.
  uint64_t warm_keys() const {
    return warm_keys_.load(std::memory_order_relaxed);
  }
  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  size_t healthy_shards() const;
  size_t shard_count() const { return shards_.size(); }

  const HashRing& ring() const { return ring_; }

 private:
  struct Call;
  using CallPtr = std::shared_ptr<Call>;

  struct Shard {
    std::string address;
    std::string host;
    uint16_t port = 0;
    std::atomic<bool> healthy{true};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    service::LatencyHistogram latency;
    // Loop-thread state.
    /// Connection slots (max_clients_per_shard); closed ones dial on use.
    std::vector<std::unique_ptr<rpc::RpcChannel>> channels;
    std::deque<CallPtr> waiting;  ///< Calls waiting for a free channel.
    /// steady_clock ms of the last warm hint sourced from this shard's keys
    /// (cooldown so one failover burst sends one hint, not one per request).
    int64_t last_warm_ms = -1;
  };

  static CallPtr NewCall(rpc::FrameType type, std::string payload, Done done);

  /// Posts `start` to the loop and waits for the Done it is handed.
  StatusOr<std::string> Await(std::function<void(Done)> start);

  // The call state machine (loop thread). A Call walks its candidate shards
  // (the healthy pass, then the last-resort pass) until one answers.
  void Begin(CallPtr call);
  void Advance(CallPtr call);
  void Attempt(CallPtr call, size_t index);
  void Send(CallPtr call, rpc::RpcChannel* channel);
  void OnReply(CallPtr call, StatusOr<rpc::RpcFrame> reply);
  /// An idle open channel of `shard`, else a closed slot; null when all are
  /// busy.
  static rpc::RpcChannel* FreeChannel(Shard& shard);
  /// Hands free channels of `shard` to the calls waiting for one.
  void ServeWaiting(Shard& shard);
  /// Delivers `result` to the call's Done (queued on the loop).
  void Finish(const CallPtr& call, StatusOr<std::string> result);
  /// Fails every call in flight or waiting (Stop()).
  void FailPending();
  /// Loop tick: enforces the connect and call deadlines.
  void CheckDeadlines();

  /// After a failover reroute: best-effort kWarm to `target` carrying the
  /// top-k hot questions last owned by the `failed` shards, so the survivor
  /// pre-computes them instead of serving cold. Rate-limited per failed
  /// shard; `call` is answered once the hint is acknowledged or has failed
  /// (its outcome never changes the answer).
  void SendWarmHintThenFinish(const std::vector<size_t>& failed,
                              size_t target, CallPtr call,
                              std::string reply);

  void ProbeLoop();

  const Options options_;
  /// Lock class "cluster.Router.shard_pool" (rank cluster=14): the loop's
  /// posted-work queue, through which blocking callers hand calls to the
  /// shard connection pool and HTTP handler threads hand back replies.
  const std::shared_ptr<net::Reactor> loop_;
  std::vector<std::unique_ptr<Shard>> shards_;
  HashRing ring_;

  std::thread prober_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  // Loop-thread state.
  bool stopping_ = false;
  size_t waiting_ = 0;  ///< Calls waiting for a channel, all shards.
  uint64_t deadline_hook_ = 0;
  static constexpr size_t kMaxHotKeys = 512;
  HotKeyTable hot_keys_ = HotKeyTable(kMaxHotKeys);

  std::atomic<uint64_t> reroutes_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> warm_hints_{0};
  std::atomic<uint64_t> warm_keys_{0};
};

/// \brief The HTTP face of the cluster: the standalone server's API, with
/// every recommend forwarded to a shard instead of evaluated in-process.
///
/// The HTTP edge runs on the router's event loop (Router::loop()): single
/// recommends and observes are forwarded from the loop and answered through
/// deferred replies, so only batches and the admin routes use the handler
/// pool (which calls the router's blocking API).
///
/// Endpoints (same wire shapes as HttpRecommendServer):
///   POST /v1/recommend   routed by consistent hash; batches route per slot
///   POST /v1/observe     observations grouped by app, each group routed to
///                        the app's shard as a kObserve frame
///   GET  /v1/apps        answered by the first healthy shard
///   POST /v1/reload      broadcast to every shard; per-shard results
///   GET  /livez          200 whenever the router process serves
///   GET  /healthz        200 while >=1 shard is healthy, else 503
///   GET  /readyz         alias for /healthz (readiness == routable fleet)
///   GET  /metrics        router + per-shard series, Prometheus text
class RouterHttpServer {
 public:
  struct Options {
    net::HttpServer::Options http;
  };

  /// Serves on `router`'s event loop, which must be running at Start().
  RouterHttpServer(Router* router, const Options& options);

  [[nodiscard]] Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }

  uint16_t port() const { return server_.port(); }
  const std::string& backend() const { return server_.backend(); }
  net::HttpServer::Stats http_stats() const { return server_.GetStats(); }

  /// Full routing of one request, blocking on the router (any thread but
  /// the router loop). The handler pool serves batches and the admin routes
  /// with it; public so tests can exercise routes without a socket.
  net::HttpResponse Handle(const net::HttpRequest& request);

  std::string MetricsText() const;

 private:
  /// On the router loop: health answers inline, and single recommends and
  /// observes are forwarded without blocking and answered through
  /// `deferral` (more than `dispatch_queue_capacity` calls waiting for a
  /// shard connection: 503 + Retry-After). nullopt hands the rest
  /// (batches, /v1/apps, /v1/reload, /metrics) to the handler pool.
  std::optional<net::HttpResponse> HandleOnLoop(
      const net::HttpRequest& request, net::HttpServer::Deferral& deferral);
  net::HttpResponse HandleRecommend(const net::HttpRequest& request);
  net::HttpResponse HandleObserve(const net::HttpRequest& request);
  net::HttpResponse HandleApps();
  net::HttpResponse HandleReload();

  Router* router_;  ///< Not owned; outlives the server.
  const size_t max_waiting_;
  net::HttpServer server_;
};

}  // namespace juggler::cluster

#endif  // JUGGLER_CLUSTER_ROUTER_H_
