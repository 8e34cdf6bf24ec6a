#ifndef JUGGLER_CLUSTER_SHARD_SERVER_H_
#define JUGGLER_CLUSTER_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"
#include "online/online_loop.h"
#include "rpc/rpc_server.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"

namespace juggler::cluster {

/// \brief One backend shard of the horizontal serving tier: a JRPC server
/// answering the recommend API over binary frames.
///
/// A shard owns a RecommendationService + ModelRegistry exactly like the
/// standalone HTTP server does; what makes it a *slice* of the fleet is the
/// router's consistent hashing plus lazy model loading — each shard is only
/// ever asked about the apps that hash to it, so (with
/// ModelRegistry::Options::lazy_load) it only pays memory for those models.
///
/// Frame protocol (payloads are the HTTP API's JSON documents verbatim):
///   kRecommend  -> kRecommendReply | kError
///   kApps       -> kAppsReply  {"version":v,"apps":[...]}
///   kReload     -> kReloadReply {registry reload summary}
///   kObserve    -> kObserveReply {"accepted":n,"buffered":n} | kError
///                  (observation batch in the online binary wire format;
///                  FAILED_PRECONDITION when the shard runs without --online)
///   kWarm       -> kWarmReply {"warmed":n}: a best-effort cache pre-warm
///                  hint from the router after failover — a JSON array of
///                  recommend request docs the shard evaluates asynchronously
///                  so rerouted hot questions land warm instead of cold
///   anything else -> kError INVALID_ARGUMENT
class ShardServer {
 public:
  struct Options {
    rpc::RpcServer::Options rpc;
    /// The shard's online feedback loop; null rejects kObserve frames.
    std::shared_ptr<online::OnlineJuggler> online;
  };

  ShardServer(std::shared_ptr<service::ModelRegistry> registry,
              std::shared_ptr<service::RecommendationService> service,
              const Options& options);

  [[nodiscard]] Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }

  uint16_t port() const { return server_.port(); }
  const std::string& backend() const { return server_.backend(); }
  rpc::RpcServer::Stats rpc_stats() const { return server_.GetStats(); }

  /// Full dispatch of one request frame (handler-pool path). Public so tests
  /// can exercise the protocol without a socket.
  rpc::RpcFrame Handle(const rpc::RpcFrame& request);

  /// Event-loop fast path: answers a kRecommend that needs no model
  /// evaluation (warm cache hit, malformed request, unknown app) with the
  /// same frame Handle() would return; nullopt for a cold key or any other
  /// frame type. Served over the socket, a cold kRecommend then goes
  /// straight to the service (HandleOnLoop); every other frame type takes
  /// the handler-pool path.
  std::optional<rpc::RpcFrame> HandleFast(const rpc::RpcFrame& request);

  /// Requests pre-computed from router warm hints since construction.
  uint64_t warms() const { return warms_.load(std::memory_order_relaxed); }

 private:
  /// HandleFast, plus: a cold kRecommend takes `deferral` and is handed,
  /// parsed, to RecommendationService::RecommendThen, whose worker completes
  /// the reply with the frame Handle() would return.
  std::optional<rpc::RpcFrame> HandleOnLoop(const rpc::RpcFrame& request,
                                            rpc::RpcServer::Deferral* deferral);
  rpc::RpcFrame HandleRecommend(const rpc::RpcFrame& request);
  rpc::RpcFrame HandleObserve(const rpc::RpcFrame& request);
  rpc::RpcFrame HandleWarm(const rpc::RpcFrame& request);
  rpc::RpcFrame HandleApps() const;
  rpc::RpcFrame HandleReload();

  std::shared_ptr<service::ModelRegistry> registry_;
  std::shared_ptr<service::RecommendationService> service_;
  std::shared_ptr<online::OnlineJuggler> online_;
  std::atomic<uint64_t> warms_{0};
  rpc::RpcServer server_;
};

}  // namespace juggler::cluster

#endif  // JUGGLER_CLUSTER_SHARD_SERVER_H_
