#include "cluster/router.h"

#include <chrono>
#include <map>
#include <utility>

#include "common/parse.h"
#include "net/json.h"
#include "online/observation.h"
#include "online/online_metrics.h"
#include "net/prometheus.h"
#include "net/recommend_codec.h"
#include "service/prediction_cache.h"

namespace juggler::cluster {

namespace {

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

StatusOr<std::unique_ptr<Router>> Router::Create(const Options& options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard address");
  }
  auto router = std::make_unique<Router>(options);
  for (const std::string& address : options.shards) {
    const size_t colon = address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == address.size()) {
      return Status::InvalidArgument("shard address must be host:port, got '" +
                                     address + "'");
    }
    uint64_t port = 0;
    if (!ParseUnsigned(address.substr(colon + 1), &port) || port == 0 ||
        port > 65535) {
      return Status::InvalidArgument("invalid port in shard address '" +
                                     address + "'");
    }
    auto shard = std::make_unique<Shard>();
    shard->address = address;
    shard->host = address.substr(0, colon);
    shard->port = static_cast<uint16_t>(port);
    router->shards_.push_back(std::move(shard));
  }
  return router;
}

Router::Shard::Shard()
    : pool_mu(lockdiag::RegisterLockClass("cluster.Router.shard_pool",
                                          lockdiag::kRankCluster)) {}

Router::Router(const Options& options)
    : options_(options),
      ring_(options.shards.size(),
            options.virtual_nodes == 0 ? 1 : options.virtual_nodes),
      hot_mu_(lockdiag::RegisterLockClass("cluster.Router.hot_keys",
                                          lockdiag::kRankCluster)) {}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (started_.exchange(true)) return Status::OK();
  stop_.store(false);
  prober_ = std::thread([this] { ProbeLoop(); });
  return Status::OK();
}

void Router::Stop() {
  if (!started_.load()) return;
  stop_.store(true);
  if (prober_.joinable()) prober_.join();
  started_.store(false);
  for (auto& shard : shards_) {
    // Swap the pool out and let the RpcClient destructors run close() after
    // the lock is released: destroying connections is a syscall, and holding
    // pool_mu across it would stall a concurrent checkout (and trip the
    // blocking-under-lock discipline this file advertises).
    std::vector<std::unique_ptr<rpc::RpcClient>> drained;
    {
      MutexLock lock(shard->pool_mu);
      drained.swap(shard->pool);
    }
  }
}

StatusOr<rpc::RpcFrame> Router::CallShard(size_t index, rpc::FrameType type,
                                          const std::string& payload) {
  Shard& shard = *shards_[index];
  std::unique_ptr<rpc::RpcClient> client;
  {
    MutexLock lock(shard.pool_mu);
    if (!shard.pool.empty()) {
      client = std::move(shard.pool.back());
      shard.pool.pop_back();
    }
  }
  if (client == nullptr) {
    rpc::RpcClient::Options copts;
    copts.host = shard.host;
    copts.port = shard.port;
    copts.connect_timeout_ms = options_.connect_timeout_ms;
    copts.call_timeout_ms = options_.rpc_timeout_ms;
    copts.limits = options_.limits;
    client = std::make_unique<rpc::RpcClient>(copts);
  }

  const auto start = std::chrono::steady_clock::now();
  auto reply = client->Call(type, payload);
  shard.requests.fetch_add(1, std::memory_order_relaxed);
  if (!reply.ok()) {
    // Transport failure: the connection is gone (RpcClient closed it), the
    // shard is suspect. Drop the client; the prober will flip `healthy`
    // back once pings succeed again.
    shard.errors.fetch_add(1, std::memory_order_relaxed);
    shard.healthy.store(false, std::memory_order_relaxed);
    return reply.status();
  }
  shard.latency.Record(ElapsedUs(start));
  shard.healthy.store(true, std::memory_order_relaxed);
  MutexLock lock(shard.pool_mu);
  if (shard.pool.size() < options_.max_clients_per_shard) {
    shard.pool.push_back(std::move(client));
  }
  return reply;
}

StatusOr<std::string> Router::ForwardByKey(const std::string& route_key,
                                           rpc::FrameType type,
                                           rpc::FrameType expected_reply,
                                           const std::string& payload) {
  const size_t attempts =
      options_.max_attempts == 0 ? 1 : options_.max_attempts;
  const std::vector<size_t> prefs = ring_.Preference(route_key, attempts);
  Status last = Status::ResourceExhausted("no shard reachable");
  bool attempted = false;
  const bool recommend = type == rpc::FrameType::kRecommend;
  std::vector<size_t> failed;
  // Pass 0 tries the healthy shards in preference order; pass 1 is the
  // last resort when the prober has everything marked down (its view may
  // be a probe interval stale — a shard that just came back deserves the
  // request rather than the client an error).
  for (int pass = 0; pass < 2; ++pass) {
    for (const size_t index : prefs) {
      const bool healthy =
          shards_[index]->healthy.load(std::memory_order_relaxed);
      if ((pass == 0) != healthy) continue;
      if (attempted) reroutes_.fetch_add(1, std::memory_order_relaxed);
      attempted = true;
      auto reply = CallShard(index, type, payload);
      if (!reply.ok()) {
        last = reply.status();
        failed.push_back(index);
        continue;  // Reroute: next shard in the preference order.
      }
      if (reply->type == rpc::FrameType::kError) {
        // The shard answered; the request (or its queue) is the problem.
        // Never rerouted: a second shard would say the same thing, slower.
        return net::StatusFromErrorJson(reply->payload);
      }
      if (reply->type != expected_reply) {
        last = Status::Internal(
            "unexpected reply frame type " +
            std::to_string(static_cast<int>(reply->type)));
        continue;
      }
      if (recommend) {
        RecordHotKey(route_key, payload, index);
        // A reroute landed here: hand the survivor the failed shard's hot
        // questions so they come back warm, not cold.
        if (!failed.empty()) MaybeSendWarmHint(failed, index);
      }
      return std::move(reply->payload);
    }
  }
  // Transient by construction (every failure here was transport-level), so
  // surface as 503-shaped: clients should back off and retry.
  return Status::ResourceExhausted("all shards failed: " + last.message());
}

StatusOr<std::string> Router::ForwardRecommend(const std::string& route_key,
                                               const std::string& payload) {
  return ForwardByKey(route_key, rpc::FrameType::kRecommend,
                      rpc::FrameType::kRecommendReply, payload);
}

void Router::RecordHotKey(const std::string& route_key,
                          const std::string& payload, size_t owner) {
  MutexLock lock(hot_mu_);
  hot_keys_.Record(route_key, payload, owner);
}

void Router::MaybeSendWarmHint(const std::vector<size_t>& failed,
                               size_t target) {
  constexpr size_t kWarmTopK = 8;
  constexpr int64_t kWarmCooldownMs = 1'000;
  const int64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  // Claim each failed shard's cooldown slot atomically: one failover burst
  // sends one hint per failed shard, not one per rerouted request.
  std::vector<bool> source(shards_.size(), false);
  bool any = false;
  for (const size_t index : failed) {
    if (index == target || index >= shards_.size()) continue;
    int64_t last_ms =
        shards_[index]->last_warm_ms.load(std::memory_order_relaxed);
    if (last_ms >= 0 && now_ms - last_ms < kWarmCooldownMs) continue;
    if (!shards_[index]->last_warm_ms.compare_exchange_strong(
            last_ms, now_ms, std::memory_order_relaxed)) {
      continue;
    }
    source[index] = true;
    any = true;
  }
  if (!any) return;

  // Copy the candidate payloads out; the kWarm call runs with hot_mu_
  // released.
  std::vector<std::string> hot;
  {
    MutexLock lock(hot_mu_);
    hot = hot_keys_.TopK(source, kWarmTopK);
  }
  if (hot.empty()) return;

  // Payloads are raw JSON documents; splice them into one array.
  std::string body = "[";
  for (size_t i = 0; i < hot.size(); ++i) {
    if (i > 0) body.push_back(',');
    body.append(hot[i]);
  }
  body.push_back(']');
  auto reply = CallShard(target, rpc::FrameType::kWarm, body);
  if (reply.ok() && reply->type == rpc::FrameType::kWarmReply) {
    warm_hints_.fetch_add(1, std::memory_order_relaxed);
    warm_keys_.fetch_add(hot.size(), std::memory_order_relaxed);
  }
}

StatusOr<std::string> Router::ForwardObserve(const std::string& route_key,
                                             const std::string& payload) {
  return ForwardByKey(route_key, rpc::FrameType::kObserve,
                      rpc::FrameType::kObserveReply, payload);
}

StatusOr<std::string> Router::CallAny(rpc::FrameType type,
                                      const std::string& payload) {
  const rpc::FrameType expected_reply =
      type == rpc::FrameType::kApps ? rpc::FrameType::kAppsReply
                                    : rpc::FrameType::kReloadReply;
  Status last = Status::ResourceExhausted("no shard reachable");
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t index = 0; index < shards_.size(); ++index) {
      const bool healthy =
          shards_[index]->healthy.load(std::memory_order_relaxed);
      if ((pass == 0) != healthy) continue;
      auto reply = CallShard(index, type, payload);
      if (!reply.ok()) {
        last = reply.status();
        continue;
      }
      if (reply->type == rpc::FrameType::kError) {
        return net::StatusFromErrorJson(reply->payload);
      }
      if (reply->type != expected_reply) {
        last = Status::Internal(
            "unexpected reply frame type " +
            std::to_string(static_cast<int>(reply->type)));
        continue;
      }
      return std::move(reply->payload);
    }
  }
  return Status::ResourceExhausted("all shards failed: " + last.message());
}

std::vector<Router::BroadcastResult> Router::Broadcast(
    rpc::FrameType type, const std::string& payload) {
  std::vector<BroadcastResult> results;
  results.reserve(shards_.size());
  for (size_t index = 0; index < shards_.size(); ++index) {
    auto reply = CallShard(index, type, payload);
    StatusOr<std::string> outcome =
        !reply.ok() ? StatusOr<std::string>(reply.status())
        : reply->type == rpc::FrameType::kError
            ? StatusOr<std::string>(net::StatusFromErrorJson(reply->payload))
            : StatusOr<std::string>(std::move(reply->payload));
    results.push_back(
        BroadcastResult{shards_[index]->address, std::move(outcome)});
  }
  return results;
}

std::vector<Router::ShardStats> Router::GetShardStats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.address = shard->address;
    s.healthy = shard->healthy.load(std::memory_order_relaxed);
    s.requests = shard->requests.load(std::memory_order_relaxed);
    s.errors = shard->errors.load(std::memory_order_relaxed);
    s.latency = shard->latency.GetSnapshot();
    stats.push_back(std::move(s));
  }
  return stats;
}

size_t Router::healthy_shards() const {
  size_t healthy = 0;
  for (const auto& shard : shards_) {
    if (shard->healthy.load(std::memory_order_relaxed)) ++healthy;
  }
  return healthy;
}

void Router::ProbeLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    for (auto& shard : shards_) {
      if (stop_.load(std::memory_order_relaxed)) return;
      rpc::RpcClient::Options copts;
      copts.host = shard->host;
      copts.port = shard->port;
      copts.connect_timeout_ms = options_.connect_timeout_ms;
      copts.call_timeout_ms = options_.connect_timeout_ms;
      copts.limits = options_.limits;
      rpc::RpcClient client(copts);
      shard->healthy.store(client.Ping().ok(), std::memory_order_relaxed);
      probes_.fetch_add(1, std::memory_order_relaxed);
    }
    // Sleep in small slices so Stop() is never blocked a full interval.
    int remaining = options_.probe_interval_ms;
    while (remaining > 0 && !stop_.load(std::memory_order_relaxed)) {
      const int slice = remaining < 20 ? remaining : 20;
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      remaining -= slice;
    }
  }
}

// ---- RouterHttpServer ------------------------------------------------------

RouterHttpServer::RouterHttpServer(Router* router, const Options& options)
    : router_(router),
      server_(
          options.http,
          [this](const net::HttpRequest& request) { return Handle(request); },
          [this](const net::HttpRequest& request)
              -> std::optional<net::HttpResponse> {
            // Health must answer even when every handler thread is parked
            // on a slow shard call.
            const std::string path = request.Path();
            if (path == "/livez" && request.method == "GET") {
              return net::HttpResponse::Text(200, "ok\n");
            }
            if ((path == "/healthz" || path == "/readyz") &&
                request.method == "GET") {
              return router_->healthy_shards() > 0
                         ? net::HttpResponse::Text(200, "ok\n")
                         : net::ErrorResponse(Status::FailedPrecondition(
                               "no healthy shards"));
            }
            return std::nullopt;
          }) {}

net::HttpResponse RouterHttpServer::Handle(const net::HttpRequest& request) {
  const std::string path = request.Path();
  if (path == "/livez") {
    return net::HttpResponse::Text(200, "ok\n");
  }
  if (path == "/healthz" || path == "/readyz") {
    return router_->healthy_shards() > 0
               ? net::HttpResponse::Text(200, "ok\n")
               : net::ErrorResponse(
                     Status::FailedPrecondition("no healthy shards"));
  }
  if (path == "/v1/recommend" && request.method == "POST") {
    return HandleRecommend(request);
  }
  if (path == "/v1/observe" && request.method == "POST") {
    return HandleObserve(request);
  }
  if (path == "/v1/apps" && request.method == "GET") {
    return HandleApps();
  }
  if (path == "/v1/reload" && request.method == "POST") {
    return HandleReload();
  }
  if (path == "/metrics" && request.method == "GET") {
    net::HttpResponse response = net::HttpResponse::Text(200, MetricsText());
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return response;
  }
  return net::ErrorResponse(
      Status::NotFound("no route for " + request.method + " " + path));
}

net::HttpResponse RouterHttpServer::HandleRecommend(
    const net::HttpRequest& request) {
  auto json = net::Json::Parse(request.body);
  if (!json.ok()) return net::ErrorResponse(json.status());

  const net::Json* batch =
      json->is_object() ? json->Find("requests") : nullptr;
  if (batch == nullptr) {
    // The router validates before forwarding: a 400 must not cost a network
    // hop, and the parse yields the fields the route key hashes over.
    auto parsed = net::ParseRecommendRequest(*json);
    if (!parsed.ok()) return net::ErrorResponse(parsed.status());
    // Version 0 in the key: the router does not know shard model versions,
    // and stability across reloads is exactly what keeps routing sticky.
    const std::string route_key = service::PredictionCache::MakeKey(
        parsed->app, 0, parsed->params, parsed->machine_type);
    auto reply = router_->ForwardRecommend(route_key, json->Dump());
    if (!reply.ok()) return net::ErrorResponse(reply.status());
    return net::HttpResponse::JsonBody(200, std::move(reply).value());
  }

  if (!batch->is_array()) {
    return net::ErrorResponse(
        Status::InvalidArgument("'requests' must be an array"));
  }
  // Validate every slot up front (same all-or-nothing 400 contract as the
  // standalone server), then route each to its own shard.
  std::vector<std::string> route_keys;
  route_keys.reserve(batch->array_items().size());
  for (size_t i = 0; i < batch->array_items().size(); ++i) {
    auto parsed = net::ParseRecommendRequest(batch->array_items()[i]);
    if (!parsed.ok()) {
      return net::ErrorResponse(
          Status::InvalidArgument("requests[" + std::to_string(i) +
                                  "]: " + parsed.status().message()));
    }
    route_keys.push_back(service::PredictionCache::MakeKey(
        parsed->app, 0, parsed->params, parsed->machine_type));
  }
  // Replies are raw JSON documents; splice them rather than reparse.
  std::string body = "{\"results\":[";
  for (size_t i = 0; i < route_keys.size(); ++i) {
    if (i > 0) body.push_back(',');
    auto reply = router_->ForwardRecommend(
        route_keys[i], batch->array_items()[i].Dump());
    body.append(reply.ok() ? *reply
                           : net::ErrorJson(reply.status()).Dump());
  }
  body.append("]}");
  return net::HttpResponse::JsonBody(200, std::move(body));
}

net::HttpResponse RouterHttpServer::HandleObserve(
    const net::HttpRequest& request) {
  if (request.body.empty()) {
    return net::ErrorResponse(
        Status::InvalidArgument("empty observation body"));
  }
  // Accept both wire forms the standalone server does, then decode so the
  // batch can be re-grouped: one app's observations must all reach the one
  // shard that serves (and can refit) that app.
  StatusOr<std::vector<online::Observation>> observations =
      Status::InvalidArgument("unparsed");
  if (request.body.size() >= sizeof(online::kObservationMagic) &&
      request.body.compare(0, sizeof(online::kObservationMagic),
                           online::kObservationMagic,
                           sizeof(online::kObservationMagic)) == 0) {
    observations = online::DecodeObservationBatch(request.body);
  } else {
    auto json = net::Json::Parse(request.body);
    if (!json.ok()) return net::ErrorResponse(json.status());
    observations = net::ParseObservationsJson(*json);
  }
  if (!observations.ok()) return net::ErrorResponse(observations.status());

  std::map<std::string, std::vector<online::Observation>> by_app;
  for (online::Observation& o : *observations) {
    by_app[o.app].push_back(std::move(o));
  }
  std::string body = "{\"shards\":[";
  bool first = true;
  for (auto& [app, group] : by_app) {
    if (!first) body.push_back(',');
    first = false;
    const std::string encoded = online::EncodeObservationBatch(group);
    auto reply = router_->ForwardObserve(app, encoded);
    body.append("{\"app\":");
    body.append(net::Json::Str(app).Dump());  // Quoted + escaped.
    body.push_back(',');
    if (reply.ok()) {
      body.append("\"reply\":").append(*reply);
    } else {
      body.append("\"error\":")
          .append(net::ErrorJson(reply.status()).Dump());
    }
    body.push_back('}');
  }
  body.append("]}");
  return net::HttpResponse::JsonBody(200, std::move(body));
}

net::HttpResponse RouterHttpServer::HandleApps() {
  auto reply = router_->CallAny(rpc::FrameType::kApps, "");
  if (!reply.ok()) return net::ErrorResponse(reply.status());
  return net::HttpResponse::JsonBody(200, std::move(reply).value());
}

net::HttpResponse RouterHttpServer::HandleReload() {
  const auto results = router_->Broadcast(rpc::FrameType::kReload, "");
  std::string body = "{\"shards\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) body.push_back(',');
    body.append("{\"shard\":\"");
    body.append(results[i].address);  // host:port — no JSON escapes needed.
    body.append("\",");
    if (results[i].reply.ok()) {
      body.append("\"reply\":").append(*results[i].reply);
    } else {
      body.append("\"error\":")
          .append(net::ErrorJson(results[i].reply.status()).Dump());
    }
    body.push_back('}');
  }
  body.append("]}");
  return net::HttpResponse::JsonBody(200, std::move(body));
}

std::string RouterHttpServer::MetricsText() const {
  const std::vector<Router::ShardStats> shards = router_->GetShardStats();
  const net::HttpServer::Stats http = server_.GetStats();
  std::string out;
  out.reserve(4096);

  net::AppendHeader(&out, "juggler_router_shard_healthy", "gauge",
                    "1 while the shard answers pings, 0 while it is down.");
  for (const auto& s : shards) {
    net::AppendLabeledSample(&out, "juggler_router_shard_healthy", "shard",
                             s.address, "", s.healthy ? 1.0 : 0.0);
  }
  net::AppendHeader(&out, "juggler_router_requests_total", "counter",
                    "RPC calls sent, by shard.");
  for (const auto& s : shards) {
    net::AppendLabeledSample(&out, "juggler_router_requests_total", "shard",
                             s.address, "", static_cast<double>(s.requests));
  }
  net::AppendHeader(&out, "juggler_router_errors_total", "counter",
                    "Transport-level RPC failures, by shard.");
  for (const auto& s : shards) {
    net::AppendLabeledSample(&out, "juggler_router_errors_total", "shard",
                             s.address, "", static_cast<double>(s.errors));
  }
  net::AppendHeader(&out, "juggler_router_shard_latency_us", "summary",
                    "Per-call RPC latency in microseconds, by shard.");
  for (const auto& s : shards) {
    net::AppendLabeledSample(&out, "juggler_router_shard_latency_us", "shard",
                             s.address, "quantile=\"0.5\"", s.latency.p50_us);
    net::AppendLabeledSample(&out, "juggler_router_shard_latency_us", "shard",
                             s.address, "quantile=\"0.95\"",
                             s.latency.p95_us);
    net::AppendLabeledSample(&out, "juggler_router_shard_latency_us_sum",
                             "shard", s.address, "", s.latency.sum_us);
    net::AppendLabeledSample(&out, "juggler_router_shard_latency_us_count",
                             "shard", s.address, "",
                             static_cast<double>(s.latency.count));
  }

  net::AppendHeader(&out, "juggler_router_reroutes_total", "counter",
                    "Requests retried on another shard after a transport "
                    "failure.");
  net::AppendSample(&out, "juggler_router_reroutes_total", "", "",
                    static_cast<double>(router_->reroutes()));
  net::AppendHeader(&out, "juggler_router_warm_hints_total", "counter",
                    "Cache warm hints sent to surviving shards after a "
                    "failover reroute.");
  net::AppendSample(&out, "juggler_router_warm_hints_total", "", "",
                    static_cast<double>(router_->warm_hints()));
  net::AppendHeader(&out, "juggler_router_warm_keys_total", "counter",
                    "Hot questions forwarded across all warm hints.");
  net::AppendSample(&out, "juggler_router_warm_keys_total", "", "",
                    static_cast<double>(router_->warm_keys()));
  net::AppendHeader(&out, "juggler_router_probes_total", "counter",
                    "Health probes sent.");
  net::AppendSample(&out, "juggler_router_probes_total", "", "",
                    static_cast<double>(router_->probes()));
  net::AppendHeader(&out, "juggler_router_healthy_shards", "gauge",
                    "Shards currently passing health probes.");
  net::AppendSample(&out, "juggler_router_healthy_shards", "", "",
                    static_cast<double>(router_->healthy_shards()));

  net::AppendHttpServerMetrics(http, &out);
  online::AppendOnlineMetrics(&out);
  net::AppendLockMetrics(&out);
  return out;
}

}  // namespace juggler::cluster
