#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <future>
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

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             Clock::now() - start)
      .count();
}

/// The reply frame type that answers a request frame type.
rpc::FrameType ExpectedReply(rpc::FrameType type) {
  switch (type) {
    case rpc::FrameType::kRecommend:
      return rpc::FrameType::kRecommendReply;
    case rpc::FrameType::kObserve:
      return rpc::FrameType::kObserveReply;
    case rpc::FrameType::kApps:
      return rpc::FrameType::kAppsReply;
    case rpc::FrameType::kWarm:
      return rpc::FrameType::kWarmReply;
    default:
      return rpc::FrameType::kReloadReply;
  }
}

}  // namespace

/// One routed request, owned by whichever stage holds it (a channel's
/// callback, a shard's waiting queue, the loop's queue).
struct Router::Call {
  rpc::FrameType type = rpc::FrameType::kPing;
  rpc::FrameType expected = rpc::FrameType::kPong;
  std::string payload;
  /// Set for recommends: a served one is recorded in the hot-key table.
  std::string route_key;
  /// Shards in the order to try them.
  std::vector<size_t> candidates;
  /// One attempt on candidates[0] whatever its health (Broadcast, warm
  /// hints); otherwise a healthy pass, then a last-resort pass.
  bool once = false;
  bool count_reroutes = false;
  size_t max_waiting = kNoWaitBound;

  int pass = 0;
  size_t next = 0;  ///< Next candidate of the current pass.
  bool attempted = false;
  size_t shard = 0;  ///< Shard of the attempt in progress.
  Clock::time_point attempt_start;
  std::vector<size_t> failed;  ///< Shards that failed it transport-wise.
  Status last = Status::ResourceExhausted("no shard reachable");
  Done done;

  /// A call dropped unanswered (the loop stopped under it) still answers.
  ~Call() {
    if (done) done(Status::Unavailable("router stopped"));
  }
};

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
    rpc::RpcClient::Options copts;
    copts.host = shard->host;
    copts.port = shard->port;
    copts.connect_timeout_ms = options.connect_timeout_ms;
    copts.call_timeout_ms = options.rpc_timeout_ms;
    copts.limits = options.limits;
    const size_t channels = std::max<size_t>(1, options.max_clients_per_shard);
    for (size_t i = 0; i < channels; ++i) {
      shard->channels.push_back(
          std::make_unique<rpc::RpcChannel>(router->loop_.get(), copts));
    }
    router->shards_.push_back(std::move(shard));
  }
  return router;
}

Router::Router(const Options& options)
    : options_(options),
      loop_(std::make_shared<net::Reactor>("cluster.Router.shard_pool",
                                           lockdiag::kRankCluster,
                                           /*force_poll=*/false)),
      ring_(options.shards.size(),
            options.virtual_nodes == 0 ? 1 : options.virtual_nodes) {}

Router::~Router() {
  Stop();
  shards_.clear();  // Channels close while the loop object is alive.
}

Status Router::Start() {
  if (started_.exchange(true)) return Status::OK();
  stopping_ = false;
  deadline_hook_ = loop_->AddTickHook([this] { CheckDeadlines(); });
  if (Status status = loop_->Start(); !status.ok()) {
    loop_->RemoveTickHook(deadline_hook_);
    started_.store(false);
    return status;
  }
  stop_.store(false);
  prober_ = std::thread([this] { ProbeLoop(); });
  return Status::OK();
}

void Router::Stop() {
  if (!started_.load()) return;
  stop_.store(true);
  if (prober_.joinable()) prober_.join();
  loop_->RunSync([this] {
    stopping_ = true;
    FailPending();
  });
  loop_->Stop();  // Runs the answers FailPending queued.
  loop_->RemoveTickHook(deadline_hook_);
  started_.store(false);
}

StatusOr<std::string> Router::Await(std::function<void(Done)> start) {
  if (loop_->InLoopThread()) {
    return Status::Internal("blocking router call on the router's own loop");
  }
  auto answer = std::make_shared<std::promise<StatusOr<std::string>>>();
  std::future<StatusOr<std::string>> future = answer->get_future();
  if (!loop_->Post([start = std::move(start), answer] {
        start([answer](StatusOr<std::string> result) {
          answer->set_value(std::move(result));
        });
      })) {
    return Status::FailedPrecondition("router not started");
  }
  return future.get();
}

Router::CallPtr Router::NewCall(rpc::FrameType type, std::string payload,
                                Done done) {
  auto call = std::make_shared<Call>();
  call->type = type;
  call->expected = ExpectedReply(type);
  call->payload = std::move(payload);
  call->done = std::move(done);
  return call;
}

void Router::Forward(const std::string& route_key, rpc::FrameType type,
                     std::string payload, size_t max_waiting, Done done) {
  CallPtr call = NewCall(type, std::move(payload), std::move(done));
  if (type == rpc::FrameType::kRecommend) call->route_key = route_key;
  const size_t attempts =
      options_.max_attempts == 0 ? 1 : options_.max_attempts;
  call->candidates = ring_.Preference(route_key, attempts);
  call->count_reroutes = true;
  call->max_waiting = max_waiting;
  Begin(std::move(call));
}

StatusOr<std::string> Router::ForwardRecommend(const std::string& route_key,
                                               const std::string& payload) {
  return Await([this, route_key, payload](Done done) {
    Forward(route_key, rpc::FrameType::kRecommend, payload, kNoWaitBound,
            std::move(done));
  });
}

StatusOr<std::string> Router::ForwardObserve(const std::string& route_key,
                                             const std::string& payload) {
  return Await([this, route_key, payload](Done done) {
    Forward(route_key, rpc::FrameType::kObserve, payload, kNoWaitBound,
            std::move(done));
  });
}

StatusOr<std::string> Router::CallAny(rpc::FrameType type,
                                      const std::string& payload) {
  return Await([this, type, payload](Done done) {
    CallPtr call = NewCall(type, payload, std::move(done));
    for (size_t index = 0; index < shards_.size(); ++index) {
      call->candidates.push_back(index);
    }
    Begin(std::move(call));
  });
}

std::vector<Router::BroadcastResult> Router::Broadcast(
    rpc::FrameType type, const std::string& payload) {
  std::vector<BroadcastResult> results;
  results.reserve(shards_.size());
  for (size_t index = 0; index < shards_.size(); ++index) {
    results.push_back(BroadcastResult{
        shards_[index]->address, Await([this, type, payload, index](Done done) {
          CallPtr call = NewCall(type, payload, std::move(done));
          call->candidates = {index};
          call->once = true;
          Begin(std::move(call));
        })});
  }
  return results;
}

void Router::Begin(CallPtr call) {
  if (stopping_) {
    Finish(call, Status::Unavailable("router stopped"));
    return;
  }
  Advance(std::move(call));
}

void Router::Advance(CallPtr call) {
  if (call->once) {
    if (call->attempted) {
      Finish(call, call->last);  // The one attempt failed transport-wise.
      return;
    }
    call->attempted = true;
    const size_t index = call->candidates.front();
    Attempt(std::move(call), index);
    return;
  }
  // Pass 0 tries the healthy shards in preference order; pass 1 is the
  // last resort when the prober has everything marked down (its view may
  // be a probe interval stale — a shard that just came back deserves the
  // request rather than the client an error).
  for (; call->pass < 2; ++call->pass, call->next = 0) {
    while (call->next < call->candidates.size()) {
      const size_t index = call->candidates[call->next++];
      const bool healthy =
          shards_[index]->healthy.load(std::memory_order_relaxed);
      if ((call->pass == 0) != healthy) continue;
      if (call->attempted && call->count_reroutes) {
        reroutes_.fetch_add(1, std::memory_order_relaxed);
      }
      call->attempted = true;
      Attempt(std::move(call), index);
      return;
    }
  }
  // Transient by construction (every failure here was transport-level), so
  // surface as 503-shaped: clients should back off and retry.
  Finish(call,
         Status::ResourceExhausted("all shards failed: " + call->last.message()));
}

void Router::Attempt(CallPtr call, size_t index) {
  if (stopping_) {
    Finish(call, Status::Unavailable("router stopped"));
    return;
  }
  call->shard = index;
  Shard& shard = *shards_[index];
  if (rpc::RpcChannel* channel = FreeChannel(shard)) {
    Send(std::move(call), channel);
    return;
  }
  if (waiting_ >= call->max_waiting) {
    Finish(call, Status::ResourceExhausted(
                     "router overloaded: " + std::to_string(waiting_) +
                     " calls waiting for a shard connection"));
    return;
  }
  ++waiting_;
  shard.waiting.push_back(std::move(call));
}

void Router::Send(CallPtr call, rpc::RpcChannel* channel) {
  call->attempt_start = Clock::now();
  Call& sent = *call;
  channel->Call(sent.type, sent.payload,
                [this, call = std::move(call)](
                    StatusOr<rpc::RpcFrame> reply) mutable {
                  OnReply(std::move(call), std::move(reply));
                });
}

void Router::OnReply(CallPtr call, StatusOr<rpc::RpcFrame> reply) {
  const size_t index = call->shard;
  Shard& shard = *shards_[index];
  if (stopping_) {
    Finish(call, Status::Unavailable("router stopped"));
    return;
  }
  shard.requests.fetch_add(1, std::memory_order_relaxed);
  if (!reply.ok()) {
    // Transport failure: the channel closed itself and the shard is
    // suspect. The prober flips `healthy` back once pings succeed again.
    shard.errors.fetch_add(1, std::memory_order_relaxed);
    shard.healthy.store(false, std::memory_order_relaxed);
    // Calls waiting for this shard would meet the same fate: reroute them
    // now, with this call.
    std::deque<CallPtr> waiting;
    waiting.swap(shard.waiting);
    waiting_ -= waiting.size();
    waiting.push_front(std::move(call));
    for (CallPtr& pending : waiting) {
      pending->last = reply.status();
      pending->failed.push_back(index);
      Advance(std::move(pending));  // Reroute: next shard in its order.
    }
    return;
  }
  shard.latency.Record(ElapsedUs(call->attempt_start));
  shard.healthy.store(true, std::memory_order_relaxed);
  ServeWaiting(shard);  // The channel is free again.

  if (reply->type == rpc::FrameType::kError) {
    // The shard answered; the request (or its queue) is the problem.
    // Never rerouted: a second shard would say the same thing, slower.
    Finish(call, net::StatusFromErrorJson(reply->payload));
    return;
  }
  if (reply->type != call->expected) {
    call->last = Status::Internal(
        "unexpected reply frame type " +
        std::to_string(static_cast<int>(reply->type)));
    if (call->once) {
      Finish(call, call->last);
    } else {
      Advance(std::move(call));
    }
    return;
  }
  if (!call->route_key.empty()) {
    hot_keys_.Record(call->route_key, call->payload, index);
    // A reroute landed here: hand the survivor the failed shard's hot
    // questions so they come back warm, not cold.
    if (!call->failed.empty()) {
      const std::vector<size_t> failed = call->failed;
      SendWarmHintThenFinish(failed, index, std::move(call),
                             std::move(reply->payload));
      return;
    }
  }
  Finish(call, std::move(reply->payload));
}

rpc::RpcChannel* Router::FreeChannel(Shard& shard) {
  // An open idle connection first; else a closed slot, which dials.
  rpc::RpcChannel* closed = nullptr;
  for (const auto& channel : shard.channels) {
    if (channel->busy()) continue;
    if (channel->open()) return channel.get();
    if (closed == nullptr) closed = channel.get();
  }
  return closed;
}

void Router::ServeWaiting(Shard& shard) {
  while (!shard.waiting.empty()) {
    rpc::RpcChannel* channel = FreeChannel(shard);
    if (channel == nullptr) return;
    CallPtr next = std::move(shard.waiting.front());
    shard.waiting.pop_front();
    --waiting_;
    Send(std::move(next), channel);
  }
}

void Router::Finish(const CallPtr& call, StatusOr<std::string> result) {
  Done done = std::move(call->done);
  call->done = nullptr;
  if (!done) return;
  // Answers leave through the loop's queue, never from inside the state
  // machine, so a Done that starts the next call meets a settled router.
  (void)loop_->Post([done = std::move(done),
                     result = std::move(result)]() mutable {
    done(std::move(result));
  });
}

void Router::FailPending() {
  for (auto& shard : shards_) {
    std::deque<CallPtr> waiting;
    waiting.swap(shard->waiting);
    waiting_ -= waiting.size();
    for (const CallPtr& call : waiting) {
      Finish(call, Status::Unavailable("router stopped"));
    }
    for (const auto& channel : shard->channels) channel->Close();
  }
}

void Router::CheckDeadlines() {
  const auto now = Clock::now();
  for (const auto& shard : shards_) {
    for (const auto& channel : shard->channels) channel->CheckDeadline(now);
  }
}

void Router::SendWarmHintThenFinish(const std::vector<size_t>& failed,
                                    size_t target, CallPtr call,
                                    std::string reply) {
  constexpr size_t kWarmTopK = 8;
  constexpr int64_t kWarmCooldownMs = 1'000;
  const int64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             Clock::now().time_since_epoch())
                             .count();
  // Claim each failed shard's cooldown slot: one failover burst sends one
  // hint per failed shard, not one per rerouted request.
  std::vector<bool> source(shards_.size(), false);
  bool any = false;
  for (const size_t index : failed) {
    if (index == target || index >= shards_.size()) continue;
    int64_t& last_ms = shards_[index]->last_warm_ms;
    if (last_ms >= 0 && now_ms - last_ms < kWarmCooldownMs) continue;
    last_ms = now_ms;
    source[index] = true;
    any = true;
  }
  const std::vector<std::string> hot =
      any ? hot_keys_.TopK(source, kWarmTopK) : std::vector<std::string>{};
  if (hot.empty()) {
    Finish(call, std::move(reply));
    return;
  }

  // Payloads are raw JSON documents; splice them into one array.
  std::string body = "[";
  for (size_t i = 0; i < hot.size(); ++i) {
    if (i > 0) body.push_back(',');
    body.append(hot[i]);
  }
  body.push_back(']');
  CallPtr hint = NewCall(
      rpc::FrameType::kWarm, std::move(body),
      [this, keys = hot.size(), call = std::move(call),
       reply = std::move(reply)](StatusOr<std::string> ack) mutable {
        if (ack.ok()) {
          warm_hints_.fetch_add(1, std::memory_order_relaxed);
          warm_keys_.fetch_add(keys, std::memory_order_relaxed);
        }
        Finish(call, std::move(reply));
      });
  hint->candidates = {target};
  hint->once = true;
  Begin(std::move(hint));
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

namespace {

/// /livez, /healthz and /readyz: answered on the loop, so health answers
/// even when every handler thread is parked on a slow shard call.
std::optional<net::HttpResponse> HealthResponse(const net::HttpRequest& request,
                                                const Router& router) {
  const std::string path = request.Path();
  if (path == "/livez") return net::HttpResponse::Text(200, "ok\n");
  if (path == "/healthz" || path == "/readyz") {
    return router.healthy_shards() > 0
               ? net::HttpResponse::Text(200, "ok\n")
               : net::ErrorResponse(
                     Status::FailedPrecondition("no healthy shards"));
  }
  return std::nullopt;
}

/// A validated single recommend, ready to forward.
struct RoutedRecommend {
  std::string route_key;
  std::string payload;
};

/// The router validates before forwarding: a 400 must not cost a network
/// hop, and the parse yields the fields the route key hashes over.
StatusOr<RoutedRecommend> PrepareRecommend(const net::Json& json) {
  auto parsed = net::ParseRecommendRequest(json);
  if (!parsed.ok()) return parsed.status();
  // Version 0 in the key: the router does not know shard model versions,
  // and stability across reloads is exactly what keeps routing sticky.
  return RoutedRecommend{service::PredictionCache::MakeKey(
                             parsed->app, 0, parsed->params,
                             parsed->machine_type),
                         json.Dump()};
}

net::HttpResponse ForwardedReply(StatusOr<std::string> reply) {
  if (!reply.ok()) return net::ErrorResponse(reply.status());
  return net::HttpResponse::JsonBody(200, std::move(reply).value());
}

using ObservationGroups = std::map<std::string, std::vector<online::Observation>>;

/// Accepts both wire forms the standalone server does, then groups by app:
/// one app's observations must all reach the one shard that serves (and can
/// refit) that app.
StatusOr<ObservationGroups> GroupObservations(const std::string& body) {
  if (body.empty()) {
    return Status::InvalidArgument("empty observation body");
  }
  StatusOr<std::vector<online::Observation>> observations =
      Status::InvalidArgument("unparsed");
  if (body.size() >= sizeof(online::kObservationMagic) &&
      body.compare(0, sizeof(online::kObservationMagic),
                   online::kObservationMagic,
                   sizeof(online::kObservationMagic)) == 0) {
    observations = online::DecodeObservationBatch(body);
  } else {
    auto json = net::Json::Parse(body);
    if (!json.ok()) return json.status();
    observations = net::ParseObservationsJson(*json);
  }
  if (!observations.ok()) return observations.status();
  ObservationGroups by_app;
  for (online::Observation& o : *observations) {
    by_app[o.app].push_back(std::move(o));
  }
  return by_app;
}

/// {"shards":[{"app":...,"reply"|"error":...},...]} in app order.
net::HttpResponse ObserveResponse(
    const std::vector<std::string>& apps,
    const std::vector<StatusOr<std::string>>& replies) {
  std::string body = "{\"shards\":[";
  for (size_t i = 0; i < apps.size(); ++i) {
    if (i > 0) body.push_back(',');
    body.append("{\"app\":");
    body.append(net::Json::Str(apps[i]).Dump());  // Quoted + escaped.
    body.push_back(',');
    if (replies[i].ok()) {
      body.append("\"reply\":").append(*replies[i]);
    } else {
      body.append("\"error\":")
          .append(net::ErrorJson(replies[i].status()).Dump());
    }
    body.push_back('}');
  }
  body.append("]}");
  return net::HttpResponse::JsonBody(200, std::move(body));
}

}  // namespace

RouterHttpServer::RouterHttpServer(Router* router, const Options& options)
    : router_(router),
      max_waiting_(options.http.dispatch_queue_capacity),
      server_(
          router->loop(), options.http,
          [this](const net::HttpRequest& request) { return Handle(request); },
          [this](const net::HttpRequest& request,
                 net::HttpServer::Deferral& deferral) {
            return HandleOnLoop(request, deferral);
          }) {}

std::optional<net::HttpResponse> RouterHttpServer::HandleOnLoop(
    const net::HttpRequest& request, net::HttpServer::Deferral& deferral) {
  if (request.method == "GET") return HealthResponse(request, *router_);
  if (request.method != "POST") return std::nullopt;
  const std::string path = request.Path();
  if (path == "/v1/recommend") {
    auto json = net::Json::Parse(request.body);
    if (!json.ok()) return net::ErrorResponse(json.status());
    if (json->is_object() && json->Find("requests") != nullptr) {
      return std::nullopt;  // Batches fan out from the handler pool.
    }
    auto routed = PrepareRecommend(*json);
    if (!routed.ok()) return net::ErrorResponse(routed.status());
    router_->Forward(routed->route_key, rpc::FrameType::kRecommend,
                     std::move(routed->payload), max_waiting_,
                     [deferred = deferral.Take()](StatusOr<std::string> reply) {
                       deferred.Complete(ForwardedReply(std::move(reply)));
                     });
    return std::nullopt;
  }
  if (path == "/v1/observe") {
    auto groups = GroupObservations(request.body);
    if (!groups.ok()) return net::ErrorResponse(groups.status());
    // Every group is forwarded at once; the last reply answers the client.
    struct Gather {
      std::vector<std::string> apps;
      std::vector<StatusOr<std::string>> replies;
      size_t left = 0;
      net::HttpServer::Deferred deferred;
    };
    if (groups->empty()) return ObserveResponse({}, {});
    auto gather = std::make_shared<Gather>(
        Gather{{}, {}, groups->size(), deferral.Take()});
    for (const auto& [app, group] : *groups) gather->apps.push_back(app);
    gather->replies.assign(groups->size(), Status::Internal("no reply"));
    size_t slot = 0;
    for (const auto& [app, group] : *groups) {
      router_->Forward(app, rpc::FrameType::kObserve,
                       online::EncodeObservationBatch(group), max_waiting_,
                       [gather, slot](StatusOr<std::string> reply) {
                         gather->replies[slot] = std::move(reply);
                         if (--gather->left == 0) {
                           gather->deferred.Complete(ObserveResponse(
                               gather->apps, gather->replies));
                         }
                       });
      ++slot;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

net::HttpResponse RouterHttpServer::Handle(const net::HttpRequest& request) {
  const std::string path = request.Path();
  if (auto health = HealthResponse(request, *router_)) return *health;
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
    auto routed = PrepareRecommend(*json);
    if (!routed.ok()) return net::ErrorResponse(routed.status());
    return ForwardedReply(
        router_->ForwardRecommend(routed->route_key, routed->payload));
  }

  if (!batch->is_array()) {
    return net::ErrorResponse(
        Status::InvalidArgument("'requests' must be an array"));
  }
  // Validate every slot up front (same all-or-nothing 400 contract as the
  // standalone server), then route each to its own shard.
  std::vector<RoutedRecommend> slots;
  slots.reserve(batch->array_items().size());
  for (size_t i = 0; i < batch->array_items().size(); ++i) {
    auto routed = PrepareRecommend(batch->array_items()[i]);
    if (!routed.ok()) {
      return net::ErrorResponse(
          Status::InvalidArgument("requests[" + std::to_string(i) +
                                  "]: " + routed.status().message()));
    }
    slots.push_back(std::move(routed).value());
  }
  // Replies are raw JSON documents; splice them rather than reparse.
  std::string body = "{\"results\":[";
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) body.push_back(',');
    auto reply = router_->ForwardRecommend(slots[i].route_key,
                                           slots[i].payload);
    body.append(reply.ok() ? *reply
                           : net::ErrorJson(reply.status()).Dump());
  }
  body.append("]}");
  return net::HttpResponse::JsonBody(200, std::move(body));
}

net::HttpResponse RouterHttpServer::HandleObserve(
    const net::HttpRequest& request) {
  auto groups = GroupObservations(request.body);
  if (!groups.ok()) return net::ErrorResponse(groups.status());
  std::vector<std::string> apps;
  std::vector<StatusOr<std::string>> replies;
  for (const auto& [app, group] : *groups) {
    apps.push_back(app);
    replies.push_back(
        router_->ForwardObserve(app, online::EncodeObservationBatch(group)));
  }
  return ObserveResponse(apps, replies);
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
