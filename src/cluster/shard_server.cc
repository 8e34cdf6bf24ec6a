#include "cluster/shard_server.h"

#include "net/json.h"
#include "net/recommend_codec.h"

namespace juggler::cluster {

namespace {

rpc::RpcFrame ErrorFrame(const Status& status) {
  rpc::RpcFrame frame;
  frame.type = rpc::FrameType::kError;
  frame.payload = net::ErrorJson(status).Dump();
  return frame;
}

rpc::RpcFrame Reply(rpc::FrameType type, std::string payload) {
  rpc::RpcFrame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  return frame;
}

rpc::RpcFrame RecommendReply(const std::string& app,
                             const StatusOr<service::RecommendResponse>& answer) {
  if (!answer.ok()) return ErrorFrame(answer.status());
  return Reply(rpc::FrameType::kRecommendReply,
               net::ResponseJson(app, *answer).Dump());
}

StatusOr<service::RecommendRequest> ParseRecommendPayload(
    const std::string& payload) {
  auto json = net::Json::Parse(payload);
  if (!json.ok()) return json.status();
  return net::ParseRecommendRequest(*json);
}

}  // namespace

ShardServer::ShardServer(
    std::shared_ptr<service::ModelRegistry> registry,
    std::shared_ptr<service::RecommendationService> service,
    const Options& options)
    : registry_(std::move(registry)),
      service_(std::move(service)),
      online_(options.online),
      server_(
          options.rpc,
          [this](const rpc::RpcFrame& request) { return Handle(request); },
          [this](const rpc::RpcFrame& request,
                 rpc::RpcServer::Deferral& deferral) {
            return HandleOnLoop(request, &deferral);
          }) {}

rpc::RpcFrame ShardServer::Handle(const rpc::RpcFrame& request) {
  switch (request.type) {
    case rpc::FrameType::kRecommend:
      return HandleRecommend(request);
    case rpc::FrameType::kApps:
      return HandleApps();
    case rpc::FrameType::kReload:
      return HandleReload();
    case rpc::FrameType::kObserve:
      return HandleObserve(request);
    case rpc::FrameType::kWarm:
      return HandleWarm(request);
    default:
      return ErrorFrame(Status::InvalidArgument(
          "unsupported frame type " +
          std::to_string(static_cast<int>(request.type))));
  }
}

std::optional<rpc::RpcFrame> ShardServer::HandleFast(
    const rpc::RpcFrame& request) {
  return HandleOnLoop(request, nullptr);
}

std::optional<rpc::RpcFrame> ShardServer::HandleOnLoop(
    const rpc::RpcFrame& request, rpc::RpcServer::Deferral* deferral) {
  if (request.type != rpc::FrameType::kRecommend) return std::nullopt;
  auto parsed = ParseRecommendPayload(request.payload);
  if (!parsed.ok()) return ErrorFrame(parsed.status());  // No pool hop.
  auto cached = service_->TryRecommendCached(*parsed);
  if (cached.has_value()) return RecommendReply(parsed->app, *cached);
  if (deferral == nullptr) return std::nullopt;  // Cold key: full path.
  // Cold key: the parsed request goes straight to the service's workers,
  // whose callback answers the frame — no handler-pool hop, no second parse.
  std::string app = parsed->app;
  service_->RecommendThen(
      std::move(parsed).value(),
      [app = std::move(app), deferred = deferral->Take()](
          StatusOr<service::RecommendResponse> answer) {
        deferred.Complete(RecommendReply(app, answer));
      });
  return std::nullopt;
}

rpc::RpcFrame ShardServer::HandleRecommend(const rpc::RpcFrame& request) {
  auto parsed = ParseRecommendPayload(request.payload);
  if (!parsed.ok()) return ErrorFrame(parsed.status());
  return RecommendReply(parsed->app, service_->Recommend(*parsed));
}

rpc::RpcFrame ShardServer::HandleObserve(const rpc::RpcFrame& request) {
  if (online_ == nullptr) {
    return ErrorFrame(Status::FailedPrecondition(
        "online adaptation disabled on this shard"));
  }
  const online::FeedbackCollector::Stats before =
      online_->collector().GetStats();
  if (Status added = online_->ObserveEncoded(request.payload); !added.ok()) {
    return ErrorFrame(added);
  }
  const online::FeedbackCollector::Stats after =
      online_->collector().GetStats();
  net::Json out = net::Json::Obj();
  out.Set("accepted", net::Json::Number(static_cast<double>(
                          after.ingested - before.ingested)))
      .Set("buffered", net::Json::Number(static_cast<double>(after.buffered)));
  return Reply(rpc::FrameType::kObserveReply, out.Dump());
}

rpc::RpcFrame ShardServer::HandleWarm(const rpc::RpcFrame& request) {
  auto json = net::Json::Parse(request.payload);
  if (!json.ok()) return ErrorFrame(json.status());
  if (!json->is_array()) {
    return ErrorFrame(
        Status::InvalidArgument("warm hint must be a JSON array"));
  }
  // Best effort by contract: unparsable entries are skipped (the router
  // assembled this from requests another shard already served, so they
  // normally all parse), and evaluation happens asynchronously — the reply
  // only acknowledges that the warm-up was queued, it never waits for it.
  size_t warmed = 0;
  for (const net::Json& item : json->array_items()) {
    auto parsed = net::ParseRecommendRequest(item);
    if (!parsed.ok()) continue;
    (void)service_->RecommendAsync(std::move(parsed).value());
    ++warmed;
  }
  warms_.fetch_add(warmed, std::memory_order_relaxed);
  net::Json out = net::Json::Obj();
  out.Set("warmed", net::Json::Number(static_cast<double>(warmed)));
  return Reply(rpc::FrameType::kWarmReply, out.Dump());
}

rpc::RpcFrame ShardServer::HandleApps() const {
  net::Json apps = net::Json::Arr();
  for (const std::string& name : registry_->AppNames()) {
    apps.Append(net::Json::Str(name));
  }
  net::Json out = net::Json::Obj();
  out.Set("version",
          net::Json::Number(static_cast<double>(registry_->version())))
      .Set("apps", std::move(apps));
  return Reply(rpc::FrameType::kAppsReply, out.Dump());
}

rpc::RpcFrame ShardServer::HandleReload() {
  if (Status status = registry_->Refresh(); !status.ok()) {
    return ErrorFrame(status);
  }
  const auto refresh = registry_->last_refresh();
  net::Json stats = net::Json::Obj();
  stats
      .Set("scanned", net::Json::Number(static_cast<double>(refresh.scanned)))
      .Set("parsed", net::Json::Number(static_cast<double>(refresh.parsed)))
      .Set("reused", net::Json::Number(static_cast<double>(refresh.reused)))
      .Set("removed", net::Json::Number(static_cast<double>(refresh.removed)))
      .Set("failed", net::Json::Number(static_cast<double>(refresh.failed)));
  net::Json out = net::Json::Obj();
  out.Set("version",
          net::Json::Number(static_cast<double>(registry_->version())))
      .Set("models", net::Json::Number(static_cast<double>(registry_->size())))
      .Set("refresh", std::move(stats));
  return Reply(rpc::FrameType::kReloadReply, out.Dump());
}

}  // namespace juggler::cluster
