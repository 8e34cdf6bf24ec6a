#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/juggler.h"
#include "core/serialization.h"
#include "fuzz/harnesses.h"
#include "net/http.h"
#include "net/http_recommend_server.h"
#include "net/json.h"
#include "online/online_loop.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"
#include "workloads/workloads.h"

namespace juggler::fuzz {

namespace {

/// One registry + service + server built on first use and shared by every
/// input. The fixture is only read after construction (the one exception,
/// POST /v1/reload, re-scans a directory whose fingerprints never change —
/// a by-pointer reuse, not a reparse), so inputs stay independent.
struct ServerFixture {
  std::shared_ptr<service::ModelRegistry> registry;
  std::shared_ptr<service::RecommendationService> service;
  std::shared_ptr<online::OnlineJuggler> online;
  std::unique_ptr<net::HttpRecommendServer> server;

  ServerFixture() {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "juggler_fuzz_recommend_registry";
    fs::create_directories(dir);
    const auto workload = workloads::GetWorkload("svm").value();
    core::JugglerConfig config;
    config.time_grid = core::TrainingGrid{{4000, 8000}, {1000, 2000}, 2};
    config.memory_reference = workload.paper_params;
    config.run_options.noise_sigma = 0.0;
    config.run_options.straggler_prob = 0.0;
    auto training = core::TrainJuggler("svm", workload.make, config);
    JUGGLER_FUZZ_CHECK(training.ok(), "fixture training succeeds");
    {
      std::ofstream out(dir / "svm.model");
      JUGGLER_FUZZ_CHECK(
          core::SaveTrainedJuggler(training->trained, out).ok(),
          "fixture artifact writes");
    }
    registry = std::make_shared<service::ModelRegistry>(dir.string());
    JUGGLER_FUZZ_CHECK(registry->Refresh().ok(), "fixture registry loads");
    service::RecommendationService::Options service_options;
    service_options.num_workers = 2;
    service_options.queue_capacity = 64;
    service = std::make_shared<service::RecommendationService>(
        registry, service_options);
    net::HttpRecommendServer::Options server_options;
    server_options.http.limits.max_header_bytes = 2048;
    server_options.http.limits.max_body_bytes = 4096;
    // Online ingest enabled (refit thread not started) so POST /v1/observe
    // reaches the JSON observation decoder instead of 503ing at the door.
    online = std::make_shared<online::OnlineJuggler>(
        registry, service, online::OnlineJuggler::Options{});
    server_options.online = online;
    server = std::make_unique<net::HttpRecommendServer>(registry, service,
                                                        server_options);
    // Start() is never called: requests are driven straight into
    // HandleFast()/Handle(), which is the in-memory transport.
  }
};

ServerFixture& Fixture() {
  static ServerFixture fixture;
  return fixture;
}

}  // namespace

int RunRecommendServer(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  ServerFixture& fixture = Fixture();

  net::HttpParser::Limits limits;
  limits.max_header_bytes = 2048;
  limits.max_body_bytes = 4096;
  net::HttpParser parser(limits);

  // First byte picks the Append() chunking, as in RunHttpParser, so the
  // whole request path sees segment-split framing too.
  const size_t chunk = data[0] == 0 ? size : (data[0] % 97) + 1;
  const char* bytes = reinterpret_cast<const char*>(data) + 1;
  size_t remaining = size - 1;
  while (true) {
    while (true) {
      const net::HttpParser::Result result = parser.Next();
      if (result.state == net::HttpParser::State::kError) {
        // The event loop answers with ErrorResponse-style framing and
        // closes; nothing further to route.
        return 0;
      }
      if (result.state == net::HttpParser::State::kNeedMore) break;
      const net::HttpRequest& request = result.request;
      // Exactly the event-loop contract: try the inline fast path, fall
      // through to the handler-pool path.
      auto fast = fixture.server->HandleFast(request);
      const net::HttpResponse response =
          fast.has_value() ? *std::move(fast)
                           : fixture.server->Handle(request);
      JUGGLER_FUZZ_CHECK(response.status >= 200 && response.status <= 599,
                         "route responses use a real HTTP status");
      if (response.status == 200 && request.Path() == "/v1/recommend") {
        // Answers are written directly, not dumped from a tree: each must
        // still be exactly what the tree would print for the same document.
        auto reparsed = net::Json::Parse(response.body);
        JUGGLER_FUZZ_CHECK(reparsed.ok(), "recommend answers are valid JSON");
        JUGGLER_FUZZ_CHECK(reparsed->Dump() == response.body,
                           "recommend answers re-dump byte for byte");
      }
      const std::string wire =
          net::SerializeResponse(response, request.KeepAlive());
      JUGGLER_FUZZ_CHECK(wire.rfind("HTTP/1.1 ", 0) == 0,
                         "responses start with a status line");
      JUGGLER_FUZZ_CHECK(wire.find("\r\n\r\n") != std::string::npos,
                         "responses terminate their header section");
    }
    if (remaining == 0) break;
    const size_t n = std::min(chunk, remaining);
    parser.Append(bytes, n);
    bytes += n;
    remaining -= n;
  }
  return 0;
}

}  // namespace juggler::fuzz
