// hot_recurring: the paper's recurring-application case. A standalone
// HttpRecommendServer answers a small fixed set of questions, all warm after
// set-up, so every read is a cache hit on the event-loop fast path; the rare
// observe writes are buffered by an online loop that never refits here.

#include <cstdio>

#include "net/http.h"
#include "net/json.h"
#include "net/recommend_codec.h"
#include "runs.h"

namespace perfbench {

using namespace juggler;  // NOLINT

namespace {

/// Sequential replay of the open-loop inputs with spans around each
/// layer's public entry point. Returns false on an inconsistent answer.
bool TraceHot(Standalone& stack, const Target& target, const OpStream& stream,
              uint64_t seed, AnswerLog* log, Result* result) {
  // The first reads of the open-loop sequence (writes are skipped: they
  // never reach the fast path this replay decomposes).
  Rng rng(seed);
  std::vector<Op> ops;
  while (ops.size() < kTraceOps) {
    const Op op = stream.Next(rng);
    if (!op.write) ops.push_back(op);
  }
  // Untraced reference pass over the same reads on one connection.
  std::vector<double> plain_us;
  {
    HttpClient client(target.port);
    for (const Op& op : ops) {
      const auto t0 = Clock::now();
      const HttpReply reply = client.RoundTrip((*target.questions)[op.index].wire);
      plain_us.push_back(MicrosBetween(t0, Clock::now()));
      if (reply.status != 200) return false;
    }
  }
  Tracer tr;
  HttpClient client(target.port);
  const net::HttpParser::Limits limits;
  bool consistent = true;
  for (const Op& op : ops) {
    const Question& q = (*target.questions)[op.index];
    const uint64_t rtt = tr.Begin("client.rtt");
    const HttpReply reply = client.RoundTrip(q.wire);
    tr.End(rtt);
    if (reply.status != 200 || !log->Record(op.index, 0, reply.body)) {
      consistent = false;
    }

    uint64_t span = tr.Begin("net.parse");
    net::HttpParser parser(limits);
    parser.Append(q.wire.data(), q.wire.size());
    net::HttpParser::Result parsed = parser.Next();
    tr.End(span);
    if (parsed.state != net::HttpParser::State::kReady) return false;

    const uint64_t handle = tr.Begin("net.handle", rtt);
    const std::optional<net::HttpResponse> fast =
        stack.server->HandleFast(parsed.request);
    tr.End(handle);
    if (!fast.has_value() || fast->body != reply.body) consistent = false;

    span = tr.Begin("net.decode", handle);
    auto json = net::Json::Parse(parsed.request.body);
    auto request = json.ok() ? net::ParseRecommendRequest(*json)
                             : StatusOr<service::RecommendRequest>(json.status());
    tr.End(span);
    if (!request.ok()) return false;

    span = tr.Begin("service.hit", handle);
    auto cached = stack.service->TryRecommendCached(*request);
    tr.End(span);
    if (!cached.has_value() || !cached->ok()) return false;

    span = tr.Begin("net.encode", handle);
    const std::string body = net::ResponseJson(request->app, **cached).Dump();
    const std::string wire = net::SerializeResponse(
        net::HttpResponse::JsonBody(200, body), true);
    tr.End(span);
    // The encode the span timed must be the answer the server sent.
    if (body != reply.body || wire.empty()) consistent = false;
  }
  result->Set("net.parse_us", tr.MedianUs("net.parse"), "us");
  result->Set("net.decode_us", tr.MedianUs("net.decode"), "us");
  result->Set("net.encode_us", tr.MedianUs("net.encode"), "us");
  result->Set("net.handle_us", tr.MedianUs("net.handle"), "us");
  result->Set("net.handle_self_us", tr.MedianSelfUs("net.handle"), "us");
  result->Set("net.loop_self_us", tr.MedianSelfUs("client.rtt"), "us");
  result->Set("service.hit_us", tr.MedianUs("service.hit"), "us");
  result->Set("trace.rtt_us", tr.MedianUs("client.rtt"), "us");
  const double plain = Median(plain_us);
  result->Set("trace.overhead_pct",
              100.0 * (tr.MedianUs("client.rtt") / plain - 1.0), "%");
  result->Set("trace.spans", static_cast<double>(tr.Count("client.rtt")),
              "count");
  return consistent;
}

}  // namespace

RunOutcome RunHotRecurring(const RunArgs& args) {
  Rng rng(args.seed);
  const std::vector<Question> questions = MakeQuestions(kHotQuestionsPerApp, rng);

  const OpStream stream(args.seed, questions.size(), 0.0, kHotWriteShare,
                        kHotWriteBatches);
  std::vector<double> setup_s;
  std::vector<double> train_s;
  TrainedSet set;
  Standalone stack;
  fs::path dir;
  AnswerLog log;
  Target target;
  target.questions = &questions;
  target.owner.assign(questions.size(), 0);
  target.write_ok = [](const std::string& body) {
    return body.find("\"ingested\"") != std::string::npos;
  };
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) {
      stack.Stop();
      fs::remove_all(dir);
      log = AnswerLog();
    }
    SpeedMeter meter;
    const double cpu0 = ProcessCpuSeconds();
    dir = FreshDir(args.work_root, "hot");
    set = TrainAll(meter);
    SaveAll(set, dir);
    stack.Start(dir, args.pools, 4096);
    target.port = stack.server->port();
    WarmUp(target, stream.MostPopular(questions.size()),
           args.pools.connections, &log);
    meter.Probe();
    setup_s.push_back(
        meter.AtReference(ProcessCpuSeconds() - cpu0 - meter.spent_s()));
    train_s.push_back(set.ref_s);
  }

  Oracle oracle;
  {
    Oracle::Models models;
    for (const auto& r : set.results) {
      models[r.trained.app_name()] =
          std::make_shared<const core::TrainedJuggler>(r.trained);
    }
    oracle.Set(0, stack.registry->version(), std::move(models));
  }
  Rng write_rng(args.seed ^ 0xabcdefULL);
  const std::vector<std::string> bodies =
      MakeObserveBodies(set, kHotWriteBatches, kRecordsPerWrite, 64, write_rng);
  std::vector<std::string> write_wires;
  for (const auto& b : bodies) write_wires.push_back(PostWire("/v1/observe", b));
  target.write_wires = &write_wires;

  const int conns = args.pools.connections;
  const auto stats0 = stack.server->http_stats();
  const PassStats closed =
      RunClosedBlocks(target, stream, args.seed, args.pools.nproc,
                      args.seconds * kClosedShare, &log);
  const PassStats open =
      RunOpenLoop(target, stream, args.seed + 1, conns, kHotRatePerS,
                  args.seconds * (1.0 - kClosedShare), &log);
  const auto stats1 = stack.server->http_stats();

  RunOutcome out;
  Result& r = out.result;
  if (!args.trace) {
    out.wrong = log.Verify(questions, oracle);
    SetServingMetrics(closed, open, out.wrong, &r);
    SetTrainingMetrics(train_s, set, &r);
    r.Set("setup_s", Median(setup_s), "s");
  } else {
    const double requests = static_cast<double>(stats1.requests - stats0.requests);
    r.Set("net.fast_path_ratio",
          static_cast<double>(stats1.fast_path - stats0.fast_path) / requests,
          "ratio");
    r.Set("net.overload_rejected",
          static_cast<double>(stats1.overload_rejected -
                              stats0.overload_rejected),
          "count");
    const auto svc = stack.service->GetStats();
    r.Set("service.hit_ratio", svc.cache.HitRate(), "ratio");
    r.Set("service.evictions", static_cast<double>(svc.cache.evictions),
          "count");
    r.Set("service.shed",
          static_cast<double>(svc.rejected + svc.deadline_shed), "count");
    SetLoadMetrics(closed, open, &r);
    if (!TraceHot(stack, target, stream, args.seed + 1, &log, &r)) {
      ++out.wrong;
    }
    out.wrong += log.Verify(questions, oracle);
    if (!TraceTraining(set, &r)) ++out.wrong;
  }
  out.attempted = closed.attempted + open.attempted;
  out.failed = closed.failed + open.failed + out.wrong;
  stack.Stop();
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
