// train_offline: what the owner of a new recurring app waits for. The four
// offline stages train the five HiBench apps at the §7.1 configuration, the
// fresh models answer their first questions in-process, and a held-out
// sweep checks the answers against simulator ground truth. No socket.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/dataset_metrics.h"
#include "core/hotspot.h"
#include "core/serialization.h"
#include "math/linear_model.h"
#include "minispark/engine.h"
#include "runs.h"

namespace perfbench {

using namespace juggler;  // NOLINT

void SetTrainingMetrics(const std::vector<double>& train_s,
                        const TrainedSet& set, Result* result) {
  const Quality q = EvaluateHeldOut(set);
  std::fprintf(stderr,
               "perfbench: held-out %d cases, %d optimal, pick cost %.3f %% "
               "of cheapest, prediction error %.3f %%\n",
               q.cases, q.optimal, q.pick_cost_pct, q.predict_err_pct);
  result->Set("train_s", Median(train_s), "s");
  result->Set("train_cost_machine_min", set.cost_machine_min, "machine-min");
  result->Set("pick_cost_pct", q.pick_cost_pct, "%");
  result->Set("predict_err_pct", q.predict_err_pct, "%");
}

bool TraceTraining(const TrainedSet& reference, Result* result) {
  SpeedMeter meter;
  const double untraced_s = TrainAll(meter).wall_s;
  Tracer tr;
  uint64_t factory_calls = 0;
  double sample_tasks = 0.0;
  bool same = true;
  const auto& all = workloads::AllWorkloads();
  for (size_t a = 0; a < all.size(); ++a) {
    const auto& w = all[a];
    const core::JugglerConfig config = PaperTrainingConfig(w);
    const core::AppFactory counted = [&](const minispark::AppParams& p) {
      ++factory_calls;
      return w.make(p);
    };

    // TrainJuggler, stage by stage, with a span around each public call.
    minispark::RunOptions sample_options = config.run_options;
    sample_options.instrument = true;
    const minispark::Engine sample_engine(sample_options);
    uint64_t span = tr.Begin("minispark.sample_run");
    auto sample = sample_engine.RunDefault(counted(config.sample_params),
                                           config.training_node);
    tr.End(span);
    if (!sample.ok()) return false;
    for (const auto& stage : sample->profile->stages()) {
      sample_tasks += stage.num_tasks;
    }
    span = tr.Begin("core.derive");
    auto metrics = core::DeriveDatasetMetrics(*sample->profile);
    const core::MergedDag dag = core::BuildMergedDag(*sample->profile);
    tr.End(span);
    if (!metrics.ok()) return false;
    span = tr.Begin("core.hotspot");
    auto schedules = core::DetectHotspots(dag, *metrics, config.hotspot);
    tr.End(span);
    if (!schedules.ok() || schedules->empty()) return false;
    const uint64_t size_span = tr.Begin("core.size_calib");
    auto sizes = core::CalibrateSizes(counted, *schedules, config.size_grid,
                                      config.training_node, config.run_options);
    tr.End(size_span);
    if (!sizes.ok()) return false;
    const core::Schedule* calib = &schedules->front();
    for (const core::Schedule& s : *schedules) {
      if (s.memory_bytes > calib->memory_bytes) calib = &s;
    }
    const uint64_t memory_span = tr.Begin("core.memory_calib");
    auto memory = core::CalibrateMemory(
        counted, *calib, *sizes, config.machine_type, config.memory_reference,
        config.memory_reference.iterations, config.run_options);
    tr.End(memory_span);
    if (!memory.ok()) return false;
    std::vector<math::LinearModel> time_models;
    std::vector<uint64_t> time_spans;
    for (const core::Schedule& schedule : *schedules) {
      time_spans.push_back(tr.Begin("core.time_model"));
      auto tm = core::BuildTimeModel(counted, schedule, *sizes,
                                     memory->memory_factor,
                                     config.machine_type, config.time_grid,
                                     config.run_options);
      tr.End(time_spans.back());
      if (!tm.ok()) return false;
      time_models.push_back(std::move(tm->model));
    }
    const core::TrainedJuggler walked(w.name, *schedules, *sizes, *memory,
                                      time_models);
    if (core::TrainedJugglerToString(walked) !=
        core::TrainedJugglerToString(reference.results[a].trained)) {
      std::fprintf(stderr, "perfbench: stage walk of %s differs from "
                           "TrainJuggler\n", w.name.c_str());
      same = false;
    }

    // The stages' simulated runs, replayed as children of their stage so a
    // stage's self time is its span minus its runs.
    minispark::RunOptions options = config.run_options;
    options.instrument = true;
    for (double e : config.size_grid.examples) {
      for (double f : config.size_grid.features) {
        span = tr.Begin("minispark.run", size_span);
        auto run = minispark::Engine(options).RunDefault(
            w.make({e, f, config.size_grid.iterations}), config.training_node);
        tr.End(span);
        if (!run.ok()) return false;
        options.seed += 1;
      }
    }
    minispark::RunOptions controlled = config.run_options;
    controlled.noise_sigma = 0.0;
    controlled.straggler_prob = 0.0;
    span = tr.Begin("minispark.run", memory_span);
    auto calib_run = minispark::Engine(controlled).Run(
        w.make(memory->chosen_params), config.machine_type.WithMachines(1),
        calib->plan);
    tr.End(span);
    if (!calib_run.ok()) return false;
    for (size_t k = 0; k < schedules->size(); ++k) {
      const core::Schedule& schedule = (*schedules)[k];
      options = config.run_options;
      std::vector<math::Observation> points;
      for (double e : config.time_grid.examples) {
        for (double f : config.time_grid.features) {
          const minispark::AppParams params{e, f, config.time_grid.iterations};
          auto bytes = core::PredictScheduleBytes(schedule, *sizes, params);
          if (!bytes.ok()) return false;
          const int machines = core::RecommendMachines(
              *bytes, config.machine_type, memory->memory_factor);
          span = tr.Begin("minispark.run", time_spans[k]);
          auto run = minispark::Engine(options).Run(
              w.make(params), config.machine_type.WithMachines(machines),
              schedule.plan);
          tr.End(span);
          if (!run.ok()) return false;
          points.push_back(math::Observation{params.AsVector(),
                                             run->duration_ms});
          options.seed += 1;
        }
      }
      span = tr.Begin("math.fit");
      auto fit = math::SelectModelByCrossValidation(
          math::MakeTimeModelFamilies(), points);
      tr.End(span);
      // The replayed runs must be the stage's runs: refitting them gives
      // the stage's model back exactly.
      if (!fit.ok()) return false;
      for (const auto& p : points) {
        if (fit->Predict(p.params) != time_models[k].Predict(p.params)) {
          std::fprintf(stderr, "perfbench: replayed time model of %s "
                               "differs\n", w.name.c_str());
          same = false;
          break;
        }
      }
    }
  }

  double walk_us = 0.0;
  for (const char* stage : {"minispark.sample_run", "core.derive",
                            "core.hotspot", "core.size_calib",
                            "core.memory_calib", "core.time_model"}) {
    walk_us += tr.TotalUs(stage);
  }
  result->Set("trace.train_overhead_pct",
              100.0 * (walk_us / 1e6 / untraced_s - 1.0), "%");
  const double sample_s = tr.TotalUs("minispark.sample_run") / 1e6;
  for (const char* stage : {"core.derive", "core.hotspot"}) {
    result->Set(std::string(stage) + "_ms", tr.TotalUs(stage) / 1000.0, "ms");
  }
  for (const char* stage :
       {"core.size_calib", "core.memory_calib", "core.time_model"}) {
    result->Set(std::string(stage) + "_ms", tr.TotalUs(stage) / 1000.0, "ms");
    result->Set(std::string(stage) + "_self_ms",
                tr.TotalSelfUs(stage) / 1000.0, "ms");
  }
  result->Set("minispark.runs", static_cast<double>(factory_calls), "count");
  result->Set("minispark.run_ms", tr.MedianUs("minispark.run") / 1000.0, "ms");
  result->Set("minispark.tasks_per_s", sample_tasks / sample_s, "1/s");
  result->Set("math.fit_us", tr.MedianUs("math.fit"), "us");
  return same;
}

namespace {

size_t CountAnswers(const std::vector<std::vector<double>>& latency_us) {
  size_t n = 0;
  for (const auto& per_thread : latency_us) n += per_thread.size();
  return n;
}

}  // namespace

RunOutcome RunTrainOffline(const RunArgs& args) {
  std::vector<double> setup_s;
  TrainedSet set;
  std::shared_ptr<service::ModelRegistry> registry;
  fs::path dir;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) fs::remove_all(dir);
    SpeedMeter meter;
    const double cpu0 = ProcessCpuSeconds();
    dir = FreshDir(args.work_root, "train");
    set = TrainAll(meter);
    SaveAll(set, dir);
    registry = std::make_shared<service::ModelRegistry>(dir.string());
    if (auto st = registry->Refresh(); !st.ok() || registry->size() != 5) {
      Die("registry over the trained models: " + st.ToString());
    }
    meter.Probe();
    setup_s.push_back(
        meter.AtReference(ProcessCpuSeconds() - cpu0 - meter.spent_s()));
  }
  std::vector<std::string> reference;
  for (const auto& r : set.results) {
    reference.push_back(core::TrainedJugglerToString(r.trained));
  }

  RunOutcome out;
  const auto window_start = Clock::now();
  // Training passes for the first two thirds of the window.
  SpeedMeter pass_meter;
  std::vector<double> train_s;
  while (SecondsBetween(window_start, Clock::now()) < args.seconds * 2.0 / 3.0 ||
         train_s.empty()) {
    const TrainedSet pass = TrainAll(pass_meter);
    train_s.push_back(pass.ref_s);
    for (size_t a = 0; a < pass.results.size(); ++a) {
      ++out.attempted;
      if (core::TrainedJugglerToString(pass.results[a].trained) !=
          reference[a]) {
        ++out.wrong;
      }
    }
  }

  // The fresh models' first answers, in-process on `connections` threads,
  // in kBlocks blocks with the speed probe between them.
  Rng rng(args.seed);
  const std::vector<Question> questions = MakeQuestions(20, rng);
  std::vector<std::shared_ptr<const core::TrainedJuggler>> models;
  std::vector<std::string> expected;
  for (const Question& q : questions) {
    auto model = registry->Lookup(q.app);
    if (!model.ok()) Die(model.status().ToString());
    models.push_back(*model);
    expected.push_back(ExpectedBody(**model, q, false, 0));
  }
  const int threads_n = args.pools.connections;
  std::vector<std::vector<double>> latency_us(static_cast<size_t>(threads_n));
  std::vector<uint64_t> wrong(static_cast<size_t>(threads_n), 0);
  std::vector<double> block_cpu_us;  // Per answer, at the reference speed.
  double answers_elapsed = 0.0;
  double probe_before = pass_meter.Probe();
  for (int block = 0; block < kBlocks; ++block) {
    std::vector<double> cpu_s(static_cast<size_t>(threads_n), 0.0);
    const size_t answers_before = CountAnswers(latency_us);
    const auto block_start = Clock::now();
    const auto block_end =
        block_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(args.seconds / 3.0 /
                                                        kBlocks));
    std::vector<std::thread> threads;
    for (int t = 0; t < threads_n; ++t) {
      threads.emplace_back([&, t] {
        Rng pick(args.seed * 7919 +
                 static_cast<uint64_t>(block * threads_n + t));
        auto& mine = latency_us[static_cast<size_t>(t)];
        const double cpu0 = ThreadCpuSeconds();
        while (Clock::now() < block_end) {
          const size_t i = pick.Below(questions.size());
          const auto& r = questions[i].request;
          const auto t0 = Clock::now();
          auto recs =
              models[i]->Recommend(r.params, r.machine_type, r.objective);
          mine.push_back(MicrosBetween(t0, Clock::now()));
          if (!recs.ok() || recs->empty()) ++wrong[static_cast<size_t>(t)];
        }
        cpu_s[static_cast<size_t>(t)] = ThreadCpuSeconds() - cpu0;
      });
    }
    for (auto& t : threads) t.join();
    answers_elapsed += SecondsBetween(block_start, Clock::now());
    const double probe_after = pass_meter.Probe();
    double block_cpu_s = 0.0;
    for (double c : cpu_s) block_cpu_s += c;
    const size_t block_answers = CountAnswers(latency_us) - answers_before;
    block_cpu_us.push_back(1e6 * block_cpu_s * kProbeReferenceS /
                           ((probe_before + probe_after) / 2.0) /
                           static_cast<double>(std::max<size_t>(1, block_answers)));
    probe_before = probe_after;
  }
  std::vector<double> answer_ms;
  for (size_t t = 0; t < latency_us.size(); ++t) {
    for (double us : latency_us[t]) answer_ms.push_back(us / 1000.0);
    out.wrong += wrong[t];
  }
  out.attempted += answer_ms.size();
  // Sampled answers must equal the served reference.
  for (size_t i = 0; i < questions.size(); ++i) {
    ++out.attempted;
    if (ExpectedBody(*models[i], questions[i], false, 0) != expected[i] ||
        expected[i].rfind("error", 0) == 0) {
      ++out.wrong;
    }
  }

  Result& r = out.result;
  if (!args.trace) {
    const LatencySummary answers = Summarize(answer_ms);
    std::fprintf(stderr,
                 "perfbench: %zu training passes, %zu answers, p99 %.4f ms\n",
                 train_s.size(), answers.count, answers.p99);
    r.Set("setup_s", Median(setup_s), "s");
    r.Set("cpu_us_per_req", Median(block_cpu_us), "us");
    r.Set("success_ratio",
          1.0 - static_cast<double>(out.wrong) /
                    static_cast<double>(out.attempted),
          "ratio");
    SetTrainingMetrics(train_s, set, &r);
  } else {
    r.Set("loadgen.throughput_rps",
          static_cast<double>(answer_ms.size()) / answers_elapsed, "req/s");
    r.Set("loadgen.read_p50_ms", NearestRank(answer_ms, 0.50), "ms");
    r.Set("loadgen.read_p99_ms", NearestRank(answer_ms, 0.99), "ms");
    r.Set("loadgen.read_samples", static_cast<double>(answer_ms.size()),
          "count");
    if (!TraceTraining(set, &r)) ++out.wrong;
  }
  out.failed = out.wrong;
  registry.reset();
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
