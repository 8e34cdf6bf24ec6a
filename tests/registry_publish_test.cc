// Mid-serve publishing: the ModelPublisher's write-temp-then-rename swap
// against live ModelRegistry readers. Every test here runs real threads over
// a real directory — under TSan (the CI thread-sanitizer job builds this
// binary) any torn read, lost refresh, or racy eviction becomes a report.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "online/model_publisher.h"
#include "service/model_registry.h"
#include "workloads/workloads.h"

namespace juggler::online {
namespace {

namespace fs = std::filesystem;
using core::TrainedJuggler;

TrainedJuggler TrainSmall(const std::string& name, int iterations = 5) {
  const auto w = workloads::GetWorkload(name).value();
  core::JugglerConfig config;
  config.time_grid =
      core::TrainingGrid{{4000, 8000, 16000}, {1000, 2000, 4000}, iterations};
  config.memory_reference = w.paper_params;
  config.run_options.noise_sigma = 0.0;
  config.run_options.straggler_prob = 0.0;
  auto training = core::TrainJuggler(name, w.make, config);
  EXPECT_TRUE(training.ok()) << training.status().ToString();
  return std::move(training)->trained;
}

/// The same model with scaled time coefficients — a distinguishable variant
/// for swap tests.
TrainedJuggler Variant(const TrainedJuggler& model, double scale) {
  std::vector<math::LinearModel> scaled = model.time_models();
  for (math::LinearModel& m : scaled) {
    std::vector<double> coeffs = m.coefficients();
    for (double& c : coeffs) c *= scale;
    EXPECT_TRUE(m.SetCoefficients(std::move(coeffs)).ok());
  }
  return TrainedJuggler(model.app_name(), model.schedules(), model.sizes(),
                        model.memory(), std::move(scaled));
}

/// Tells Variant()s of one model apart: the sum of its time-model
/// coefficients.
double ModelTag(const TrainedJuggler& model) {
  double sum = 0.0;
  for (const math::LinearModel& m : model.time_models()) {
    for (double c : m.coefficients()) sum += c;
  }
  return sum;
}

fs::path MakeModelDir(const std::string& test_name) {
  const fs::path dir =
      fs::path(testing::TempDir()) / ("publish_" + test_name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(RegistryPublishTest, ReadersNeverSeeATornArtifact) {
  const fs::path dir = MakeModelDir("torn");
  const TrainedJuggler a = TrainSmall("svm");
  const TrainedJuggler b = Variant(a, 2.0);
  ModelPublisher publisher(dir.string());
  ASSERT_TRUE(publisher.Publish(a).ok());

  auto registry = std::make_shared<service::ModelRegistry>(dir.string());
  ASSERT_TRUE(registry->Refresh().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> resolved{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = registry->Resolve("svm");
        // A swap must never surface as a missing or unparsable model: the
        // rename either happened (new model) or did not (old model).
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(r->model->app_name(), "svm");
        ASSERT_EQ(r->model->time_models().size(),
                  r->model->schedules().size());
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread refresher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(registry->Refresh().ok());
    }
  });

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(publisher.Publish(i % 2 == 0 ? b : a).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  refresher.join();
  EXPECT_GT(resolved.load(), 0u);
  EXPECT_EQ(publisher.GetStats().failures, 0u);
}

TEST(RegistryPublishTest, CorruptArtifactDegradesToLastGoodUntilRepublish) {
  const fs::path dir = MakeModelDir("corrupt");
  const TrainedJuggler good = TrainSmall("svm");
  ModelPublisher publisher(dir.string());
  ASSERT_TRUE(publisher.Publish(good).ok());

  service::ModelRegistry registry(dir.string());
  ASSERT_TRUE(registry.Refresh().ok());
  const uint64_t version = registry.version();

  // A writer that bypasses the publisher (or a torn disk) corrupts the
  // artifact in place. Refresh keeps serving the parsed last-good copy.
  std::ofstream(dir / "svm.model") << "not a model";
  ASSERT_TRUE(registry.Refresh().ok());
  auto still = registry.Resolve("svm");
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_EQ(still->model->app_name(), "svm");
  EXPECT_EQ(registry.last_refresh().failed, 1u);

  // Recovery is a plain republish: the atomic swap replaces the corrupt
  // bytes and the next refresh serves the new artifact as a new version.
  ASSERT_TRUE(publisher.Publish(good).ok());
  ASSERT_TRUE(registry.Refresh().ok());
  auto recovered = registry.Resolve("svm");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(registry.version(), version);
}

TEST(RegistryPublishTest, SwapsRaceCleanlyWithLazyEviction) {
  const fs::path dir = MakeModelDir("lazy_evict");
  const TrainedJuggler svm = TrainSmall("svm");
  const TrainedJuggler pca = TrainSmall("pca");
  ModelPublisher publisher(dir.string());
  ASSERT_TRUE(publisher.Publish(svm).ok());
  ASSERT_TRUE(publisher.Publish(pca).ok());

  // One resident model and an aggressive TTL: every swap races the LRU/TTL
  // eviction path as well as the readers.
  service::ModelRegistry::Options options;
  options.lazy_load = true;
  options.max_loaded = 1;
  options.ttl_ms = 1;
  auto registry =
      std::make_shared<service::ModelRegistry>(dir.string(), options);
  ASSERT_TRUE(registry->Refresh().ok());

  // A reader whose snapshot predates a publish that no refresh has picked
  // up yet gets UNAVAILABLE; every answer it does get must be the model of
  // the version it is labelled with, i.e. one model per (app, version).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  Mutex seen_mu;
  std::map<std::pair<std::string, uint64_t>, double> seen;
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const std::string app = (t % 2 == 0) ? "svm" : "pca";
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = registry->Resolve(app);
        if (!r.ok()) {
          ASSERT_EQ(r.status().code(), StatusCode::kUnavailable)
              << r.status().ToString();
          continue;
        }
        ASSERT_EQ(r->model->app_name(), app);
        const double tag = ModelTag(*r->model);
        MutexLock lock(seen_mu);
        const auto [it, first] = seen.emplace(std::pair(app, r->version), tag);
        ASSERT_EQ(it->second, tag) << app << " v" << r->version
                                   << " served two different models";
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const TrainedJuggler svm2 = Variant(svm, 2.0);
  const TrainedJuggler pca2 = Variant(pca, 2.0);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(publisher.Publish(i % 2 == 0 ? svm2 : svm).ok());
    ASSERT_TRUE(publisher.Publish(i % 2 == 0 ? pca2 : pca).ok());
    ASSERT_TRUE(registry->Refresh().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(registry->evictions(), 0u);
  EXPECT_GT(answered.load(), 0u);
}

// Registries detect a publish by its (mtime, size) fingerprint, and file
// timestamps are coarse: a same-sized republish within one clock tick would
// be invisible. The publisher must move the mtime past the incumbent's even
// when the clock has not (here the incumbent's mtime is set ahead of it).
TEST(RegistryPublishTest, PublishAlwaysAdvancesTheArtifactMtime) {
  const fs::path dir = MakeModelDir("mtime");
  const TrainedJuggler a = TrainSmall("svm");
  ModelPublisher publisher(dir.string());
  ASSERT_TRUE(publisher.Publish(a).ok());
  const fs::path artifact = dir / "svm.model";
  const auto ahead = fs::last_write_time(artifact) + std::chrono::hours(1);
  fs::last_write_time(artifact, ahead);

  service::ModelRegistry registry(dir.string());
  ASSERT_TRUE(registry.Refresh().ok());
  const uint64_t version = registry.version();

  ASSERT_TRUE(publisher.Publish(a).ok());  // Byte-identical republish.
  EXPECT_GT(fs::last_write_time(artifact), ahead);
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_GT(registry.version(), version);
}

// A lazy registry must never parse an artifact that changed after its
// snapshot and serve it under the snapshot's version: the overwritten file
// is reported UNAVAILABLE (and not cached) until a refresh publishes it.
TEST(RegistryPublishTest, LazyResolveRejectsArtifactRewrittenAfterRefresh) {
  const fs::path dir = MakeModelDir("lazy_rewrite");
  const TrainedJuggler a = TrainSmall("svm");
  const TrainedJuggler b = Variant(a, 2.0);
  ModelPublisher publisher(dir.string());
  ASSERT_TRUE(publisher.Publish(a).ok());

  service::ModelRegistry::Options options;
  options.lazy_load = true;
  service::ModelRegistry registry(dir.string(), options);
  ASSERT_TRUE(registry.Refresh().ok());
  const uint64_t version = registry.version();

  // Overwrite with a different model and move the mtime well past the old
  // one, so the fingerprint changes even on coarse-timestamp filesystems.
  const fs::path artifact = dir / "svm.model";
  const auto registered_mtime = fs::last_write_time(artifact);
  ASSERT_TRUE(publisher.Publish(b).ok());
  fs::last_write_time(artifact, registered_mtime + std::chrono::seconds(10));

  auto stale = registry.Resolve("svm");
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable)
      << stale.status().ToString();
  EXPECT_EQ(registry.loaded_models(), 0u);
  EXPECT_EQ(registry.version(), version);

  ASSERT_TRUE(registry.Refresh().ok());
  auto fresh = registry.Resolve("svm");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_GT(fresh->version, version);
  EXPECT_EQ(ModelTag(*fresh->model), ModelTag(b));
  EXPECT_NE(ModelTag(*fresh->model), ModelTag(a));
}

}  // namespace
}  // namespace juggler::online
