#include "online/model_publisher.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/lock_diag.h"
#include "core/serialization.h"
#include "service/model_registry.h"

namespace juggler::online {

namespace {

std::string ArtifactPath(const std::string& directory,
                         const std::string& app) {
  return (std::filesystem::path(directory) /
          (app + service::ModelRegistry::kModelSuffix))
      .string();
}

/// Reads a file fully; empty optional-style return via ok flag. Used to
/// stash the incumbent artifact before a swap.
bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return false;
  *out = buffer.str();
  return true;
}

}  // namespace

ModelPublisher::ModelPublisher(std::string directory)
    : directory_(std::move(directory)),
      mu_(lockdiag::RegisterLockClass("online.ModelPublisher.mu",
                                      lockdiag::kRankLeaf)) {}

Status ModelPublisher::WriteAtomic(const std::string& app,
                                   const std::string& text) {
  // The temp name must not end in ".model": the registry scan would pick a
  // half-written candidate up as a real artifact.
  const std::string temp =
      (std::filesystem::path(directory_) /
       ("." + app + ".publish.tmp." +
        std::to_string(temp_seq_.fetch_add(1, std::memory_order_relaxed))))
          .string();
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::Internal("cannot open temp artifact " + temp);
    }
    out << text;
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code discard;
      std::filesystem::remove(temp, discard);
      return Status::Internal("short write to temp artifact " + temp);
    }
  }
  const std::string target = ArtifactPath(directory_, app);
  // Registries notice a new artifact by its (mtime, size) fingerprint, and
  // file timestamps only advance once per kernel tick: two same-sized
  // publishes within one tick would look like no change. Keep each
  // artifact's mtime strictly increasing so no fingerprint ever repeats.
  // Best effort: on a stat/utime error the swap proceeds as before.
  std::error_code mtime_ec;
  const auto incumbent = std::filesystem::last_write_time(target, mtime_ec);
  if (!mtime_ec) {
    const auto floor = incumbent + std::chrono::microseconds(1);
    const auto written = std::filesystem::last_write_time(temp, mtime_ec);
    if (!mtime_ec && written < floor) {
      std::filesystem::last_write_time(temp, floor, mtime_ec);
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, target, ec);
  if (ec) {
    std::error_code discard;
    std::filesystem::remove(temp, discard);
    return Status::Internal("rename into registry failed for " + app + ": " +
                            ec.message());
  }
  return Status::OK();
}

Status ModelPublisher::Publish(const core::TrainedJuggler& model) {
  if (model.app_name().empty()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("model has no application name");
  }
  const std::string text = core::TrainedJugglerToString(model);
  // Self-check: a candidate that cannot round-trip must never reach disk —
  // the registry would degrade to last-good, but the swap itself should be
  // the gate, not the reader.
  auto parsed = core::TrainedJugglerFromString(text);
  if (!parsed.ok()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("candidate artifact failed self-check: " +
                            parsed.status().message());
  }
  std::string incumbent;
  const bool have_incumbent =
      ReadFile(ArtifactPath(directory_, model.app_name()), &incumbent);
  Status written = WriteAtomic(model.app_name(), text);
  if (!written.ok()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    return written;
  }
  if (have_incumbent) {
    MutexLock lock(mu_);
    last_good_[model.app_name()] = std::move(incumbent);
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ModelPublisher::Rollback(const std::string& app) {
  std::string stashed;
  {
    MutexLock lock(mu_);
    auto it = last_good_.find(app);
    if (it == last_good_.end()) {
      return Status::NotFound("no last-good artifact stashed for " + app);
    }
    stashed = it->second;
  }
  Status written = WriteAtomic(app, stashed);
  if (!written.ok()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    return written;
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

bool ModelPublisher::HasLastGood(const std::string& app) const {
  MutexLock lock(mu_);
  return last_good_.find(app) != last_good_.end();
}

ModelPublisher::Stats ModelPublisher::GetStats() const {
  Stats stats;
  stats.publishes = publishes_.load(std::memory_order_relaxed);
  stats.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  stats.failures = failures_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace juggler::online
