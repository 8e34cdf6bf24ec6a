#ifndef JUGGLER_ONLINE_MODEL_PUBLISHER_H_
#define JUGGLER_ONLINE_MODEL_PUBLISHER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/recommender.h"

namespace juggler::online {

/// \brief Writes accepted refits into the model registry directory so a
/// mid-serve `ModelRegistry::Refresh()` picks them up without a restart.
///
/// Swap discipline: the artifact text is serialized and self-checked
/// (re-parsed) *before* anything touches disk, written to a temp file whose
/// name the registry scan ignores (no ".model" suffix), flushed, and then
/// renamed over `<dir>/<app>.model`. rename(2) within a directory is atomic,
/// so a concurrent Refresh sees either the old artifact or the new one —
/// never a torn file.
///
/// Rollback = re-publish: before overwriting, the incumbent artifact's bytes
/// are stashed in memory; `Rollback(app)` writes them back through the same
/// atomic path.
class ModelPublisher {
 public:
  struct Stats {
    uint64_t publishes = 0;  ///< Successful atomic swaps (incl. rollbacks).
    uint64_t rollbacks = 0;  ///< Rollback(app) calls that re-published.
    uint64_t failures = 0;   ///< Serialize/self-check/write/rename failures.
  };

  explicit ModelPublisher(std::string directory);

  ModelPublisher(const ModelPublisher&) = delete;
  ModelPublisher& operator=(const ModelPublisher&) = delete;

  /// Serializes `model`, self-checks the bytes parse back, stashes the
  /// incumbent `<app>.model` for rollback, and atomically swaps the new
  /// artifact in. Internal on serialization/self-check failure (disk is
  /// untouched); the write/rename path reports the underlying error.
  [[nodiscard]] Status Publish(const core::TrainedJuggler& model);

  /// Re-publishes the artifact bytes stashed by the last successful
  /// Publish() for `app`. NotFound when no publish stashed anything (the
  /// app was never re-published, or had no artifact before its first one).
  [[nodiscard]] Status Rollback(const std::string& app);

  /// True when Rollback(app) has stashed bytes to restore.
  bool HasLastGood(const std::string& app) const;

  Stats GetStats() const;

  const std::string& directory() const { return directory_; }

 private:
  /// Writes `text` to a temp file in the registry directory and renames it
  /// over `<dir>/<app>.model`, with an mtime later than the replaced
  /// artifact's. All I/O, no locks.
  [[nodiscard]] Status WriteAtomic(const std::string& app,
                                   const std::string& text);

  const std::string directory_;
  /// Lock class "online.ModelPublisher.mu" (leaf rank): guards only the
  /// stash map — every file operation happens outside it.
  mutable Mutex mu_;
  /// app -> artifact bytes that were serving before the last swap.
  std::map<std::string, std::string> last_good_ GUARDED_BY(mu_);
  std::atomic<uint64_t> publishes_{0};
  std::atomic<uint64_t> rollbacks_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> temp_seq_{0};
};

}  // namespace juggler::online

#endif  // JUGGLER_ONLINE_MODEL_PUBLISHER_H_
