#ifndef JUGGLER_SERVICE_PREDICTION_CACHE_H_
#define JUGGLER_SERVICE_PREDICTION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/recommender.h"
#include "minispark/cluster.h"
#include "minispark/types.h"

namespace juggler::service {

/// \brief Bounded, sharded LRU cache memoizing `TrainedJuggler::Recommend()`
/// results for the online path (§5.5).
///
/// The online path is pure model evaluation, and recurring applications (the
/// paper's target scenario) re-ask the same (app, parameters, machine type)
/// question many times — a memo table turns those repeats into a hash
/// lookup. Keys are exact byte fingerprints (no float-to-text rounding), so
/// a hit returns bit-identical results to re-evaluating the model. Sharding
/// keeps lock hold times short under concurrent clients; each shard is an
/// independent LRU with capacity/num_shards entries.
class PredictionCache {
 public:
  struct Options {
    size_t capacity = 4096;  ///< Total entries across all shards.
    int num_shards = 8;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t size = 0;

    double HitRate() const {
      const uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };

  /// One memoized answer: the recommendations and the same list encoded once
  /// as the reply's JSON array (see EncodeRecommendationsJson). Both are
  /// shared immutable snapshots: a hit hands the caller references, never a
  /// copy of the vector or of the bytes. A default-constructed Value is the
  /// miss.
  struct Value {
    std::shared_ptr<const std::vector<core::Recommendation>> recommendations;
    std::shared_ptr<const std::string> json;

    explicit operator bool() const { return recommendations != nullptr; }
  };

  explicit PredictionCache(const Options& options);

  /// Returns the cached value and refreshes its recency, or an empty Value on
  /// a miss.
  Value Get(const std::string& key);

  /// Like Get(), but a miss is not counted in Stats. For opportunistic
  /// probes (e.g. an event-loop fast path that falls through to the full
  /// request path on a miss, where the authoritative Get() then counts the
  /// one real miss); a hit still refreshes recency and counts as a hit.
  Value Peek(const std::string& key);

  /// Inserts (or refreshes) `key`, evicting the shard's least recently used
  /// entry when the shard is at capacity.
  void Put(const std::string& key, Value value);

  void Clear();

  /// Drops every entry whose key was built for `app` (any model version,
  /// parameters, or machine type). Returns how many entries were removed.
  /// Called when the online loop publishes a replacement model: the
  /// version-keyed entries of the old model can never hit again, so
  /// reclaiming their LRU slots immediately beats waiting for them to age
  /// out. Not counted as evictions — nothing was displaced by pressure.
  size_t FlushApp(const std::string& app);

  Stats GetStats() const;

  size_t num_shards() const { return shards_.size(); }

  /// Entry count per shard, in shard order. Diagnostic view used to verify
  /// that MakeKey() spreads keys across shards instead of piling onto one.
  std::vector<size_t> ShardSizes() const;

  /// Exact binary fingerprint of one recommendation question. Includes the
  /// registry version so a hot-reloaded model can never serve a stale
  /// memoized answer (old-version entries simply age out of the LRU).
  static std::string MakeKey(const std::string& app, uint64_t model_version,
                             const minispark::AppParams& params,
                             const minispark::ClusterConfig& machine_type,
                             const core::Objective& objective = {});

 private:
  struct Shard {
    Shard();
    /// Lock class "service.PredictionCache.shard" (rank cache=40): the
    /// innermost lock of the serving stack. Shards are only ever locked one
    /// at a time (Clear/GetStats iterate sequentially, never nested).
    Mutex mu ACQUIRED_AFTER(lockdiag::kRegistryOrder);
    /// Most recent at the front; each node owns (key, value).
    std::list<std::pair<std::string, Value>> lru GUARDED_BY(mu);
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, Value>>::iterator>
        index GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& key);

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace juggler::service

#endif  // JUGGLER_SERVICE_PREDICTION_CACHE_H_
