#ifndef JUGGLER_CLUSTER_HOT_KEY_TABLE_H_
#define JUGGLER_CLUSTER_HOT_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace juggler::cluster {

/// \brief Bounded popularity sample of recently served recommend questions:
/// route key -> request payload, hit count and the shard that last served
/// it. The router re-issues the hottest ones as cache pre-warm hints after
/// a failover.
///
/// When full, a new key evicts the coldest entry: fewest hits, ties to the
/// smallest key. An ordered (hits, key) index finds that victim in
/// O(log n).
///
/// Not thread-safe; the router guards it with its hot-key lock.
class HotKeyTable {
 public:
  struct Entry {
    std::string payload;  ///< The single-recommend request JSON, verbatim.
    uint64_t hits = 0;
    size_t owner = 0;  ///< Shard index that last served it.
  };

  /// `capacity` must be positive.
  explicit HotKeyTable(size_t capacity) : capacity_(capacity) {}

  /// Counts one served request for `key`. A new key keeps `payload`; an
  /// existing one keeps its first payload and takes the new owner.
  void Record(const std::string& key, const std::string& payload,
              size_t owner);

  /// Payloads of up to `k` entries whose owner shard is marked in `owners`,
  /// hottest first (equal hits: larger key first).
  std::vector<std::string> TopK(const std::vector<bool>& owners,
                                size_t k) const;

  /// The entry for `key`, or null.
  const Entry* Find(const std::string& key) const;
  size_t size() const { return entries_.size(); }

 private:
  using Entries = std::map<std::string, Entry>;
  using IndexKey = std::pair<uint64_t, Entries::iterator>;
  /// Orders by (hits, key): begin() is the eviction victim.
  struct ColdestFirst {
    bool operator()(const IndexKey& a, const IndexKey& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second->first < b.second->first;
    }
  };

  size_t capacity_;
  Entries entries_;
  /// (hits, entry) for every entry; map iterators stay valid until erased.
  std::set<IndexKey, ColdestFirst> by_hits_;
};

}  // namespace juggler::cluster

#endif  // JUGGLER_CLUSTER_HOT_KEY_TABLE_H_
