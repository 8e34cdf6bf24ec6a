#include "cluster/hot_key_table.h"

namespace juggler::cluster {

void HotKeyTable::Record(const std::string& key, const std::string& payload,
                         size_t owner) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= capacity_) {
      const Entries::iterator victim = by_hits_.begin()->second;
      by_hits_.erase(by_hits_.begin());
      entries_.erase(victim);
    }
    it = entries_.emplace(key, Entry{payload, 0, owner}).first;
    by_hits_.emplace(0, it);
  }
  // Re-key the index node in place: no allocation per hit.
  auto node = by_hits_.extract({it->second.hits, it});
  ++node.value().first;
  by_hits_.insert(std::move(node));
  it->second.owner = owner;
  ++it->second.hits;
}

std::vector<std::string> HotKeyTable::TopK(const std::vector<bool>& owners,
                                           size_t k) const {
  std::vector<std::string> out;
  for (auto it = by_hits_.rbegin(); it != by_hits_.rend() && out.size() < k;
       ++it) {
    const Entry& entry = it->second->second;
    if (entry.owner < owners.size() && owners[entry.owner]) {
      out.push_back(entry.payload);
    }
  }
  return out;
}

const HotKeyTable::Entry* HotKeyTable::Find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace juggler::cluster
