#include "minispark/memory_manager.h"

#include <algorithm>

namespace juggler::minispark {

UnifiedMemoryManager::UnifiedMemoryManager(double unified_bytes,
                                           double min_storage_bytes)
    : unified_(unified_bytes), min_storage_(min_storage_bytes) {}

double UnifiedMemoryManager::AcquireExecution(double bytes) {
  if (bytes <= 0.0) return 0.0;
  double free = unified_ - execution_used_ - storage_used_;
  if (free < bytes) {
    // Execution may reclaim cached blocks, but storage is guaranteed R.
    EvictFor(bytes - free, kInvalidDataset, min_storage_);
    free = unified_ - execution_used_ - storage_used_;
  }
  const double granted = std::max(0.0, std::min(bytes, free));
  execution_used_ += granted;
  peak_execution_used_ = std::max(peak_execution_used_, execution_used_);
  return granted;
}

void UnifiedMemoryManager::ReleaseExecution(double bytes) {
  execution_used_ = std::max(0.0, execution_used_ - bytes);
}

bool UnifiedMemoryManager::StoreBlock(BlockId id, double bytes) {
  if (const int32_t n = Find(id); n != kNil) {
    // Already cached; treat as a touch.
    Unlink(n);
    LinkBack(n);
    return true;
  }
  const double cap = unified_ - execution_used_;
  if (bytes > cap || id.dataset < 0 || id.partition < 0) {
    ++store_rejections_;
    evicted_blocks_.push_back(id);
    return false;
  }
  if (storage_used_ + bytes > cap) {
    // Storage-triggered eviction may go below R (R only guards against
    // *execution* reclaiming storage) but never evicts the same dataset.
    if (!EvictFor(storage_used_ + bytes - cap, id.dataset, 0.0)) {
      ++store_rejections_;
      evicted_blocks_.push_back(id);
      return false;
    }
  }
  Insert(id, bytes);
  storage_used_ += bytes;
  ++blocks_stored_;
  return true;
}

bool UnifiedMemoryManager::TouchBlock(BlockId id) {
  const int32_t n = Find(id);
  if (n == kNil) return false;
  Unlink(n);
  LinkBack(n);
  return true;
}

bool UnifiedMemoryManager::HasBlock(BlockId id) const {
  return Find(id) != kNil;
}

void UnifiedMemoryManager::DropDataset(DatasetId dataset) {
  // Walk in LRU order: the order of the subtractions decides the low bits
  // of storage_used_. Stop once the dataset is gone.
  for (int32_t n = lru_head_; n != kNil && NumBlocksOf(dataset) > 0;) {
    const Node& node = nodes_[static_cast<size_t>(n)];
    const int32_t next = node.next;
    if (node.id.dataset == dataset) {
      storage_used_ -= node.bytes;
      Remove(n);
    }
    n = next;
  }
  storage_used_ = std::max(0.0, storage_used_);
}

void UnifiedMemoryManager::DropBlock(BlockId id) {
  const int32_t n = Find(id);
  if (n == kNil) return;
  storage_used_ =
      std::max(0.0, storage_used_ - nodes_[static_cast<size_t>(n)].bytes);
  Remove(n);
}

std::vector<BlockId> UnifiedMemoryManager::LoseAllBlocks() {
  std::vector<BlockId> lost;
  lost.reserve(static_cast<size_t>(num_blocks_));
  for (int32_t n = lru_head_; n != kNil;) {
    const Node& node = nodes_[static_cast<size_t>(n)];
    lost.push_back(node.id);
    slots_[static_cast<size_t>(node.id.dataset)]
          [static_cast<size_t>(node.id.partition)] = kNil;
    n = node.next;
  }
  blocks_lost_ += num_blocks_;
  std::fill(blocks_of_.begin(), blocks_of_.end(), 0);
  num_blocks_ = 0;
  nodes_.clear();
  free_ = lru_head_ = lru_tail_ = kNil;
  storage_used_ = 0.0;
  return lost;
}

void UnifiedMemoryManager::Insert(BlockId id, double bytes) {
  const auto dataset = static_cast<size_t>(id.dataset);
  const auto partition = static_cast<size_t>(id.partition);
  if (dataset >= slots_.size()) {
    slots_.resize(dataset + 1);
    blocks_of_.resize(dataset + 1, 0);
  }
  std::vector<int32_t>& row = slots_[dataset];
  if (partition >= row.size()) row.resize(partition + 1, kNil);

  int32_t n = free_;
  if (n != kNil) {
    free_ = nodes_[static_cast<size_t>(n)].next;
  } else {
    n = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[static_cast<size_t>(n)];
  node.id = id;
  node.bytes = bytes;
  LinkBack(n);
  row[partition] = n;
  ++blocks_of_[dataset];
  ++num_blocks_;
}

void UnifiedMemoryManager::Remove(int32_t n) {
  Unlink(n);
  Node& node = nodes_[static_cast<size_t>(n)];
  slots_[static_cast<size_t>(node.id.dataset)]
        [static_cast<size_t>(node.id.partition)] = kNil;
  --blocks_of_[static_cast<size_t>(node.id.dataset)];
  --num_blocks_;
  node.next = free_;
  free_ = n;
}

void UnifiedMemoryManager::Unlink(int32_t n) {
  const Node& node = nodes_[static_cast<size_t>(n)];
  if (node.prev != kNil) {
    nodes_[static_cast<size_t>(node.prev)].next = node.next;
  } else {
    lru_head_ = node.next;
  }
  if (node.next != kNil) {
    nodes_[static_cast<size_t>(node.next)].prev = node.prev;
  } else {
    lru_tail_ = node.prev;
  }
}

void UnifiedMemoryManager::LinkBack(int32_t n) {
  Node& node = nodes_[static_cast<size_t>(n)];
  node.prev = lru_tail_;
  node.next = kNil;
  if (lru_tail_ != kNil) {
    nodes_[static_cast<size_t>(lru_tail_)].next = n;
  } else {
    lru_head_ = n;
  }
  lru_tail_ = n;
}

bool UnifiedMemoryManager::EvictFor(double bytes, DatasetId protect,
                                    double floor) {
  double freed = 0.0;
  // Every cached block protected: the walk below would skip them all.
  int32_t n = NumBlocksOf(protect) == num_blocks_ ? kNil : lru_head_;
  while (n != kNil && freed < bytes && storage_used_ > floor) {
    const Node& node = nodes_[static_cast<size_t>(n)];
    const int32_t next = node.next;
    if (node.id.dataset != protect) {
      freed += node.bytes;
      storage_used_ -= node.bytes;
      ++blocks_evicted_;
      evicted_blocks_.push_back(node.id);
      Remove(n);
    }
    n = next;
  }
  storage_used_ = std::max(0.0, storage_used_);
  return freed >= bytes;
}

}  // namespace juggler::minispark
