#include "engine/solve_cache.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace rdbsc::engine {

SolveCache::SolveCache(SolveCacheConfig config)
    : shards_(static_cast<size_t>(std::max(config.num_shards, 1))) {
  // The per-shard capacity rounds up so the configured total is a floor,
  // and every shard holds at least one entry. A configured total of 0
  // stays 0: the cache is disabled (inserts dropped), never "rounded up"
  // into a surprise num_shards-entry cache.
  const size_t num_shards = shards_.size();
  capacity_per_shard_ =
      config.result_capacity == 0
          ? 0
          : (config.result_capacity + num_shards - 1) / num_shards;
}

std::shared_ptr<const EngineResult> SolveCache::LookupResult(
    const util::Hash128& key) {
  Shard& shard = ShardOf(key);
  util::MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void SolveCache::InsertResult(const util::Hash128& key, EngineResult result) {
  if (capacity_per_shard_ == 0) return;  // cache disabled
  // Stored entries describe the original cold run; hits re-stamp
  // provenance on their own copies.
  result.from_cache = false;
  auto value = std::make_shared<const EngineResult>(std::move(result));
  Shard& shard = ShardOf(key);
  util::MutexLock lock(shard.mu);
  ++shard.insertions;
  if (auto it = shard.index.find(key); it != shard.index.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index.emplace(key, shard.lru.begin());
  while (shard.lru.size() > capacity_per_shard_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

CacheStats SolveCache::Stats() const {
  CacheStats stats;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    stats.result_hits += shard.hits;
    stats.result_misses += shard.misses;
    stats.result_insertions += shard.insertions;
    stats.result_evictions += shard.evictions;
    stats.result_entries += static_cast<int64_t>(shard.lru.size());
  }
  return stats;
}

void SolveCache::Clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

}  // namespace rdbsc::engine
