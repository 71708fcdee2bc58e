#ifndef RDBSC_ENGINE_SOLVE_CACHE_H_
#define RDBSC_ENGINE_SOLVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rdbsc::engine {

/// Sizing of a SolveCache. The capacity is an entry count split evenly
/// across shards, each shard holding at least one entry. A capacity of 0
/// disables the cache: lookups miss and inserts are dropped.
struct SolveCacheConfig {
  /// One EngineResult per (instance, solver, graph config) fingerprint.
  size_t result_capacity = 4096;
  /// Mutex shards. Lookups/inserts lock one shard only, so concurrent
  /// server workers rarely contend.
  int num_shards = 8;
};

/// Counter snapshot returned by SolveCache::Stats (totals across shards).
struct CacheStats {
  int64_t result_hits = 0;
  int64_t result_misses = 0;
  int64_t result_insertions = 0;
  int64_t result_evictions = 0;
  int64_t result_entries = 0;
};

/// Content-addressed cache of whole Engine results, keyed by the 128-bit
/// ResultCacheKey fingerprint (engine/fingerprint.h: instance + solver
/// identity + graph config). A hit short-circuits the pipeline after
/// Validate.
///
/// A bounded LRU map sharded by key across `num_shards` mutexes. Values
/// are immutable and shared (shared_ptr), so a hit hands back the exact
/// bytes the original run produced -- combined with deterministic solvers
/// this is what makes a hit bit-identical to a cold solve at any
/// concurrency (the cache_storm workload replays with and without a cache
/// at 1/2/8 server workers). Eviction is per shard, strictly LRU.
///
/// All methods are thread-safe.
class SolveCache {
 public:
  explicit SolveCache(SolveCacheConfig config = {});

  /// Lookup; nullptr on miss. The returned result has from_cache as
  /// stored (false) -- callers stamp provenance.
  std::shared_ptr<const EngineResult> LookupResult(const util::Hash128& key);

  /// Inserts (or refreshes) an entry. The provenance flag is cleared on
  /// the stored copy so hits describe the original cold run.
  void InsertResult(const util::Hash128& key, EngineResult result);

  CacheStats Stats() const;

  /// Drops every entry (counters keep accumulating).
  void Clear();

 private:
  using Entry = std::pair<util::Hash128, std::shared_ptr<const EngineResult>>;

  /// One LRU shard: list front = most recently used; the map points into
  /// the list. All state is guarded by `mu`.
  struct Shard {
    mutable util::Mutex mu;
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<util::Hash128, std::list<Entry>::iterator,
                       util::Hash128Hasher>
        index GUARDED_BY(mu);
    int64_t hits GUARDED_BY(mu) = 0;
    int64_t misses GUARDED_BY(mu) = 0;
    int64_t insertions GUARDED_BY(mu) = 0;
    int64_t evictions GUARDED_BY(mu) = 0;
  };

  Shard& ShardOf(const util::Hash128& key) {
    return shards_[key.lo % static_cast<uint64_t>(shards_.size())];
  }

  size_t capacity_per_shard_ = 1;
  std::vector<Shard> shards_;
};

}  // namespace rdbsc::engine

#endif  // RDBSC_ENGINE_SOLVE_CACHE_H_
