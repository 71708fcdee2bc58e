// Correctness of the content-addressed caching layer: util::Hash128 /
// Hasher primitives, core::InstanceFingerprint sensitivity, SolveCache
// LRU mechanics, the staged-pipeline cache seam (every CacheMode), and the
// engine::Server wiring (hit/miss counters, a queued duplicate answered
// from the cache, eviction accounting). That a cache never changes a
// replay's answers at 1, 2 and 8 dispatch workers is checked on the
// cache_storm workload
// (WorkloadReplayContract.CacheDoesNotChangeFingerprints).

#include <memory>
#include <string>

#include "core/fingerprint.h"
#include "engine/engine.h"
#include "engine/fingerprint.h"
#include "engine/server.h"
#include "engine/solve_cache.h"
#include "gate_solver.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/hash.h"

namespace rdbsc {
namespace {

using engine::CacheMode;
using engine::CacheStats;
using engine::ServerConfig;
using engine::SolveCache;
using engine::SolveCacheConfig;
using test::SmallInstance;

// --- Hash primitives -----------------------------------------------------

TEST(Hash128Test, ToHexIsFixedWidthHiFirst) {
  util::Hash128 h{0x1, 0xab};
  EXPECT_EQ(h.ToHex(), "000000000000000100000000000000ab");
  EXPECT_EQ((util::Hash128{}.ToHex()),
            "00000000000000000000000000000000");
}

TEST(HashCombineTest, OrderSensitive) {
  uint64_t ab = util::HashCombine(util::HashCombine(0, 1), 2);
  uint64_t ba = util::HashCombine(util::HashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(HasherTest, DeterministicAndFieldBoundarySensitive) {
  auto digest = [](auto&& fill) {
    util::Hasher hasher;
    fill(hasher);
    return hasher.Digest();
  };
  // Same stream -> same digest (machine-independent by construction).
  EXPECT_EQ(digest([](util::Hasher& h) { h.Mix(std::string_view("abc")); }),
            digest([](util::Hasher& h) { h.Mix(std::string_view("abc")); }));
  // The length prefix keeps adjacent string fields from sliding into each
  // other ("ab" + "c" must not collide with "abc").
  EXPECT_NE(digest([](util::Hasher& h) {
              h.Mix(std::string_view("ab")).Mix(std::string_view("c"));
            }),
            digest([](util::Hasher& h) { h.Mix(std::string_view("abc")); }));
  // Doubles hash by bit pattern: -0.0 and 0.0 are distinct identities.
  EXPECT_NE(digest([](util::Hasher& h) { h.Mix(0.0); }),
            digest([](util::Hasher& h) { h.Mix(-0.0); }));
}

// --- Instance fingerprints -----------------------------------------------

TEST(InstanceFingerprintTest, EqualContentHashesEqual) {
  EXPECT_EQ(core::InstanceFingerprint(SmallInstance(7)),
            core::InstanceFingerprint(SmallInstance(7)));
  EXPECT_NE(core::InstanceFingerprint(SmallInstance(7)),
            core::InstanceFingerprint(SmallInstance(8)));
}

TEST(InstanceFingerprintTest, SensitiveToEveryInstanceField) {
  core::Instance base = SmallInstance(7);
  const util::Hash128 fp = core::InstanceFingerprint(base);

  auto tasks = base.tasks();
  tasks[0].beta += 1e-9;
  EXPECT_NE(core::InstanceFingerprint(core::Instance(
                tasks, base.workers(), base.now(), base.policy())),
            fp);

  auto workers = base.workers();
  workers[0].confidence -= 1e-9;
  EXPECT_NE(core::InstanceFingerprint(core::Instance(
                base.tasks(), workers, base.now(), base.policy())),
            fp);

  EXPECT_NE(core::InstanceFingerprint(core::Instance(
                base.tasks(), base.workers(), base.now() + 1e-9,
                base.policy())),
            fp);
  EXPECT_NE(core::InstanceFingerprint(core::Instance(
                base.tasks(), base.workers(), base.now(),
                core::ArrivalPolicy::kAllowWait)),
            fp);
}

// --- SolveCache LRU mechanics --------------------------------------------

EngineResult ResultWithEdges(int64_t edges) {
  EngineResult result;
  result.plan.edges = edges;
  return result;
}

TEST(SolveCacheTest, ResultTierIsStrictLru) {
  SolveCacheConfig config;
  config.result_capacity = 2;
  config.num_shards = 1;  // one shard so the eviction order is total
  SolveCache cache(config);
  const util::Hash128 k1{0, 1}, k2{0, 2}, k3{0, 3}, k4{0, 4};

  cache.InsertResult(k1, ResultWithEdges(1));
  cache.InsertResult(k2, ResultWithEdges(2));
  cache.InsertResult(k3, ResultWithEdges(3));  // evicts k1 (oldest)
  EXPECT_EQ(cache.LookupResult(k1), nullptr);

  // Touch k2, then insert k4: the untouched k3 is now the LRU victim.
  ASSERT_NE(cache.LookupResult(k2), nullptr);
  cache.InsertResult(k4, ResultWithEdges(4));
  EXPECT_EQ(cache.LookupResult(k3), nullptr);
  ASSERT_NE(cache.LookupResult(k2), nullptr);
  EXPECT_EQ(cache.LookupResult(k2)->plan.edges, 2);

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.result_insertions, 4);
  EXPECT_EQ(stats.result_evictions, 2);
  EXPECT_EQ(stats.result_entries, 2);

  cache.Clear();
  EXPECT_EQ(cache.LookupResult(k2), nullptr);
  stats = cache.Stats();
  EXPECT_EQ(stats.result_entries, 0);
  EXPECT_EQ(stats.result_hits, 3);  // counters survive Clear
  EXPECT_EQ(stats.result_misses, 3);
  EXPECT_EQ(stats.result_insertions, 4);
}

TEST(SolveCacheTest, InsertClearsProvenanceAndRefreshKeepsOneEntry) {
  SolveCache cache;
  const util::Hash128 key{1, 1};
  EngineResult stale = ResultWithEdges(9);
  stale.from_cache = true;
  cache.InsertResult(key, stale);
  auto hit = cache.LookupResult(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->from_cache);

  cache.InsertResult(key, ResultWithEdges(11));  // refresh, not a new entry
  EXPECT_EQ(cache.Stats().result_entries, 1);
  EXPECT_EQ(cache.LookupResult(key)->plan.edges, 11);
}

TEST(SolveCacheTest, ZeroResultCapacityDropsInserts) {
  SolveCacheConfig config;
  config.result_capacity = 0;
  config.num_shards = 4;
  SolveCache cache(config);
  const util::Hash128 key{3, 9};

  cache.InsertResult(key, ResultWithEdges(5));
  EXPECT_EQ(cache.LookupResult(key), nullptr);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.result_entries, 0);
  EXPECT_EQ(stats.result_insertions, 0);  // dropped, not evicted
  EXPECT_EQ(stats.result_evictions, 0);
}

// --- Pipeline cache seam -------------------------------------------------

EngineConfig SolverEngineConfig(const std::string& name) {
  EngineConfig config;
  config.solver_name = name;
  config.solver_options.seed = 5;
  return config;
}

// The acceptance criterion at the Engine layer, per registered solver: a
// cache hit replays the cold solve bit for bit.
TEST(CachePipelineTest, HitIsBitIdenticalToColdSolvePerSolver) {
  const core::Instance instance = SmallInstance(3, 4, 7);  // EXACT-sized
  for (const char* name : {"dc", "exact", "greedy", "gtruth", "sampling",
                           "worker-greedy"}) {
    SCOPED_TRACE(name);
    Engine cold = Engine::Create(SolverEngineConfig(name)).value();
    const std::string cold_print = engine::ResultFingerprint(
        cold.Run(instance));

    SolveCache cache;
    Engine cached = Engine::Create(SolverEngineConfig(name)).value();
    RunControls controls;
    controls.cache = &cache;
    util::StatusOr<EngineResult> first = cached.Run(instance, controls);
    ASSERT_TRUE(first.ok());
    EXPECT_FALSE(first.value().from_cache);
    util::StatusOr<EngineResult> second = cached.Run(instance, controls);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.value().from_cache);
    EXPECT_EQ(engine::ResultFingerprint(second), cold_print);
    EXPECT_EQ(engine::ResultFingerprint(first), cold_print);
  }
}

TEST(CachePipelineTest, CacheModesReadAndWriteIndependently) {
  const core::Instance instance = SmallInstance(9);
  Engine engine = Engine::Create(SolverEngineConfig("greedy")).value();
  SolveCache cache;
  RunControls controls;
  controls.cache = &cache;

  controls.cache_mode = CacheMode::kOff;
  ASSERT_TRUE(engine.Run(instance, controls).ok());
  EXPECT_EQ(cache.Stats().result_entries, 0);
  EXPECT_EQ(cache.Stats().result_misses, 0);  // kOff never even looks

  controls.cache_mode = CacheMode::kReadOnly;
  ASSERT_TRUE(engine.Run(instance, controls).ok());
  EXPECT_EQ(cache.Stats().result_entries, 0);  // probe must not populate
  EXPECT_EQ(cache.Stats().result_misses, 1);

  controls.cache_mode = CacheMode::kWriteOnly;
  util::StatusOr<EngineResult> warm = engine.Run(instance, controls);
  EXPECT_FALSE(warm.value().from_cache);  // warming always solves cold
  warm = engine.Run(instance, controls);
  EXPECT_FALSE(warm.value().from_cache);
  EXPECT_EQ(cache.Stats().result_entries, 1);

  controls.cache_mode = CacheMode::kReadOnly;  // now the probe hits
  util::StatusOr<EngineResult> hit = engine.Run(instance, controls);
  EXPECT_TRUE(hit.value().from_cache);

  // kDefault with a cache attached means kReadWrite.
  controls.cache_mode = CacheMode::kDefault;
  EXPECT_TRUE(engine.Run(instance, controls).value().from_cache);
}

TEST(CachePipelineTest, FailedSolvesAreNeverCached) {
  // A budget that trips mid-build must not poison the cache for the next,
  // unbudgeted run.
  const core::Instance instance = SmallInstance(1, 220, 220);
  Engine engine = Engine::Create(SolverEngineConfig("dc")).value();
  SolveCache cache;
  RunControls controls;
  controls.cache = &cache;
  controls.budget_seconds = 1e-9;
  util::StatusOr<EngineResult> starved = engine.Run(instance, controls);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cache.Stats().result_entries, 0);

  controls.budget_seconds = -1.0;
  util::StatusOr<EngineResult> healthy = engine.Run(instance, controls);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.value().from_cache);
}

// --- Server wiring -------------------------------------------------------

ServerConfig CachingServerConfig(int num_workers) {
  ServerConfig config;
  config.engine.solver_name = test::GatedSolverName();
  config.engine.solver_options.seed = 7;
  config.engine.validate_instances = false;
  config.num_workers = num_workers;
  config.max_queue_depth = 64;
  config.cache_mode = CacheMode::kReadWrite;
  return config;
}

TEST(ServerCacheTest, RepeatedSubmissionHitsAndCountersTrack) {
  auto server =
      std::move(engine::Server::Create(CachingServerConfig(1)).value());
  const core::Instance instance = SmallInstance(21);

  engine::Ticket first = server->Submit(instance).value();
  const util::StatusOr<EngineResult>& cold = first.Wait();
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.value().from_cache);

  engine::Ticket second = server->Submit(instance).value();
  const util::StatusOr<EngineResult>& warm = second.Wait();
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().from_cache);
  EXPECT_EQ(engine::ResultFingerprint(warm), engine::ResultFingerprint(cold));

  // Per-request opt-out: kOff solves cold and stays invisible to counters.
  engine::SubmitControls opt_out;
  opt_out.cache = CacheMode::kOff;
  engine::Ticket third = server->Submit(instance, opt_out).value();
  ASSERT_TRUE(third.Wait().ok());
  EXPECT_FALSE(third.Wait().value().from_cache);

  server->Shutdown(engine::ShutdownMode::kDrain);
  engine::ServerStats stats = server->Stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);
  CacheStats cache_stats = server->GetCacheStats();
  EXPECT_EQ(cache_stats.result_hits, 1);
  EXPECT_EQ(cache_stats.result_insertions, 1);
}

TEST(ServerCacheTest, QueuedDuplicateDispatchesAndHitsCache) {
  // One dispatch worker, held by a gate (tests/gate_solver.h) that keeps
  // out of the cache: both twins are queued before either runs, so the
  // order is deterministic, not a race. The second twin dispatches on its
  // own once the first has finished and is answered from the cache.
  auto server =
      std::move(engine::Server::Create(CachingServerConfig(1)).value());
  test::Gates gates;
  engine::SubmitControls gate_controls;
  gate_controls.priority = 10;
  gate_controls.cache = CacheMode::kOff;
  engine::Ticket gate =
      server->Submit(test::GateInstance(), gate_controls).value();

  const core::Instance dup = SmallInstance(33);
  engine::Ticket first = server->Submit(dup).value();
  engine::Ticket second = server->Submit(dup).value();

  gates.Open(0);
  ASSERT_TRUE(gate.Wait().ok());
  const util::StatusOr<EngineResult>& cold = first.Wait();
  const util::StatusOr<EngineResult>& warm = second.Wait();
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(cold.value().from_cache);
  EXPECT_TRUE(warm.value().from_cache);
  EXPECT_EQ(engine::ResultFingerprint(warm), engine::ResultFingerprint(cold));

  server->Shutdown(engine::ShutdownMode::kDrain);
  engine::ServerStats stats = server->Stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.completed, 3);
}

TEST(ServerCacheTest, EvictionCounterSurfacesCapacityPressure) {
  ServerConfig config = CachingServerConfig(1);
  config.cache_result_entries = 2;
  auto server = std::move(engine::Server::Create(std::move(config)).value());
  // 12 distinct instances through a cache of (at most) 4 shards x 1
  // entry: the pigeonhole guarantees evictions.
  for (uint64_t seed = 0; seed < 12; ++seed) {
    engine::Ticket ticket = server->Submit(SmallInstance(seed)).value();
    ASSERT_TRUE(ticket.Wait().ok());
  }
  server->Shutdown(engine::ShutdownMode::kDrain);
  EXPECT_GT(server->Stats().cache_evictions, 0);
  EXPECT_EQ(server->Stats().cache_evictions,
            server->GetCacheStats().result_evictions);
}

}  // namespace
}  // namespace rdbsc
