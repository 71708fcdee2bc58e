#ifndef RDBSC_ENGINE_ENGINE_H_
#define RDBSC_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/instance.h"
#include "core/registry.h"
#include "core/solver.h"
#include "obs/registry.h"
#include "util/deadline.h"
#include "util/hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rdbsc {

namespace engine {
class SolveCache;

/// Resolved metric handles of one engine (see EngineConfig::metrics).
/// All-null when no registry is attached; plain pointers so the stage
/// hot path is a single branch. The pointees live in the registry and
/// are internally synchronized -- recording takes no lock.
struct StageMetrics {
  obs::Histogram* validate_seconds = nullptr;
  obs::Histogram* plan_seconds = nullptr;
  obs::Histogram* build_seconds = nullptr;
  obs::Histogram* solve_seconds = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
};

/// Per-run cache policy. The cache itself (engine::SolveCache) is owned by
/// whoever serves repeated traffic (engine::Server, a bench, an example);
/// the mode says what one run may do with it.
enum class CacheMode {
  /// Fall back to the owner's configured default (SubmitControls only; a
  /// RunControls/RunIsolated kDefault with a cache attached means
  /// kReadWrite).
  kDefault,
  /// Bypass the cache entirely: solve cold, store nothing.
  kOff,
  /// Serve hits but never insert (probing traffic must not evict).
  kReadOnly,
  /// Always solve cold but insert/refresh the entry (cache warming).
  kWriteOnly,
  /// Serve hits and insert misses (the normal serving mode).
  kReadWrite,
};

/// The two CacheMode capabilities, defined once next to the enum so the
/// engine pipeline and the server's accounting can never drift apart.
inline bool CacheModeReads(CacheMode mode) {
  return mode == CacheMode::kReadOnly || mode == CacheMode::kReadWrite;
}
inline bool CacheModeWrites(CacheMode mode) {
  return mode == CacheMode::kWriteOnly || mode == CacheMode::kReadWrite;
}
}  // namespace engine

/// Configuration of an Engine: which solver to run (by registry name),
/// its options, and the default admission budget applied to every solve.
/// Candidate graphs are always built by core::CandidateGraph::Build.
struct EngineConfig {
  std::string solver_name = "dc";
  core::SolverOptions solver_options;

  /// Default wall-clock budget in seconds; <= 0 unlimited. Run and
  /// SolveOn derive one deadline per call from it. RunIsolated (and
  /// therefore engine::Server, whose budgets come from ServerConfig's
  /// default_budget_seconds / total_budget_seconds pool) ignores this
  /// field entirely: the caller owns the deadline there.
  double budget_seconds = 0.0;
  /// Run Instance::Validate before solving (admission control).
  bool validate_instances = true;

  /// Worker threads of the engine-owned util::ThreadPool; <= 1 keeps the
  /// zero-thread serial default. The pool shards graph construction and
  /// the D&C/sampling solvers inside Run/SolveOn. Results are
  /// bit-identical to serial for a fixed solver seed at every thread
  /// count.
  int num_threads = 0;

  /// Optional metrics sink (unowned; must outlive the engine). When set,
  /// every run records per-stage wall time into the histograms
  /// engine.stage_seconds{solver, stage=validate|plan|build|solve} (plan
  /// counts only explicit StagePlan calls, which do nothing) and
  /// cache-read outcomes into the counters
  /// engine.cache{solver, outcome=hit|miss}. The histogram/counter
  /// handles are resolved once in Engine::Create, so the per-stage cost
  /// is two clock reads plus a few relaxed atomic adds; nullptr (the
  /// default) reduces it to one branch per stage. Purely observational:
  /// results are bit-identical with or without a registry attached.
  obs::Registry* metrics = nullptr;
};

/// Per-run admission overrides.
struct RunControls {
  /// < 0: use the engine's configured default budget. 0: unlimited.
  double budget_seconds = -1.0;
  /// Optional cooperative cancellation token (unowned).
  const util::CancelToken* cancel = nullptr;
  /// When non-null, receives the partial stats of a failed solve.
  core::SolveStats* partial_stats = nullptr;
  /// Optional result cache (unowned; must be thread-safe -- it is).
  /// nullptr keeps every run cold. SolveOn ignores both cache fields: its
  /// graph is caller-provided, so the content fingerprint (which
  /// describes the graph the engine's own configuration would build)
  /// cannot vouch for the result.
  engine::SolveCache* cache = nullptr;
  /// What the run may do with `cache`; kDefault means kReadWrite when a
  /// cache is attached.
  engine::CacheMode cache_mode = engine::CacheMode::kDefault;
};

/// How one run built its candidate graph (reported back to the caller).
struct GraphPlan {
  /// Always false; kept because the frozen benchmark runner reads it.
  bool used_grid_index = false;
  int64_t edges = 0;
  double build_seconds = 0.0;
};

struct EngineResult {
  core::SolveResult solve;
  GraphPlan plan;
  /// The whole result came from the result cache. Provenance
  /// only -- a hit is bit-identical to the cold solve it replays (the
  /// assignment, objective bit patterns, and plan.edges all match; only
  /// timing fields may differ).
  bool from_cache = false;
};

namespace engine {

/// The typed state one request threads through the staged pipeline
/// Validate -> BuildGraph -> Solve. Each stage consumes the
/// products of the previous ones and records its own, so callers can run
/// stages independently, skip a stage by pre-filling its product (e.g.
/// SolveOn sets `graph` and skips the build), or replay a stage on a
/// fresh context. Inputs are set up by the caller; everything below the
/// marker is stage output.
struct ExecutionContext {
  // --- inputs ---
  const core::Instance* instance = nullptr;
  util::Deadline deadline;
  /// Optional executor the build/solve stages shard over (nullptr =
  /// serial; results are bit-identical either way).
  util::Executor* executor = nullptr;
  /// When non-null, receives the partial stats of a failed solve.
  core::SolveStats* partial_stats = nullptr;
  /// Optional result cache, read and written by RunPipeline (between
  /// Validate and BuildGraph, and after Solve) per `cache_mode`. The stages
  /// themselves never touch it.
  SolveCache* cache = nullptr;
  CacheMode cache_mode = CacheMode::kOff;
  /// Optional precomputed result-cache key (unowned; must equal what
  /// Engine::ResultCacheKey(*instance) would return). Callers that
  /// already fingerprinted the instance -- engine::Server hashes it at
  /// admission for single-flight -- pass it here so RunPipeline does not
  /// hash the instance a second time.
  const util::Hash128* result_key = nullptr;

  // --- stage products ---
  /// StageValidate passed (or validation is disabled).
  bool validated = false;
  /// edges/build_seconds after StageBuildGraph.
  GraphPlan plan;
  /// StageBuildGraph product. Shared so SolveOn can alias a caller-owned
  /// graph into the same slot.
  std::shared_ptr<const core::CandidateGraph> graph;
  /// StageSolve product.
  core::SolveResult solve;
  /// Cache hit: `solve`/`plan` were replayed from the cache and the
  /// BuildGraph/Solve stages were skipped entirely.
  bool result_from_cache = false;
};

}  // namespace engine

/// The facade over the whole solving pipeline, an explicit staged one:
///
///   Validate -> BuildGraph -> Solve
///
/// Each stage is a public method over an engine::ExecutionContext, so a
/// stage can be run, skipped (pre-fill its product), or replayed
/// independently; Run/RunIsolated/SolveOn are compositions of the
/// stages. An optional engine::SolveCache short-circuits the pipeline
/// after Validate: a hit replays the whole result. BuildGraph is
/// core::CandidateGraph::Build, the same builder every streaming round of
/// sim::IncrementalAssigner runs.
///
///   auto engine = rdbsc::Engine::Create({.solver_name = "greedy"});
///   auto result = engine.value().Run(instance);
class Engine {
 public:
  /// An inert engine: Run/SolveOn fail with kFailedPrecondition.
  /// Use Create() for a working one.
  Engine() = default;

  /// Resolves `config.solver_name` through the global registry;
  /// kNotFound (listing the registered names) for unknown solvers.
  static util::StatusOr<Engine> Create(EngineConfig config);

  /// Convenience: default config with just the solver name set.
  static util::StatusOr<Engine> Create(std::string solver_name);

  /// Full pipeline: validate -> build graph -> solve. The
  /// admission budget spans the whole run including graph construction:
  /// every phase polls the deadline/token cooperatively -- the candidate-
  /// graph build checks it between worker-row blocks, so a budget
  /// can cut an in-flight build short with kDeadlineExceeded instead of
  /// running the O(m*n) scan to completion.
  util::StatusOr<EngineResult> Run(const core::Instance& instance,
                                   const RunControls& controls = {});

  /// Graph half of the facade, for callers that reuse one graph across
  /// several solves (e.g. the bench sweeps running 4 approaches). Sharded
  /// over the engine pool; fails with kDeadlineExceeded / kCancelled once
  /// `deadline` trips mid-build.
  util::StatusOr<core::CandidateGraph> BuildGraph(
      const core::Instance& instance, GraphPlan* plan = nullptr,
      const util::Deadline& deadline = util::Deadline()) const;

  /// Solve half, on a prebuilt graph. `controls.cache`/`cache_mode` are
  /// deliberately ignored here: the cache key fingerprints the graph this
  /// engine's configuration would build, and a caller-provided graph may
  /// be anything -- serving or storing such results would poison the
  /// cache with entries the key cannot vouch for.
  util::StatusOr<core::SolveResult> SolveOn(
      const core::Instance& instance, const core::CandidateGraph& graph,
      const RunControls& controls = {});

  /// The path for async admission layers (engine::Server): runs the full
  /// pipeline on a fresh registry-created solver under a caller-owned
  /// deadline (EngineConfig::budget_seconds is ignored here).
  /// Thread-safe -- concurrent calls share no mutable
  /// state -- and serial inside the call (no executor), so the result is
  /// bit-identical no matter which thread runs it. `cache`/`mode` follow
  /// the RunControls semantics (kDefault with a cache means kReadWrite);
  /// a cache hit is bit-identical to the cold solve, so the determinism
  /// contract holds with or without one. `result_key`, when non-null, is
  /// the caller's precomputed ResultCacheKey(instance) (saves re-hashing
  /// the instance on the dispatch hot path).
  util::StatusOr<EngineResult> RunIsolated(
      const core::Instance& instance,
      const util::Deadline& deadline = util::Deadline(),
      engine::SolveCache* cache = nullptr,
      engine::CacheMode mode = engine::CacheMode::kDefault,
      const util::Hash128* result_key = nullptr) const;

  // --- The pipeline stages (see engine::ExecutionContext) ---

  /// Validate: admission control. Fails with the instance's validation
  /// error; a no-op (still marking `validated`) when the engine is
  /// configured with validate_instances = false.
  util::Status StageValidate(engine::ExecutionContext& ctx) const;

  /// Plan: a no-op that only runs the plan-stage timer; kept because the
  /// frozen benchmark runner calls it.
  util::Status StagePlan(engine::ExecutionContext& ctx) const;

  /// BuildGraph: core::CandidateGraph::Build of ctx.instance; fills
  /// ctx.graph and the plan's edges/build_seconds.
  util::Status StageBuildGraph(engine::ExecutionContext& ctx) const;

  /// Solve: runs `solver` on ctx.graph under ctx.deadline.
  util::Status StageSolve(engine::ExecutionContext& ctx,
                          core::Solver& solver) const;

  /// Runs the remaining stages of `ctx` in order, consulting the result
  /// cache after Validate, and returns the composed EngineResult. Stages
  /// whose product is already present (validated / graph) are skipped.
  util::StatusOr<EngineResult> RunPipeline(engine::ExecutionContext& ctx,
                                           core::Solver& solver) const;

  /// The result cache key / single-flight identity of `instance`
  /// under this engine's configuration: a content hash over the instance
  /// and the solver name + options (engine/fingerprint.h documents the
  /// exact field order).
  util::Hash128 ResultCacheKey(const core::Instance& instance) const;

  const EngineConfig& config() const { return config_; }
  /// Registry key, e.g. "dc".
  const std::string& solver_name() const { return config_.solver_name; }
  /// The solver's display name, e.g. "D&C" (empty on an inert engine).
  std::string_view solver_display_name() const;

  /// The engine-owned pool, or nullptr when num_threads <= 1 (serial).
  util::Executor* executor() const { return pool_.get(); }

 private:
  util::Status CheckInitialized() const;
  util::Deadline MakeDeadline(const RunControls& controls) const;
  /// CandidateGraph::Build of `instance` under the build-stage timer; on
  /// success fills `plan`'s (nullable) edges and build_seconds.
  util::StatusOr<core::CandidateGraph> TimedBuild(
      const core::Instance& instance, GraphPlan* plan,
      const util::Deadline& deadline, util::Executor* executor) const;

  EngineConfig config_;
  std::unique_ptr<core::Solver> solver_;
  std::unique_ptr<util::ThreadPool> pool_;
  /// Resolved once in Create from config_.metrics (all-null otherwise).
  engine::StageMetrics stage_metrics_;
};

}  // namespace rdbsc

#endif  // RDBSC_ENGINE_ENGINE_H_
