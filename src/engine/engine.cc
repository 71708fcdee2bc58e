#include "engine/engine.h"

#include <chrono>
#include <utility>

#include "engine/fingerprint.h"
#include "engine/solve_cache.h"

namespace rdbsc {
namespace {

// Resolves the RunControls/RunIsolated cache convention: no cache means
// kOff, and kDefault with a cache attached means kReadWrite.
engine::CacheMode ResolveCacheMode(const engine::SolveCache* cache,
                                   engine::CacheMode mode) {
  if (cache == nullptr) return engine::CacheMode::kOff;
  if (mode == engine::CacheMode::kDefault) {
    return engine::CacheMode::kReadWrite;
  }
  return mode;
}

using engine::CacheModeReads;
using engine::CacheModeWrites;
using util::SecondsSince;

// Scope timer recording into an optional stage histogram on destruction.
// A null histogram (no registry attached) costs one branch and skips the
// clock reads entirely, keeping the unobserved hot path unchanged.
class StageTimer {
 public:
  explicit StageTimer(obs::Histogram* hist)
      : hist_(hist), t0_(hist == nullptr
                             ? std::chrono::steady_clock::time_point{}
                             : std::chrono::steady_clock::now()) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() {
    if (hist_ != nullptr) hist_->Observe(SecondsSince(t0_));
  }

 private:
  obs::Histogram* hist_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

util::StatusOr<Engine> Engine::Create(std::string solver_name) {
  EngineConfig config;
  config.solver_name = std::move(solver_name);
  return Create(std::move(config));
}

util::StatusOr<Engine> Engine::Create(EngineConfig config) {
  util::StatusOr<std::unique_ptr<core::Solver>> solver =
      core::SolverRegistry::Global().Create(config.solver_name,
                                            config.solver_options);
  if (!solver.ok()) return solver.status();
  Engine engine;
  engine.config_ = std::move(config);
  engine.solver_ = std::move(solver).value();
  if (engine.config_.num_threads > 1) {
    engine.pool_ =
        std::make_unique<util::ThreadPool>(engine.config_.num_threads);
  }
  if (engine.config_.metrics != nullptr) {
    // Resolve the metric handles once here; the stages then record
    // through plain pointers without ever touching the registry lock.
    obs::Registry& registry = *engine.config_.metrics;
    const std::string& solver_name = engine.config_.solver_name;
    auto stage_hist = [&](const char* stage) {
      return &registry.GetHistogram(
          "engine.stage_seconds",
          {{"solver", solver_name}, {"stage", stage}}, 1e-9);
    };
    engine.stage_metrics_.validate_seconds = stage_hist("validate");
    engine.stage_metrics_.plan_seconds = stage_hist("plan");
    engine.stage_metrics_.build_seconds = stage_hist("build");
    engine.stage_metrics_.solve_seconds = stage_hist("solve");
    engine.stage_metrics_.cache_hits = &registry.GetCounter(
        "engine.cache", {{"solver", solver_name}, {"outcome", "hit"}});
    engine.stage_metrics_.cache_misses = &registry.GetCounter(
        "engine.cache", {{"solver", solver_name}, {"outcome", "miss"}});
  }
  return engine;
}

std::string_view Engine::solver_display_name() const {
  return solver_ == nullptr ? std::string_view{} : solver_->name();
}

// --- Stages --------------------------------------------------------------

util::Status Engine::StageValidate(engine::ExecutionContext& ctx) const {
  StageTimer timer(stage_metrics_.validate_seconds);
  if (config_.validate_instances) {
    if (util::Status status = ctx.instance->Validate(); !status.ok()) {
      return status;
    }
  }
  ctx.validated = true;
  return util::Status::OK();
}

util::Status Engine::StagePlan(engine::ExecutionContext&) const {
  StageTimer timer(stage_metrics_.plan_seconds);
  return util::Status::OK();
}

util::StatusOr<core::CandidateGraph> Engine::TimedBuild(
    const core::Instance& instance, GraphPlan* plan,
    const util::Deadline& deadline, util::Executor* executor) const {
  StageTimer timer(stage_metrics_.build_seconds);
  const auto t0 = std::chrono::steady_clock::now();
  util::StatusOr<core::CandidateGraph> built =
      core::CandidateGraph::Build(instance, executor, deadline);
  if (built.ok() && plan != nullptr) {
    plan->edges = built.value().NumEdges();
    plan->build_seconds = SecondsSince(t0);
  }
  return built;
}

util::Status Engine::StageBuildGraph(engine::ExecutionContext& ctx) const {
  util::StatusOr<core::CandidateGraph> built =
      TimedBuild(*ctx.instance, &ctx.plan, ctx.deadline, ctx.executor);
  if (!built.ok()) return built.status();
  ctx.graph = std::make_shared<const core::CandidateGraph>(
      std::move(built).value());
  return util::Status::OK();
}

util::Status Engine::StageSolve(engine::ExecutionContext& ctx,
                                core::Solver& solver) const {
  StageTimer timer(stage_metrics_.solve_seconds);
  core::SolveRequest request;
  request.instance = ctx.instance;
  request.graph = ctx.graph.get();
  request.deadline = &ctx.deadline;
  request.partial_stats = ctx.partial_stats;
  request.executor = ctx.executor;
  util::StatusOr<core::SolveResult> solved = solver.Solve(request);
  if (!solved.ok()) return solved.status();
  ctx.solve = std::move(solved).value();
  return util::Status::OK();
}

util::StatusOr<EngineResult> Engine::RunPipeline(
    engine::ExecutionContext& ctx, core::Solver& solver) const {
  if (!ctx.validated) {
    if (util::Status status = StageValidate(ctx); !status.ok()) {
      return status;
    }
  }

  const engine::CacheMode mode = ResolveCacheMode(ctx.cache, ctx.cache_mode);
  util::Hash128 cache_key{};
  if (CacheModeReads(mode) || CacheModeWrites(mode)) {
    cache_key = engine::ResultCacheKey(*ctx.instance, config_);
  }
  if (CacheModeReads(mode)) {
    if (std::shared_ptr<const EngineResult> hit =
            ctx.cache->LookupResult(cache_key)) {
      // Bit-identical replay of the cold run that produced the entry
      // (values are immutable and shared); only the provenance flag and
      // -- implicitly -- wall-clock differ.
      if (stage_metrics_.cache_hits != nullptr) {
        stage_metrics_.cache_hits->Increment();
      }
      EngineResult result = *hit;
      result.from_cache = true;
      ctx.plan = result.plan;
      ctx.solve = result.solve;
      ctx.result_from_cache = true;
      return result;
    }
    if (stage_metrics_.cache_misses != nullptr) {
      stage_metrics_.cache_misses->Increment();
    }
  }

  if (ctx.graph == nullptr) {
    if (util::Status status = StageBuildGraph(ctx); !status.ok()) {
      // The build tripped the budget mid-scan; report it the same way a
      // budget-exceeded solve would.
      if (ctx.partial_stats != nullptr &&
          (status.code() == util::StatusCode::kDeadlineExceeded ||
           status.code() == util::StatusCode::kCancelled)) {
        *ctx.partial_stats = core::SolveStats{};
        ctx.partial_stats->budget_exhausted = true;
      }
      return status;
    }
  }

  if (util::Status status = StageSolve(ctx, solver); !status.ok()) {
    return status;
  }

  EngineResult result;
  result.solve = ctx.solve;
  result.plan = ctx.plan;
  if (CacheModeWrites(mode)) {
    ctx.cache->InsertResult(cache_key, result);
  }
  return result;
}

// --- Entry points (stage compositions) -----------------------------------

util::Status Engine::CheckInitialized() const {
  if (solver_ == nullptr) {
    return util::Status::FailedPrecondition(
        "engine not initialized; construct it with Engine::Create");
  }
  return util::Status::OK();
}

util::Deadline Engine::MakeDeadline(const RunControls& controls) const {
  double budget = controls.budget_seconds < 0.0 ? config_.budget_seconds
                                                : controls.budget_seconds;
  return util::Deadline(budget, controls.cancel);
}

util::StatusOr<core::CandidateGraph> Engine::BuildGraph(
    const core::Instance& instance, GraphPlan* plan,
    const util::Deadline& deadline) const {
  // Records into the build-stage histogram too, so SolveOn-style callers
  // (the benches share one graph across approaches) still get a full
  // per-stage breakdown.
  return TimedBuild(instance, plan, deadline, pool_.get());
}

util::StatusOr<core::SolveResult> Engine::SolveOn(
    const core::Instance& instance, const core::CandidateGraph& graph,
    const RunControls& controls) {
  if (util::Status status = CheckInitialized(); !status.ok()) return status;
  engine::ExecutionContext ctx;
  ctx.instance = &instance;
  ctx.deadline = MakeDeadline(controls);
  ctx.executor = pool_.get();
  ctx.partial_stats = controls.partial_stats;
  if (util::Status status = StageValidate(ctx); !status.ok()) return status;
  // The graph is caller-owned and outlives the call; alias it into the
  // context's shared slot without taking ownership.
  ctx.graph = std::shared_ptr<const core::CandidateGraph>(
      std::shared_ptr<const core::CandidateGraph>(), &graph);
  if (util::Status status = StageSolve(ctx, *solver_); !status.ok()) {
    return status;
  }
  return std::move(ctx.solve);
}

util::StatusOr<EngineResult> Engine::Run(const core::Instance& instance,
                                         const RunControls& controls) {
  if (util::Status status = CheckInitialized(); !status.ok()) return status;
  engine::ExecutionContext ctx;
  ctx.instance = &instance;
  ctx.deadline = MakeDeadline(controls);
  ctx.executor = pool_.get();
  ctx.partial_stats = controls.partial_stats;
  ctx.cache = controls.cache;
  ctx.cache_mode = controls.cache_mode;
  return RunPipeline(ctx, *solver_);
}

util::StatusOr<EngineResult> Engine::RunIsolated(
    const core::Instance& instance, const util::Deadline& deadline,
    engine::SolveCache* cache, engine::CacheMode mode) const {
  if (util::Status status = CheckInitialized(); !status.ok()) return status;
  util::StatusOr<std::unique_ptr<core::Solver>> solver =
      core::SolverRegistry::Global().Create(config_.solver_name,
                                            config_.solver_options);
  if (!solver.ok()) return solver.status();
  engine::ExecutionContext ctx;
  ctx.instance = &instance;
  ctx.deadline = deadline;
  ctx.cache = cache;
  ctx.cache_mode = mode;
  return RunPipeline(ctx, *solver.value());
}

}  // namespace rdbsc
