// city_dc: one-shot D&C solves of Table-2 UNIFORM instances in Figure
// 16's shape (m = 10 n, 4-hour horizon) at m = 2000 tasks, n = 200
// workers. One op is one serial Engine::Run.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "engine/engine.h"
#include "engine/fingerprint.h"
#include "gen/workload.h"
#include "trace.h"
#include "workload.h"

namespace rdbsc::perf {
namespace {

/// Small enough for a few hundred ops a run: D&C time differs a lot
/// between instances of one size, and only many instances per run give
/// a steady median.
constexpr int kTasks = 2000;
constexpr int kWorkers = 200;
/// Distinct instances per run; op k solves instance k % kInstances, so
/// ops past the pool re-solve an instance and must reproduce its answer.
/// About as many as a run has ops: the op-time metrics are taken over
/// slices of some ten ops, and with a smaller pool the slices would
/// repeat a few instance subsets whose mix differs from seed to seed.
constexpr int kInstances = 512;
/// Ops the digest covers; peak memory is read after them.
constexpr int kCheckedOps = 128;

/// Table 2's bold defaults (gen::WorkloadConfig's own) with the figure
/// benches' laptop-scale 4-hour horizon, which keeps the paper's
/// candidate-graph density.
gen::WorkloadConfig Table2Uniform(uint64_t seed) {
  gen::WorkloadConfig config;
  config.num_tasks = kTasks;
  config.num_workers = kWorkers;
  config.start_max = 4.0;
  config.seed = seed;
  return config;
}

class CityDc final : public Workload {
 public:
  util::Status Setup(uint64_t seed, Tracer* tracer) override {
    for (int i = 0; i < kInstances; ++i) {
      instances_.push_back(gen::GenerateInstance(
          Table2Uniform(DeriveSeed(seed, static_cast<uint64_t>(i)))));
    }
    EngineConfig config;
    config.solver_name = SolverNameFor("dc", tracer);
    util::StatusOr<Engine> engine = Engine::Create(config);
    if (!engine.ok()) return engine.status();
    engine_ = std::move(engine).value();
    if (tracer != nullptr) {
      util::StatusOr<std::unique_ptr<core::Solver>> solver =
          core::SolverRegistry::Global().Create(config.solver_name,
                                                config.solver_options);
      if (!solver.ok()) return solver.status();
      solver_ = std::move(solver).value();
    }
    return util::Status::OK();
  }

  Phase Run(double seconds, int64_t min_ops, Tracer* tracer) override {
    Phase phase;
    std::vector<util::StatusOr<EngineResult>> results;
    RunLoop(phase, seconds, min_ops, /*max_ops=*/1 << 20, [&](int64_t k) {
      const core::Instance& instance =
          instances_[static_cast<size_t>(k % kInstances)];
      if (tracer == nullptr) {
        results.push_back(engine_.Run(instance));
        return;
      }
      ScopedSpan span(tracer, "op", k);
      results.push_back(RunStaged(instance, tracer));
    });

    std::vector<util::Hash128> first(kInstances);
    int64_t grid_ops = 0;
    double edges = 0.0;
    for (size_t k = 0; k < results.size(); ++k) {
      const util::Hash128 digest =
          DigestOf(engine::ResultFingerprint(results[k]));
      phase.op_digests.push_back(digest);
      const size_t slot = k % kInstances;
      if (!results[k].ok()) {
        phase.Fail("op " + std::to_string(k) + ": " +
                   results[k].status().ToString());
        continue;
      }
      if (results[k].value().plan.used_grid_index) ++grid_ops;
      edges += static_cast<double>(results[k].value().plan.edges);
      if (k < kInstances) {
        first[slot] = digest;
        if (std::string problem =
                CheckSolve(instances_[slot], results[k].value().solve);
            !problem.empty()) {
          phase.Fail("op " + std::to_string(k) + ": " + problem);
        }
      } else if (digest != first[slot]) {
        phase.Fail("op " + std::to_string(k) + ": rerun diverged");
      }
    }
    // Same instance, same answer: solve op 0's instance once more, untimed.
    if (tracer == nullptr && !phase.op_digests.empty() &&
        DigestOf(engine::ResultFingerprint(engine_.Run(instances_[0]))) !=
            phase.op_digests[0]) {
      phase.Fail("a rerun of op 0's instance diverged");
    }

    if (tracer != nullptr) {
      const auto ops = static_cast<int64_t>(results.size());
      const double per_op = 1.0 / static_cast<double>(ops);
      AddSolveLayers(*tracer, ops, phase.layers);
      std::map<std::string, double> self = tracer->SelfSeconds();
      std::map<std::string, double>& layers = phase.layers;
      layers["engine.validate.self_s"] = self["engine.validate"] * per_op;
      layers["engine.plan.self_s"] = self["engine.plan"] * per_op;
      layers["engine.plan.grid_frac"] = static_cast<double>(grid_ops) * per_op;
      layers["engine.build.self_s"] = self["engine.build"] * per_op;
      layers["engine.build.edges"] = edges * per_op;
      layers["engine.solve.self_s"] = self["engine.solve"] * per_op;
      SetCoverage(phase, layers["engine.validate.self_s"] +
                             layers["engine.plan.self_s"] +
                             layers["engine.build.self_s"] +
                             layers["engine.solve.self_s"] +
                             layers["core.solve.self_s"]);
    }
    return phase;
  }

  int64_t checked_ops() const override { return kCheckedOps; }

 private:
  /// Engine::Run's stages, called one at a time so each gets its span.
  util::StatusOr<EngineResult> RunStaged(const core::Instance& instance,
                                         Tracer* tracer) {
    engine::ExecutionContext ctx;
    ctx.instance = &instance;
    util::Status status;
    {
      ScopedSpan span(tracer, "engine.validate");
      status = engine_.StageValidate(ctx);
    }
    if (status.ok()) {
      ScopedSpan span(tracer, "engine.plan");
      status = engine_.StagePlan(ctx);
    }
    if (status.ok()) {
      ScopedSpan span(tracer, "engine.build");
      status = engine_.StageBuildGraph(ctx);
    }
    if (status.ok()) {
      ScopedSpan span(tracer, "engine.solve");
      status = engine_.StageSolve(ctx, *solver_);
    }
    if (!status.ok()) return status;
    EngineResult result;
    result.solve = std::move(ctx.solve);
    result.plan = ctx.plan;
    return result;
  }

  std::vector<core::Instance> instances_;
  Engine engine_;
  std::unique_ptr<core::Solver> solver_;
};

}  // namespace

std::unique_ptr<Workload> MakeCityDc() { return std::make_unique<CityDc>(); }

}  // namespace rdbsc::perf
