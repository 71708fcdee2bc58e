// End-to-end tests wiring the full stack together: generators -> grid
// index -> candidate graph -> every solver -> objective evaluation, plus
// the platform loop on top of each solver.

#include <memory>
#include <string>
#include <vector>

#include "core/registry.h"
#include "engine/engine.h"
#include "gen/trajectory.h"
#include "gen/workload.h"
#include "gtest/gtest.h"
#include "index/cost_model.h"
#include "index/grid_index.h"
#include "sim/platform.h"
#include "test_util.h"
#include "util/fractal.h"

namespace rdbsc {
namespace {

std::vector<std::unique_ptr<core::Solver>> AllSolvers() {
  std::vector<std::unique_ptr<core::Solver>> solvers;
  core::SolverOptions options;
  options.gamma = 8;
  for (std::string_view name : core::kSection81Approaches) {
    solvers.push_back(
        core::SolverRegistry::Global().Create(name, options).value());
  }
  return solvers;
}

TEST(IntegrationTest, IndexFedSolveEqualsBruteForceFedSolve) {
  core::Instance instance = test::SmallInstance(42, 30, 60);

  // Choose eta with the cost model, using the estimated fractal dimension.
  std::vector<util::KmPoint> points;
  for (int i = 0; i < instance.num_tasks(); ++i) {
    points.push_back({instance.task(i).location.x,
                      instance.task(i).location.y});
  }
  index::CostModelParams cm;
  cm.l_max = 0.5;
  cm.d2 = util::EstimateCorrelationDimension(points);
  cm.num_points = instance.num_tasks();
  double eta = index::OptimalEta(cm);

  index::GridIndex grid = index::GridIndex::Build(instance, eta);
  core::CandidateGraph indexed =
      core::CandidateGraph::FromEdges(instance, grid.RetrieveEdges().value());
  core::CandidateGraph brute = core::CandidateGraph::Build(instance);
  ASSERT_EQ(indexed.NumEdges(), brute.NumEdges());

  for (auto& solver : AllSolvers()) {
    core::SolveResult via_index = solver->Solve(instance, indexed).value();
    core::SolveResult via_brute = solver->Solve(instance, brute).value();
    // Same edges and same seed: identical assignments.
    for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
      EXPECT_EQ(via_index.assignment.TaskOf(j),
                via_brute.assignment.TaskOf(j))
          << solver->name() << " worker " << j;
    }
  }
}

TEST(IntegrationTest, AllSolversFeasibleOnRealWorkload) {
  gen::RealWorkloadConfig config;
  config.num_tasks = 60;
  config.poi.num_pois = 200;
  config.trajectory.num_taxis = 80;
  core::Instance instance = gen::GenerateRealInstance(config);
  core::CandidateGraph graph = core::CandidateGraph::Build(instance);
  for (auto& solver : AllSolvers()) {
    core::SolveResult result = solver->Solve(instance, graph).value();
    test::ExpectFeasible(instance, graph, result.assignment);
    core::ObjectiveValue check =
        core::EvaluateAssignment(instance, result.assignment);
    EXPECT_NEAR(result.objectives.total_std, check.total_std, 1e-9)
        << solver->name();
  }
}

TEST(IntegrationTest, AllSolversFeasibleOnSkewedWorkload) {
  gen::WorkloadConfig config;
  config.num_tasks = 40;
  config.num_workers = 80;
  config.task_distribution = gen::SpatialDistribution::kSkewed;
  config.worker_distribution = gen::SpatialDistribution::kSkewed;
  config.seed = 5;
  core::Instance instance = gen::GenerateInstance(config);
  core::CandidateGraph graph = core::CandidateGraph::Build(instance);
  for (auto& solver : AllSolvers()) {
    core::SolveResult result = solver->Solve(instance, graph).value();
    test::ExpectFeasible(instance, graph, result.assignment);
  }
}

TEST(IntegrationTest, PlatformRunsWithEverySolver) {
  for (std::string_view name : core::kSection81Approaches) {
    sim::PlatformConfig config;
    config.seed = 31;
    config.solver_name = std::string(name);
    sim::Platform platform(config);
    sim::PlatformResult result = platform.Run().value();
    EXPECT_GT(result.assignments_made, 0) << name;
    EXPECT_GE(result.final_objectives.total_std, 0.0) << name;
  }
}

TEST(IntegrationTest, EngineMatchesManualPipeline) {
  // The facade must produce exactly what the hand-wired pipeline does:
  // same edges and, for a fixed seed, the same assignment.
  core::Instance instance = test::SmallInstance(7, 25, 50);
  EngineConfig config;
  config.solver_name = "greedy";
  Engine engine = Engine::Create(config).value();
  EngineResult via_engine = engine.Run(instance).value();

  core::CandidateGraph graph = core::CandidateGraph::Build(instance);
  EXPECT_EQ(via_engine.plan.edges, graph.NumEdges());
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  core::SolveResult manual = solver->Solve(instance, graph).value();
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_EQ(via_engine.solve.assignment.TaskOf(j),
              manual.assignment.TaskOf(j));
  }
}

TEST(IntegrationTest, MoreWorkersRaiseTotalStd) {
  // Paper Fig. 14(b): total_STD grows with n for every approach.
  for (auto& solver : AllSolvers()) {
    gen::WorkloadConfig small_config;
    small_config.num_tasks = 20;
    small_config.num_workers = 30;
    small_config.angle_range = 3.1;
    small_config.seed = 77;
    gen::WorkloadConfig big_config = small_config;
    big_config.num_workers = 120;

    core::Instance small = gen::GenerateInstance(small_config);
    core::Instance big = gen::GenerateInstance(big_config);
    core::CandidateGraph small_graph = core::CandidateGraph::Build(small);
    core::CandidateGraph big_graph = core::CandidateGraph::Build(big);
    double small_std =
        solver->Solve(small, small_graph).value().objectives.total_std;
    double big_std = solver->Solve(big, big_graph).value().objectives.total_std;
    EXPECT_GT(big_std, small_std) << solver->name();
  }
}

}  // namespace
}  // namespace rdbsc
