#include "engine/engine.h"

#include "core/registry.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/deadline.h"

namespace rdbsc {
namespace {

using test::SmallInstance;

TEST(EngineTest, CreateRejectsUnknownSolver) {
  EngineConfig config;
  config.solver_name = "definitely-not-registered";
  util::StatusOr<Engine> engine = Engine::Create(config);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kNotFound);
}

TEST(EngineTest, DefaultConstructedEngineIsInert) {
  Engine engine;
  core::Instance instance = SmallInstance(1);
  util::StatusOr<EngineResult> run = engine.Run(instance);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(EngineTest, ValidatesInstancesBeforeSolving) {
  core::Task task = test::MakeTask();
  core::Worker bad;
  bad.location = {0.5, 0.5};
  bad.velocity = -1.0;  // invalid: Instance::Validate must reject this
  core::Instance instance({task}, {bad});

  Engine engine = Engine::Create("greedy").value();
  util::StatusOr<EngineResult> run = engine.Run(instance);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument);
}

// The two graph-construction paths must agree edge-for-edge, so forcing
// either one through the facade yields the same assignment for one seed.
TEST(EngineTest, GridAndBruteForceGraphsProduceTheSameSolve) {
  core::Instance instance = SmallInstance(9, 30, 60);

  EngineConfig brute;
  brute.solver_name = "greedy";
  brute.graph_strategy = GraphStrategy::kBruteForce;
  EngineConfig grid = brute;
  grid.graph_strategy = GraphStrategy::kGridIndex;

  EngineResult via_brute =
      Engine::Create(brute).value().Run(instance).value();
  EngineResult via_grid =
      Engine::Create(grid).value().Run(instance).value();

  EXPECT_FALSE(via_brute.plan.used_grid_index);
  EXPECT_TRUE(via_grid.plan.used_grid_index);
  EXPECT_GT(via_grid.plan.eta, 0.0);
  EXPECT_EQ(via_brute.plan.edges, via_grid.plan.edges);
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_EQ(via_brute.solve.assignment.TaskOf(j),
              via_grid.solve.assignment.TaskOf(j))
        << "worker " << j;
  }
}

TEST(EngineTest, AutoStrategyPicksAPathAndSolves) {
  core::Instance instance = SmallInstance(10, 20, 40);
  Engine engine = Engine::Create("dc").value();
  EngineResult result = engine.Run(instance).value();
  EXPECT_GE(result.plan.edges, 0);
  EXPECT_GE(result.solve.objectives.total_std, 0.0);
}

// Acceptance criterion: a budget-exhausted solve returns a non-OK status
// (kDeadlineExceeded) with partial stats instead of hanging.
TEST(EngineTest, TinyBudgetReturnsDeadlineExceededWithPartialStats) {
  core::Instance instance = SmallInstance(11, 20, 60);
  for (const char* name : {"greedy", "worker-greedy", "sampling", "dc",
                           "gtruth"}) {
    EngineConfig config;
    config.solver_name = name;
    Engine engine = Engine::Create(config).value();
    core::SolveStats partial;
    RunControls controls;
    controls.budget_seconds = 1e-12;
    controls.partial_stats = &partial;
    util::StatusOr<EngineResult> run = engine.Run(instance, controls);
    ASSERT_FALSE(run.ok()) << name;
    EXPECT_EQ(run.status().code(), util::StatusCode::kDeadlineExceeded)
        << name << ": " << run.status().ToString();
    EXPECT_TRUE(partial.budget_exhausted) << name;
  }
}

TEST(EngineTest, ExactSolverHonorsTinyBudget) {
  // Small enough to be under the enumeration cap, so the failure comes
  // from the budget (not the cap check).
  core::Instance instance = SmallInstance(12, 4, 8);
  EngineConfig config;
  config.solver_name = "exact";
  config.budget_seconds = 1e-12;  // engine-level default budget
  Engine engine = Engine::Create(config).value();
  util::StatusOr<EngineResult> run = engine.Run(instance);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kDeadlineExceeded);
}

TEST(EngineTest, CancelTokenStopsTheSolve) {
  core::Instance instance = SmallInstance(13, 20, 60);
  Engine engine = Engine::Create("sampling").value();
  util::CancelToken cancel;
  cancel.Cancel();  // already cancelled: the solve must not run
  RunControls controls;
  controls.cancel = &cancel;
  util::StatusOr<EngineResult> run = engine.Run(instance, controls);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kCancelled);
}

TEST(EngineTest, PerRunBudgetOverridesConfigDefault) {
  core::Instance instance = SmallInstance(14, 16, 40);
  EngineConfig config;
  config.solver_name = "sampling";
  config.budget_seconds = 1e-12;  // default would fail...
  Engine engine = Engine::Create(config).value();
  RunControls controls;
  controls.budget_seconds = 0.0;  // ...but 0 means unlimited per-run
  util::StatusOr<EngineResult> run = engine.Run(instance, controls);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
}

TEST(EngineTest, SolveOnReusesACallerGraph) {
  core::Instance instance = SmallInstance(15, 12, 30);
  Engine engine = Engine::Create("greedy").value();
  GraphPlan plan;
  core::CandidateGraph graph = engine.BuildGraph(instance, &plan).value();
  EXPECT_EQ(plan.edges, graph.NumEdges());
  util::StatusOr<core::SolveResult> solve = engine.SolveOn(instance, graph);
  ASSERT_TRUE(solve.ok());
  test::ExpectFeasible(instance, graph, solve.value().assignment);
}

// Satellite acceptance: the build phase itself now has interruption
// points, so a deadline that trips during (or before) graph construction
// surfaces as kDeadlineExceeded instead of the O(m*n) scan running to
// completion. The instance is large enough that a 50-microsecond budget
// cannot cover the build on any machine.
TEST(EngineTest, MidBuildDeadlineReturnsDeadlineExceeded) {
  core::Instance instance = SmallInstance(16, 1'500, 1'500);
  EngineConfig config;
  config.solver_name = "greedy";
  config.graph_strategy = GraphStrategy::kBruteForce;
  Engine engine = Engine::Create(config).value();
  core::SolveStats partial;
  RunControls controls;
  controls.budget_seconds = 50e-6;
  controls.partial_stats = &partial;
  util::StatusOr<EngineResult> run = engine.Run(instance, controls);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(partial.budget_exhausted);
}

TEST(EngineTest, BuildGraphReportsTrippedDeadline) {
  core::Instance instance = SmallInstance(17, 30, 30);
  Engine engine = Engine::Create("greedy").value();
  util::CancelToken cancel;
  cancel.Cancel();
  util::Deadline tripped(0.0, &cancel);
  for (GraphStrategy strategy :
       {GraphStrategy::kBruteForce, GraphStrategy::kGridIndex}) {
    EngineConfig config;
    config.solver_name = "greedy";
    config.graph_strategy = strategy;
    Engine strategic = Engine::Create(config).value();
    util::StatusOr<core::CandidateGraph> graph =
        strategic.BuildGraph(instance, nullptr, tripped);
    ASSERT_FALSE(graph.ok());
    EXPECT_EQ(graph.status().code(), util::StatusCode::kCancelled);
  }
}

}  // namespace
}  // namespace rdbsc
