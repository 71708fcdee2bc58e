#include "core/registry.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace rdbsc::core {
namespace {

using test::ExpectFeasible;
using test::SmallInstance;

TEST(SolverRegistryTest, GlobalHasAllSixBuiltins) {
  std::vector<std::string> names = SolverRegistry::Global().Names();
  const std::vector<std::string> expected = {
      "dc", "exact", "greedy", "gtruth", "sampling", "worker-greedy"};
  for (const std::string& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "missing builtin solver " << name;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// Every registered name must round-trip to a working solver: create it,
// solve a tiny instance, get a feasible assignment. Tiny sizes keep even
// the EXACT enumeration in microseconds.
TEST(SolverRegistryTest, EveryNameRoundTripsToAWorkingSolver) {
  Instance instance = SmallInstance(3, /*num_tasks=*/4, /*num_workers=*/7);
  CandidateGraph graph = CandidateGraph::Build(instance);
  for (const std::string& name : SolverRegistry::Global().Names()) {
    util::StatusOr<std::unique_ptr<Solver>> solver =
        SolverRegistry::Global().Create(name);
    ASSERT_TRUE(solver.ok()) << name;
    ASSERT_NE(solver.value(), nullptr) << name;
    EXPECT_FALSE(solver.value()->name().empty()) << name;
    util::StatusOr<SolveResult> result =
        solver.value()->Solve(instance, graph);
    ASSERT_TRUE(result.ok())
        << name << ": " << result.status().ToString();
    ExpectFeasible(instance, graph, result.value().assignment);
    EXPECT_GT(result.value().stats.wall_seconds, 0.0) << name;
  }
}

// Solver::Solve times every solve, so a budget failure carries its wall
// time into the caller's partial stats too.
TEST(SolverRegistryTest, BudgetFailureReportsWallTimeInPartialStats) {
  Instance instance = SmallInstance(5, /*num_tasks=*/4, /*num_workers=*/7);
  CandidateGraph graph = CandidateGraph::Build(instance);
  util::CancelToken cancelled;
  cancelled.Cancel();
  for (const std::string& name : SolverRegistry::Global().Names()) {
    std::unique_ptr<Solver> solver =
        std::move(SolverRegistry::Global().Create(name).value());
    SolveStats partial;
    SolveRequest request;
    request.instance = &instance;
    request.graph = &graph;
    request.cancel = &cancelled;
    request.partial_stats = &partial;
    util::StatusOr<SolveResult> stopped = solver->Solve(request);
    ASSERT_FALSE(stopped.ok()) << name;
    EXPECT_EQ(stopped.status().code(), util::StatusCode::kCancelled) << name;
    EXPECT_TRUE(partial.budget_exhausted) << name;
    EXPECT_GT(partial.wall_seconds, 0.0) << name;
  }
}

TEST(SolverRegistryTest, UnknownNameIsNotFoundAndListsAlternatives) {
  util::StatusOr<std::unique_ptr<Solver>> created =
      SolverRegistry::Global().Create("no-such-solver");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), util::StatusCode::kNotFound);
  // The error message doubles as discovery for CLI users.
  EXPECT_NE(created.status().message().find("greedy"), std::string::npos);
  EXPECT_NE(created.status().message().find("dc"), std::string::npos);
}

TEST(SolverRegistryTest, OptionsReachTheCreatedSolver) {
  Instance instance = SmallInstance(4);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions options;
  options.fixed_sample_size = 17;
  auto solver = SolverRegistry::Global().Create("sampling", options);
  ASSERT_TRUE(solver.ok());
  util::StatusOr<SolveResult> result =
      solver.value()->Solve(instance, graph);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.sample_size, 17);
}

TEST(SolverRegistryTest, DuplicateRegistrationFails) {
  util::Status status = SolverRegistry::Global().Register(
      "greedy",
      [](const SolverOptions&) { return std::unique_ptr<Solver>(); });
  EXPECT_EQ(status.code(), util::StatusCode::kAlreadyExists);
}

TEST(SolverRegistryTest, ApplicationsCanRegisterCustomSolvers) {
  SolverRegistry registry;  // private registry, not the global one
  EXPECT_FALSE(registry.Contains("custom"));
  ASSERT_TRUE(registry
                  .Register("custom",
                            [](const SolverOptions& options) {
                              return SolverRegistry::Global()
                                  .Create("greedy", options)
                                  .value();
                            })
                  .ok());
  EXPECT_TRUE(registry.Contains("custom"));
  Instance instance = SmallInstance(5);
  CandidateGraph graph = CandidateGraph::Build(instance);
  auto solver = registry.Create("custom");
  ASSERT_TRUE(solver.ok());
  EXPECT_TRUE(solver.value()->Solve(instance, graph).ok());
}

TEST(SolverRegistryDeathTest, FailedBuiltinRegistrationAborts) {
  SolverRegistry registry;
  internal::RegisterGreedySolver(registry);
  EXPECT_DEATH(internal::RegisterGreedySolver(registry),
               "solver 'greedy' is already registered");
}

TEST(SolverRegistryTest, RegistrationNeedsNameAndFactory) {
  SolverRegistry registry;
  EXPECT_EQ(registry.Register("", [](const SolverOptions&) {
                      return std::unique_ptr<Solver>();
                    }).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("x", nullptr).code(),
            util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rdbsc::core
