// Satellite acceptance for the parallel execution layer: with a fixed
// seed, every parallel path must reproduce its serial result bit for bit
// at every thread count -- identical candidate-graph edge sets, identical
// RetrievalStats totals, and identical D&C / sampling assignments and
// objectives. Threads only change wall-clock time, never answers.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/assignment.h"
#include "core/divide_conquer.h"
#include "core/instance.h"
#include "core/sampling.h"
#include "core/solver.h"
#include "gen/workload.h"
#include "gtest/gtest.h"
#include "index/grid_index.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace rdbsc {
namespace {

using core::CandidateGraph;
using core::Instance;
using core::SolveResult;
using core::TaskId;
using core::WorkerId;

constexpr int kThreadCounts[] = {1, 2, 8};

void ExpectSameAssignment(const Instance& instance, const SolveResult& a,
                          const SolveResult& b, const char* label) {
  EXPECT_DOUBLE_EQ(a.objectives.total_std, b.objectives.total_std) << label;
  EXPECT_DOUBLE_EQ(a.objectives.min_reliability,
                   b.objectives.min_reliability)
      << label;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    ASSERT_EQ(a.assignment.TaskOf(j), b.assignment.TaskOf(j))
        << label << ", worker " << j;
  }
}

SolveResult SolveWith(core::Solver& solver, const Instance& instance,
                      const CandidateGraph& graph,
                      util::Executor* executor) {
  core::SolveRequest request;
  request.instance = &instance;
  request.graph = &graph;
  request.executor = executor;
  return solver.Solve(request).value();
}

TEST(ParallelDeterminismTest, CandidateGraphBuildMatchesSerial) {
  for (uint64_t seed : {3, 7, 11}) {
    Instance instance = test::SmallInstance(seed, 60, 90);
    CandidateGraph serial = CandidateGraph::Build(instance);
    for (int threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      CandidateGraph parallel =
          CandidateGraph::Build(instance, &pool, util::Deadline()).value();
      ASSERT_EQ(parallel.NumEdges(), serial.NumEdges()) << threads;
      for (WorkerId j = 0; j < instance.num_workers(); ++j) {
        ASSERT_TRUE(std::ranges::equal(parallel.TasksOf(j), serial.TasksOf(j)))
            << threads << " threads, worker " << j;
      }
      for (TaskId i = 0; i < instance.num_tasks(); ++i) {
        ASSERT_TRUE(
            std::ranges::equal(parallel.WorkersOf(i), serial.WorkersOf(i)))
            << threads << " threads, task " << i;
      }
    }
  }
}

TEST(ParallelDeterminismTest, GridRetrievalMatchesSerialIncludingStats) {
  Instance instance = test::SmallInstance(13, 80, 80);
  for (double eta : {0.05, 0.15}) {
    index::GridIndex serial_index = index::GridIndex::Build(instance, eta);
    index::RetrievalStats serial_stats;
    std::vector<std::vector<TaskId>> serial_edges =
        serial_index.RetrieveEdges(&serial_stats).value();

    for (int threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      // Fresh index per thread count so the lazy-cache state (and with it
      // the cell-pair accounting) starts identical to the serial run.
      index::GridIndex index = index::GridIndex::Build(instance, eta);
      index::RetrievalStats stats;
      std::vector<std::vector<TaskId>> edges =
          index.RetrieveEdges(&stats, &pool).value();
      EXPECT_EQ(edges, serial_edges) << threads << " threads, eta " << eta;
      EXPECT_EQ(stats.cell_pairs_examined, serial_stats.cell_pairs_examined);
      EXPECT_EQ(stats.cell_pairs_pruned, serial_stats.cell_pairs_pruned);
      EXPECT_EQ(stats.pair_tests, serial_stats.pair_tests);
      EXPECT_EQ(stats.edges, serial_stats.edges);
    }
  }
}

TEST(ParallelDeterminismTest, SamplingSolverMatchesSerial) {
  for (uint64_t seed : {5, 9}) {
    Instance instance = test::SmallInstance(seed, 20, 50);
    CandidateGraph graph = CandidateGraph::Build(instance);
    core::SolverOptions options;
    options.seed = seed * 1'000 + 1;
    core::SamplingSolver solver(options);
    SolveResult serial = SolveWith(solver, instance, graph, nullptr);
    for (int threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      SolveResult parallel = SolveWith(solver, instance, graph, &pool);
      ExpectSameAssignment(instance, parallel, serial, "sampling");
      EXPECT_EQ(parallel.stats.sample_size, serial.stats.sample_size);
      EXPECT_EQ(parallel.stats.exact_std_evals, serial.stats.exact_std_evals);
    }
  }
}

// Shards hold uneven sample counts (37 samples over 2, 3 and 4 shards),
// each scoring with its own scratch over shared per-edge memos: the
// winner and its objectives must match the serial run and a fresh
// EvaluateAssignment bit for bit.
TEST(ParallelDeterminismTest, SamplingReusedShardStatesMatchSerialBits) {
  for (uint64_t seed : {12, 14}) {
    Instance instance = test::SmallInstance(seed, 24, 60);
    CandidateGraph graph = CandidateGraph::Build(instance);
    core::SolverOptions options;
    options.seed = seed;
    options.fixed_sample_size = 37;
    core::SamplingSolver solver(options);
    SolveResult serial = SolveWith(solver, instance, graph, nullptr);
    const core::ObjectiveValue fresh =
        core::EvaluateAssignment(instance, serial.assignment);
    EXPECT_EQ(std::bit_cast<uint64_t>(serial.objectives.total_std),
              std::bit_cast<uint64_t>(fresh.total_std));
    EXPECT_EQ(std::bit_cast<uint64_t>(serial.objectives.min_reliability),
              std::bit_cast<uint64_t>(fresh.min_reliability));
    for (int threads : {2, 3, 4}) {
      util::ThreadPool pool(threads);
      SolveResult parallel = SolveWith(solver, instance, graph, &pool);
      ExpectSameAssignment(instance, parallel, serial, "sampling");
      EXPECT_EQ(std::bit_cast<uint64_t>(parallel.objectives.total_std),
                std::bit_cast<uint64_t>(serial.objectives.total_std))
          << threads;
    }
  }
}

// A streaming round's shape: over a thousand open tasks, most workers
// with no valid task, and a sample count (37) that 2, 3 and 8 shards do
// not divide. Every shard scores its samples from the per-edge memos the
// serial draw filled; the winner, its objective bits, the sample count
// and the ExpectedStd count must match the serial run.
TEST(ParallelDeterminismTest, SamplingAtStreamRoundShapeMatchesSerial) {
  gen::WorkloadConfig config;  // Table 2, slow workers
  config.num_tasks = 1'100;
  config.num_workers = 700;
  config.v_min = 0.02;
  config.v_max = 0.04;
  config.seed = 21;
  const Instance instance = gen::GenerateInstance(config);
  const CandidateGraph graph = CandidateGraph::Build(instance);
  int drawing = 0;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    drawing += graph.Degree(j) > 0;
  }
  ASSERT_GT(drawing, 0);
  ASSERT_LT(2 * drawing, instance.num_workers()) << "mostly degree 0";

  core::SolverOptions options;
  options.seed = 21;
  options.fixed_sample_size = 37;
  core::SamplingSolver solver(options);
  const SolveResult serial = SolveWith(solver, instance, graph, nullptr);
  ASSERT_EQ(serial.stats.sample_size, 37);
  for (int threads : {2, 3, 8}) {
    util::ThreadPool pool(threads);
    const SolveResult parallel = SolveWith(solver, instance, graph, &pool);
    ExpectSameAssignment(instance, parallel, serial, "sampling");
    EXPECT_EQ(std::bit_cast<uint64_t>(parallel.objectives.total_std),
              std::bit_cast<uint64_t>(serial.objectives.total_std))
        << threads;
    EXPECT_EQ(std::bit_cast<uint64_t>(parallel.objectives.min_reliability),
              std::bit_cast<uint64_t>(serial.objectives.min_reliability))
        << threads;
    EXPECT_EQ(parallel.stats.sample_size, serial.stats.sample_size)
        << threads;
    EXPECT_EQ(parallel.stats.exact_std_evals, serial.stats.exact_std_evals)
        << threads;
  }
}

TEST(ParallelDeterminismTest, DivideConquerMatchesSerial) {
  for (uint64_t seed : {4, 8}) {
    // Enough tasks that the recursion produces several leaves.
    Instance instance = test::SmallInstance(seed, 80, 60);
    CandidateGraph graph = CandidateGraph::Build(instance);
    core::SolverOptions options;
    options.seed = seed + 100;
    options.gamma = 12;
    core::DivideConquerSolver solver(options);
    SolveResult serial = SolveWith(solver, instance, graph, nullptr);
    for (int threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      SolveResult parallel = SolveWith(solver, instance, graph, &pool);
      ExpectSameAssignment(instance, parallel, serial, "dc");
      EXPECT_EQ(parallel.stats.exact_std_evals, serial.stats.exact_std_evals);
      EXPECT_EQ(parallel.stats.sample_size, serial.stats.sample_size);
    }
  }
}

TEST(ParallelDeterminismTest, GroundTruthSolverMatchesSerial) {
  Instance instance = test::SmallInstance(6, 50, 40);
  CandidateGraph graph = CandidateGraph::Build(instance);
  core::SolverOptions options;
  options.gamma = 10;
  core::GroundTruthSolver solver(options);
  SolveResult serial = SolveWith(solver, instance, graph, nullptr);
  util::ThreadPool pool(4);
  SolveResult parallel = SolveWith(solver, instance, graph, &pool);
  ExpectSameAssignment(instance, parallel, serial, "gtruth");
}

}  // namespace
}  // namespace rdbsc
