// Property test closing a coverage gap: the grid-index retrieval
// (GridIndex::Build plus RetrieveEdges) and the brute-force O(m*n) scan
// (CandidateGraph::Build) must produce edge-set-identical candidate graphs
// on randomized instances, at a fine and a coarse cell side.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "gtest/gtest.h"
#include "index/grid_index.h"
#include "test_util.h"

namespace rdbsc {
namespace {

// Cell sides of the grid retrievals compared against the brute scan.
constexpr double kCellSides[] = {0.05, 0.15};

// Per-worker adjacency as sorted rows: the two construction paths may
// emit a worker's tasks in different orders, but the edge *set* must
// match exactly.
std::vector<std::vector<core::TaskId>> SortedRows(
    const core::CandidateGraph& graph) {
  std::vector<std::vector<core::TaskId>> rows(graph.num_workers());
  for (core::WorkerId j = 0; j < graph.num_workers(); ++j) {
    const auto row = graph.TasksOf(j);
    rows[j].assign(row.begin(), row.end());
    std::sort(rows[j].begin(), rows[j].end());
  }
  return rows;
}

// The graph a fresh grid with cell side `eta` retrieves for `instance`.
core::CandidateGraph GridGraph(const core::Instance& instance, double eta) {
  const index::GridIndex grid = index::GridIndex::Build(instance, eta);
  return core::CandidateGraph::FromEdges(instance,
                                         grid.RetrieveEdges().value());
}

TEST(GraphEquivalenceTest, GridAndBruteForceAgreeOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    // Vary the shape: 8..57 tasks x 12..110 workers across the sweep.
    const int num_tasks = 8 + static_cast<int>(seed);
    const int num_workers = 12 + static_cast<int>(seed * 2);
    core::Instance instance =
        test::SmallInstance(seed, num_tasks, num_workers);

    const core::CandidateGraph brute_graph =
        core::CandidateGraph::Build(instance);
    const std::vector<std::vector<core::TaskId>> brute_rows =
        SortedRows(brute_graph);

    for (const double eta : kCellSides) {
      const core::CandidateGraph grid_graph = GridGraph(instance, eta);
      ASSERT_EQ(grid_graph.NumEdges(), brute_graph.NumEdges())
          << "seed " << seed << " eta " << eta;
      ASSERT_EQ(SortedRows(grid_graph), brute_rows)
          << "seed " << seed << " eta " << eta;
    }
  }
}

TEST(GraphEquivalenceTest, EmptyAndDegenerateInstancesAgree) {
  for (auto [num_tasks, num_workers] :
       {std::pair<int, int>{1, 1}, {1, 8}, {6, 1}}) {
    core::Instance instance =
        test::SmallInstance(5, num_tasks, num_workers);
    const core::CandidateGraph brute = core::CandidateGraph::Build(instance);
    for (const double eta : kCellSides) {
      EXPECT_EQ(SortedRows(GridGraph(instance, eta)), SortedRows(brute))
          << num_tasks << "x" << num_workers << " eta " << eta;
    }
  }
}

}  // namespace
}  // namespace rdbsc
