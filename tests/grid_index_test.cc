#include "index/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "core/instance.h"
#include "geo/angle.h"
#include "geo/box.h"
#include "gen/workload.h"
#include "gtest/gtest.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "test_util.h"

namespace rdbsc::index {
namespace {

using core::CandidateGraph;
using core::Instance;
using core::TaskId;
using core::WorkerId;

// Canonical comparison: the index must produce exactly the edges the
// brute-force predicate produces.
void ExpectSameEdges(const Instance& instance, const GridIndex& index) {
  CandidateGraph brute = CandidateGraph::Build(instance);
  std::vector<std::vector<TaskId>> indexed = index.RetrieveEdges().value();
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    const auto row = brute.TasksOf(j);
    std::vector<TaskId> expected(row.begin(), row.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(indexed[j], expected) << "worker " << j;
  }
}

void ExpectSameStats(const RetrievalStats& got, const RetrievalStats& want) {
  EXPECT_EQ(got.cell_pairs_examined, want.cell_pairs_examined);
  EXPECT_EQ(got.cell_pairs_pruned, want.cell_pairs_pruned);
  EXPECT_EQ(got.pair_tests, want.pair_tests);
  EXPECT_EQ(got.edges, want.edges);
}

TEST(GridIndexTest, MatchesBruteForceOnRandomInstances) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Instance instance = test::SmallInstance(seed, 40, 60);
    GridIndex index = GridIndex::Build(instance, /*eta=*/0.1);
    ExpectSameEdges(instance, index);
  }
}

TEST(GridIndexTest, MatchesBruteForceAcrossCellSizes) {
  Instance instance = test::SmallInstance(7, 30, 50);
  for (double eta : {0.02, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    GridIndex index = GridIndex::Build(instance, eta);
    ExpectSameEdges(instance, index);
  }
}

// Tasks and workers with a NaN coordinate (as unvalidated input may hold)
// are filed in a fixed cell instead of a cell computed from an undefined
// cast; they form no valid pair, and every other edge is retrieved as the
// scan finds it.
TEST(GridIndexTest, NanLocationsMatchBruteForce) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Instance generated = test::SmallInstance(9, 60, 90);
  std::vector<core::Task> tasks = generated.tasks();
  std::vector<core::Worker> workers = generated.workers();
  for (size_t i = 0; i < tasks.size(); i += 7) {
    tasks[i].location = i % 2 == 0 ? geo::Point{nan, 0.4}
                                   : geo::Point{0.6, nan};
  }
  for (size_t j = 0; j < workers.size(); j += 9) {
    workers[j].location = j % 2 == 0 ? geo::Point{nan, nan}
                                     : geo::Point{0.3, nan};
  }
  for (core::ArrivalPolicy policy :
       {core::ArrivalPolicy::kStrict, core::ArrivalPolicy::kAllowWait}) {
    const Instance instance(tasks, workers, generated.now(), policy);
    for (double eta : {0.05, 0.2, 1.0}) {
      ExpectSameEdges(instance, GridIndex::Build(instance, eta));
    }
    const CandidateGraph brute = CandidateGraph::Build(instance);
    EXPECT_GT(brute.NumEdges(), 0);
    for (size_t j = 0; j < workers.size(); j += 9) {
      EXPECT_EQ(brute.Degree(static_cast<WorkerId>(j)), 0) << "worker " << j;
    }
  }
}

TEST(GridIndexTest, PruningActuallyFires) {
  // Narrow cones and short periods make many cells unreachable.
  gen::WorkloadConfig config;
  config.num_tasks = 60;
  config.num_workers = 60;
  config.angle_range = 0.3;
  config.rt_min = 0.2;
  config.rt_max = 0.4;
  config.v_min = 0.05;
  config.v_max = 0.1;
  config.seed = 13;
  Instance instance = gen::GenerateInstance(config);
  GridIndex index = GridIndex::Build(instance, 0.08);
  RetrievalStats stats;
  index.RetrieveEdges(&stats).value();
  EXPECT_GT(stats.cell_pairs_pruned, 0);
  ExpectSameEdges(instance, index);  // and pruning is safe
}

// The direction rule reads each cell pair's bearing interval from a
// per-offset table built in cell units (geo::CellBearingTable) instead of
// from the eta-scaled cell boxes. For every cell pair of each grid size
// the table must match the box-based interval to 1e-12 rad and give the
// same Intersects verdict against a sweep of direction covers, including
// covers that end just inside and just outside the interval's edges.
class CellBearingTableTest : public ::testing::TestWithParam<int> {};

TEST_P(CellBearingTableTest, MatchesBoxBearingsForEveryCellPair) {
  const int cpa = GetParam();
  const GridIndex grid(1.0 / cpa);
  ASSERT_EQ(grid.cells_per_axis(), cpa);
  const double eta = grid.eta();
  // BearingInterval sees the two cell boxes only through their difference
  // box, whose x-range depends on the column pair alone and y-range on
  // the row pair alone (boxes built as GridIndex builds them: cx * eta to
  // (cx + 1) * eta). So per axis offset, one representative (from, to)
  // pair for each distinct float difference range covers every cell pair.
  auto distinct_ranges = [cpa, eta](int offset) {
    std::set<std::pair<double, double>> seen;
    std::vector<std::pair<int, int>> representatives;
    for (int from = 0; from < cpa; ++from) {
      const int to = from + offset;
      if (to < 0 || to >= cpa) continue;
      if (seen.emplace(to * eta - (from + 1) * eta, (to + 1) * eta - from * eta)
              .second) {
        representatives.emplace_back(from, to);
      }
    }
    return representatives;
  };
  auto box_of = [eta](int cx, int cy) {
    return geo::Box{{cx * eta, cy * eta}, {(cx + 1) * eta, (cy + 1) * eta}};
  };
  std::vector<geo::AngularInterval> covers;
  for (int k = 0; k < 8; ++k) {
    for (double width : {0.0, 0.4, 2.0, 4.0}) {
      covers.push_back(
          geo::AngularInterval::FromWidth(0.1 + k * geo::kTwoPi / 8, width));
    }
  }
  geo::CellBearingTable table(cpa);
  int64_t checked = 0;
  int64_t interval_mismatches = 0;
  int64_t verdict_mismatches = 0;
  std::vector<int> first_mismatch;  // fx, fy, tx, ty
  for (int dy = 1 - cpa; dy < cpa; ++dy) {
    const auto row_pairs = distinct_ranges(dy);
    for (int dx = 1 - cpa; dx < cpa; ++dx) {
      const geo::AngularInterval& tabled = table.Get(dx, dy);
      // Covers 1e-10 inside and 2e-9 outside the interval's edges (the
      // Contains tolerance is 1e-9).
      std::vector<geo::AngularInterval> sweep = covers;
      sweep.push_back(geo::AngularInterval::FromWidth(tabled.hi() - 1e-10, 0.1));
      sweep.push_back(geo::AngularInterval::FromWidth(tabled.hi() + 2e-9, 0.1));
      sweep.push_back(
          geo::AngularInterval::FromWidth(tabled.lo() - 0.1 + 1e-10, 0.1));
      sweep.push_back(
          geo::AngularInterval::FromWidth(tabled.lo() - 0.1 - 2e-9, 0.1));
      for (const auto& [fx, tx] : distinct_ranges(dx)) {
        for (const auto& [fy, ty] : row_pairs) {
          ++checked;
          const geo::AngularInterval boxed =
              geo::BearingInterval(box_of(fx, fy), box_of(tx, ty));
          const bool both_full =
              boxed.width() >= geo::kTwoPi && tabled.width() >= geo::kTwoPi;
          const double lo_gap =
              std::min(geo::CcwDelta(boxed.lo(), tabled.lo()),
                       geo::CcwDelta(tabled.lo(), boxed.lo()));
          if (!both_full &&
              (lo_gap > 1e-12 ||
               std::abs(boxed.width() - tabled.width()) > 1e-12)) {
            if (interval_mismatches++ == 0) first_mismatch = {fx, fy, tx, ty};
          }
          for (const geo::AngularInterval& cover : sweep) {
            if (boxed.Intersects(cover) != tabled.Intersects(cover)) {
              ++verdict_mismatches;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(checked, static_cast<int64_t>(2 * cpa - 1) * (2 * cpa - 1));
  EXPECT_EQ(interval_mismatches, 0)
      << "first at (" << first_mismatch[0] << "," << first_mismatch[1]
      << ") -> (" << first_mismatch[2] << "," << first_mismatch[3] << ")";
  EXPECT_EQ(verdict_mismatches, 0);
}

// One grid cell's summaries, folded from an instance the way
// GridIndex::Build folds them (members in ascending id order).
struct CellSummary {
  bool has_workers = false;
  bool has_tasks = false;
  double v_max = 0.0;
  geo::AngularInterval cover = geo::AngularInterval::FullCircle();
  double e_max = 0.0;
};

std::vector<CellSummary> SummarizeCells(const Instance& instance,
                                        const GridIndex& index) {
  const int cpa = index.cells_per_axis();
  const double eta = index.eta();
  auto cell_of = [cpa, eta](geo::Point p) {
    const int cx = std::min(
        static_cast<int>(std::clamp(p.x, 0.0, 1.0) / eta), cpa - 1);
    const int cy = std::min(
        static_cast<int>(std::clamp(p.y, 0.0, 1.0) / eta), cpa - 1);
    return cy * cpa + cx;
  };
  std::vector<CellSummary> cells(static_cast<size_t>(index.num_cells()));
  for (const core::Worker& worker : instance.workers()) {
    CellSummary& cell = cells[static_cast<size_t>(cell_of(worker.location))];
    cell.v_max = std::max(cell.v_max, worker.velocity);
    cell.cover = cell.has_workers
                     ? geo::CoverUnion(cell.cover, worker.direction)
                     : worker.direction;
    cell.has_workers = true;
  }
  for (const core::Task& task : instance.tasks()) {
    CellSummary& cell = cells[static_cast<size_t>(cell_of(task.location))];
    cell.e_max = cell.has_tasks ? std::max(cell.e_max, task.end) : task.end;
    cell.has_tasks = true;
  }
  return cells;
}

// The tcell_list of `cell` under the Section 7.1 pruning rule with every
// bearing interval computed from the eta-scaled cell boxes: the rule as
// it stood before the per-offset table. Counts the cell pairs only the
// direction rule pruned into `direction_pruned`.
std::vector<int> BoxRuleReachable(const GridIndex& index,
                                  const std::vector<CellSummary>& cells,
                                  int cell, int64_t* direction_pruned) {
  const int cpa = index.cells_per_axis();
  const double eta = index.eta();
  auto box_of = [cpa, eta](int c) {
    const int cx = c % cpa;
    const int cy = c / cpa;
    return geo::Box{{cx * eta, cy * eta}, {(cx + 1) * eta, (cy + 1) * eta}};
  };
  const CellSummary& from = cells[static_cast<size_t>(cell)];
  std::vector<int> reachable;
  if (!from.has_workers || from.v_max <= 0.0) return reachable;
  for (int to = 0; to < index.num_cells(); ++to) {
    const CellSummary& target = cells[static_cast<size_t>(to)];
    if (!target.has_tasks) continue;
    const double t_min = index.now() + geo::MinDistance(box_of(cell),
                                                        box_of(to)) /
                                           from.v_max;
    if (t_min > target.e_max) continue;
    if (to != cell &&
        !geo::BearingInterval(box_of(cell), box_of(to)).Intersects(
            from.cover)) {
      ++*direction_pruned;
      continue;
    }
    reachable.push_back(to);
  }
  return reachable;
}

// Every cell's tcell_list is sorted and holds only cells with tasks; a
// cell without workers reaches nothing.
TEST(GridIndexTest, ReachableCellsSubsetOfAllTaskCells) {
  Instance instance = test::SmallInstance(17, 40, 40);
  GridIndex index = GridIndex::Build(instance, 0.1);
  const std::vector<CellSummary> cells = SummarizeCells(instance, index);
  int64_t reachable_total = 0;
  for (int cell = 0; cell < index.num_cells(); ++cell) {
    const std::vector<int> reachable = index.ReachableCells(cell);
    reachable_total += static_cast<int64_t>(reachable.size());
    EXPECT_TRUE(std::is_sorted(reachable.begin(), reachable.end()));
    if (!cells[static_cast<size_t>(cell)].has_workers) {
      EXPECT_TRUE(reachable.empty()) << "cell " << cell;
    }
    for (int to : reachable) {
      ASSERT_GE(to, 0);
      ASSERT_LT(to, index.num_cells());
      EXPECT_TRUE(cells[static_cast<size_t>(to)].has_tasks)
          << "cell " << cell << " -> " << to;
    }
  }
  EXPECT_GT(reachable_total, 0);
}

// After worker and task churn in the world (departures, returns and
// moves), the tcell_lists of an index built from the surviving members
// equal the box-based rule's, at each grid size -- on an index that has
// served a retrieval and on one that has not.
TEST_P(CellBearingTableTest, CachedListsMatchFreshIndexAndBoxRuleAfterChurn) {
  const int cpa = GetParam();
  gen::WorkloadConfig config;
  config.num_tasks = 80;
  config.num_workers = 80;
  config.angle_range = 0.6;  // narrow cones: the direction rule fires
  config.rt_min = 0.2;
  config.rt_max = 0.6;
  config.v_min = 0.05;
  config.v_max = 0.3;
  config.seed = 100 + static_cast<uint64_t>(cpa);
  const Instance instance = gen::GenerateInstance(config);

  util::Rng rng(static_cast<uint64_t>(cpa));
  std::vector<core::Worker> workers = instance.workers();
  std::vector<bool> worker_in(workers.size(), true);
  std::vector<bool> task_in(instance.num_tasks(), true);
  for (int step = 0; step < 150; ++step) {
    const WorkerId j = static_cast<WorkerId>(
        rng.UniformInt(0, instance.num_workers() - 1));
    const TaskId i =
        static_cast<TaskId>(rng.UniformInt(0, instance.num_tasks() - 1));
    switch (rng.UniformInt(0, 2)) {
      case 0:
        worker_in[j] = !worker_in[j];
        break;
      case 1:
        task_in[i] = !task_in[i];
        break;
      default:
        if (!worker_in[j]) break;
        workers[j].location = {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
        break;
    }
  }
  std::vector<core::Task> kept_tasks;
  for (TaskId i = 0; i < instance.num_tasks(); ++i) {
    if (task_in[i]) kept_tasks.push_back(instance.task(i));
  }
  std::vector<core::Worker> kept_workers;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (worker_in[j]) kept_workers.push_back(workers[j]);
  }
  const Instance survivors(std::move(kept_tasks), std::move(kept_workers),
                           instance.now(), instance.policy());

  const GridIndex warmed = GridIndex::Build(survivors, 1.0 / cpa);
  ASSERT_EQ(warmed.cells_per_axis(), cpa);
  ASSERT_TRUE(warmed.RetrieveEdges().ok());
  const GridIndex fresh = GridIndex::Build(survivors, 1.0 / cpa);
  const std::vector<CellSummary> cells = SummarizeCells(survivors, fresh);
  int64_t pruned_by_direction = 0;
  for (int cell = 0; cell < fresh.num_cells(); ++cell) {
    const std::vector<int> want =
        BoxRuleReachable(fresh, cells, cell, &pruned_by_direction);
    EXPECT_EQ(fresh.ReachableCells(cell), want) << "cpa " << cpa << " cell "
                                                << cell;
    EXPECT_EQ(warmed.ReachableCells(cell), want) << "cpa " << cpa << " cell "
                                                 << cell;
  }
  // Up to 2x2 cells every cell touches every other, so every bearing
  // interval is the full circle and the direction rule cannot prune.
  if (cpa > 2) {
    EXPECT_GT(pruned_by_direction, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(CellsPerAxis, CellBearingTableTest,
                         ::testing::Values(1, 2, 3, 7, 20, 64));

TEST(GridIndexTest, RepeatedRetrievalReportsIdenticalStats) {
  // The index keeps nothing between retrievals: a second pass does and
  // counts the same work as the first.
  Instance instance = test::SmallInstance(23, 40, 40);
  const GridIndex index = GridIndex::Build(instance, 0.1);
  RetrievalStats first, second;
  std::vector<std::vector<TaskId>> first_edges =
      index.RetrieveEdges(&first).value();
  EXPECT_EQ(index.RetrieveEdges(&second).value(), first_edges);
  EXPECT_GT(first.cell_pairs_pruned, 0);
  ExpectSameStats(second, first);
}

TEST(GridIndexTest, ConcurrentRetrievalIsSafeAndConsistent) {
  // The index is immutable after Build, so concurrent retrievals on one
  // shared index must each return the edges and the counters of a single
  // serial retrieval.
  Instance instance = test::SmallInstance(29, 60, 60);
  const GridIndex index = GridIndex::Build(instance, 0.1);

  constexpr int kReaders = 4;
  std::vector<std::vector<std::vector<TaskId>>> edges(kReaders);
  std::vector<RetrievalStats> stats(kReaders);
  {
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        edges[r] = index.RetrieveEdges(&stats[r]).value();
      });
    }
    for (std::thread& reader : readers) reader.join();
  }

  RetrievalStats serial_stats;
  std::vector<std::vector<TaskId>> serial =
      index.RetrieveEdges(&serial_stats).value();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(edges[r], serial) << "reader " << r;
    ExpectSameStats(stats[r], serial_stats);
  }
}

TEST(GridIndexTest, RetrievalReportsTrippedDeadline) {
  Instance instance = test::SmallInstance(31, 40, 40);
  GridIndex index = GridIndex::Build(instance, 0.1);
  util::CancelToken cancel;
  cancel.Cancel();
  util::Deadline tripped(/*budget_seconds=*/0.0, &cancel);
  auto edges = index.RetrieveEdges(nullptr, nullptr, tripped);
  EXPECT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), util::StatusCode::kCancelled);
}

TEST(GridIndexTest, EtaClamping) {
  GridIndex tiny(1e-9);
  EXPECT_LE(tiny.cells_per_axis(), 1024);
  GridIndex huge(5.0);
  EXPECT_EQ(huge.cells_per_axis(), 1);
}

}  // namespace
}  // namespace rdbsc::index
