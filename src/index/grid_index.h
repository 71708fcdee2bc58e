#ifndef RDBSC_INDEX_GRID_INDEX_H_
#define RDBSC_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/kernels.h"
#include "core/model.h"
#include "geo/box.h"
#include "util/deadline.h"
#include "util/executor.h"
#include "util/status.h"

namespace rdbsc::index {

/// Counters describing one valid-pair retrieval pass (Figure 17 metrics).
struct RetrievalStats {
  int64_t cell_pairs_examined = 0;
  int64_t cell_pairs_pruned = 0;
  int64_t pair_tests = 0;  ///< individual (worker, task) validity checks
  int64_t edges = 0;       ///< valid pairs found

  /// Shard-order merge of per-shard counters (all sums, so the totals are
  /// independent of shard boundaries and thread count).
  void Merge(const RetrievalStats& other) {
    cell_pairs_examined += other.cell_pairs_examined;
    cell_pairs_pruned += other.cell_pairs_pruned;
    pair_tests += other.pair_tests;
    edges += other.edges;
  }
};

/// RDB-SC-Grid (Section 7): a uniform grid over [0,1]^2 with cell side eta.
/// Each cell keeps its workers and tasks together with summary bounds
/// (maximum speed, a covering direction interval, latest deadline),
/// enabling the cell-level pruning rule when retrieving valid
/// task-and-worker pairs.
///
/// An immutable value: Build loads an instance in one pass, folding each
/// cell's summaries and SoA task block as its members arrive in
/// ascending-id order, and every retrieval derives the tcell_lists it
/// needs into locals. Section 7.2's dynamic maintenance is not
/// implemented, and no solving path builds a grid: CandidateGraph::Build
/// was measured faster on every shape the repo produces (README). It stays
/// as the Section 7 structure that fig17 and two other benches measure.
///
/// Thread safety: nothing is mutated after Build, so any number of threads
/// may call the const methods concurrently.
class GridIndex {
 public:
  /// Creates an empty grid with cell side `eta` (clamped so the grid has
  /// between 1 and 1024 cells per axis). `now`/`policy` parameterize the
  /// validity predicate used during retrieval.
  explicit GridIndex(double eta, double now = 0.0,
                     core::ArrivalPolicy policy = core::ArrivalPolicy::kStrict);

  /// A trivial one-cell grid (needed by StatusOr; use the eta overloads).
  GridIndex() : GridIndex(1.0) {}

  /// Loads every worker and task of `instance` under their instance ids.
  static GridIndex Build(const core::Instance& instance, double eta);

  /// Same load with interruption points: `deadline` is polled between
  /// insert blocks, so a budget or cancellation cuts grid construction
  /// short with kDeadlineExceeded / kCancelled.
  static util::StatusOr<GridIndex> Build(const core::Instance& instance,
                                         double eta,
                                         const util::Deadline& deadline);

  /// Retrieves all valid (worker, task) pairs using the cell-level pruning.
  /// The result has one row per worker of the built instance, indexed by
  /// worker id. Produces exactly the same edge set as CandidateGraph::Build,
  /// for every executor width (source cells are sharded across `executor`;
  /// each worker's list is produced whole by the shard owning its cell).
  /// `deadline` is polled between cells; a tripped budget or token returns
  /// kDeadlineExceeded / kCancelled instead of finishing the scan.
  util::StatusOr<std::vector<std::vector<core::TaskId>>> RetrieveEdges(
      RetrievalStats* stats = nullptr, util::Executor* executor = nullptr,
      const util::Deadline& deadline = util::Deadline()) const;

  double now() const { return now_; }
  core::ArrivalPolicy policy() const { return policy_; }

  /// The tcell_list of `cell` (Section 7.1), sorted: ids of cells holding
  /// at least one task some worker of `cell` might reach. Empty for a cell
  /// without workers. Exposed for inspection and tests.
  std::vector<int> ReachableCells(int cell) const;

  int cells_per_axis() const { return cells_per_axis_; }
  int num_cells() const { return cells_per_axis_ * cells_per_axis_; }
  double eta() const { return eta_; }

 private:
  struct Cell {
    std::vector<std::pair<core::WorkerId, core::Worker>> workers;
    // Worker summaries.
    double v_max = 0.0;
    geo::AngularInterval dir_cover = geo::AngularInterval::FullCircle();
    // Task summary.
    double e_max = 0.0;
  };

  int CellOf(geo::Point p) const;
  geo::Box BoxOf(int cell) const;

  /// Appends the tcell_list of `cell` to `out`: every cell with tasks that
  /// the pruning rule keeps. The direction rule reads each pair's bearing
  /// interval from `bearings`, the caller's per-offset table.
  void AppendReachable(int cell, geo::CellBearingTable& bearings,
                       std::vector<int>* out) const;

  double eta_;
  int cells_per_axis_;
  double now_;
  core::ArrivalPolicy policy_;
  int num_workers_ = 0;
  std::vector<Cell> cells_;
  /// Every cell's tasks in ascending-id order, as the SoA spans the
  /// retrieval scans batch through the kernels, and the largest block's
  /// size (classification scratch bound).
  std::vector<core::TaskBlock> blocks_;
  size_t max_block_ = 0;
};

}  // namespace rdbsc::index

#endif  // RDBSC_INDEX_GRID_INDEX_H_
