#ifndef RDBSC_INDEX_GRID_INDEX_H_
#define RDBSC_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/kernels.h"
#include "core/model.h"
#include "geo/box.h"
#include "util/deadline.h"
#include "util/executor.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

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

/// Per-round graph-build counters of the streaming engine
/// (sim::IncrementalAssigner). Each round that builds a graph plans and
/// builds it from the round snapshot, as Engine::Run does. Cumulative;
/// callers diff consecutive snapshots for per-round metrics (sim.delta.*
/// in src/obs).
struct DeltaStats {
  int64_t cells_touched = 0;    ///< grid rounds: examined - pruned; brute: 0
  int64_t edges_repaired = 0;   ///< candidate-graph edges built
  int64_t rows_recomputed = 0;  ///< available workers of the built rounds
  int64_t rows_reused = 0;      ///< always 0 (trace readers derive a ratio)
  int64_t bulk_refills = 0;     ///< rounds that built a graph

  DeltaStats operator-(const DeltaStats& o) const {
    return {cells_touched - o.cells_touched, edges_repaired - o.edges_repaired,
            rows_recomputed - o.rows_recomputed, rows_reused - o.rows_reused,
            bulk_refills - o.bulk_refills};
  }
};

/// RDB-SC-Grid (Section 7): a uniform grid over [0,1]^2 with cell side eta.
/// Each cell keeps its workers and tasks together with summary bounds
/// (maximum speed, a covering direction interval, earliest start / latest
/// deadline), enabling the cell-level pruning rule when retrieving valid
/// task-and-worker pairs.
///
/// The index is built once from an instance and then only read: Build
/// loads every member, folds each cell's summaries and SoA task block in
/// ascending-id order, and retrieval derives each source cell's
/// tcell_list lazily on first use. Section 7.2's dynamic maintenance is
/// not implemented: a per-round planned build (engine::BuildPlannedGraph)
/// was measured faster than maintaining an index across rounds.
///
/// Thread safety: any number of threads may run the const retrieval
/// methods concurrently -- the lazily built reachability cache is the
/// only mutable state they touch and it is guarded internally (TCellCache,
/// with the lock discipline proven by -Wthread-safety).
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
  /// The result is indexed by worker id (ids must be < `num_workers`).
  /// Produces exactly the same edge set as CandidateGraph::Build, for every
  /// executor width (source cells are sharded across `executor`; each
  /// worker's list is produced whole by the shard owning its cell).
  /// `deadline` is polled between cells; a tripped budget or token returns
  /// kDeadlineExceeded / kCancelled instead of finishing the scan.
  util::StatusOr<std::vector<std::vector<core::TaskId>>> RetrieveEdges(
      int num_workers, RetrievalStats* stats = nullptr,
      util::Executor* executor = nullptr,
      const util::Deadline& deadline = util::Deadline()) const;

  double now() const { return now_; }
  core::ArrivalPolicy policy() const { return policy_; }

  /// The target-cell list of the cell containing `location`: ids of cells
  /// holding at least one task some worker of that cell might reach
  /// (Section 7.1 "tcell_list"). Exposed for inspection and tests.
  std::vector<int> ReachableCells(geo::Point location) const;

  /// The cached tcell_list of `cell`, built on first use. RetrieveEdges
  /// consults this cache. The returned reference stays valid for the
  /// index's lifetime.
  const std::vector<int>& CachedReachable(int cell) const;

  /// Number of tcell_lists built so far (the cost the Appendix I model
  /// estimates).
  int64_t reachability_rebuilds() const {
    util::MutexLock lock(tcells_->mu);
    return tcells_->rebuilds;
  }

  int cells_per_axis() const { return cells_per_axis_; }
  int num_cells() const { return cells_per_axis_ * cells_per_axis_; }
  double eta() const { return eta_; }

 private:
  struct Cell {
    std::vector<std::pair<core::WorkerId, core::Worker>> workers;
    std::vector<std::pair<core::TaskId, core::Task>> tasks;
    // Worker summaries.
    double v_max = 0.0;
    geo::AngularInterval dir_cover = geo::AngularInterval::FullCircle();
    bool has_dir_cover = false;
    // Task summaries.
    double s_min = 0.0;
    double e_max = 0.0;
  };

  /// Build's steps: members are appended in ascending-id order, so each
  /// cell's member lists come out sorted; Seal then folds every cell's
  /// summaries and SoA task block once, in that order (CoverUnion is
  /// order-dependent, so the fold order is fixed).
  void InsertWorker(core::WorkerId id, const core::Worker& worker);
  void InsertTask(core::TaskId id, const core::Task& task);
  void Seal();

  int CellOf(geo::Point p) const;
  geo::Box BoxOf(int cell) const;

  /// Cache lookup/rebuild; the caller holds the cache mutex.
  const std::vector<int>& CachedReachableLocked(int cell) const
      REQUIRES(tcells_->mu);

  /// Builds every missing tcell_list touched by a retrieval pass and
  /// accumulates the cell-pair counters exactly as the serial scan did
  /// (one critical section: a list built here counts every cell examined
  /// and the unreachable ones pruned; a cached list counts its targets).
  /// Returns the warmed per-source-cell lists -- never rebuilt once built,
  /// so the retrieval scan may read them lock-free through the returned
  /// pointer -- or nullptr when `deadline` tripped mid-warm.
  const std::vector<std::vector<int>>* WarmReachability(
      RetrievalStats* stats, const util::Deadline& deadline) const
      EXCLUDES(tcells_->mu);

  /// True when no worker of `from` can reach any task of `to` before its
  /// deadline or within its direction cover (the pruning rule). The
  /// direction rule reads the bearing interval from the cache's per-offset
  /// table, hence the lock.
  bool CanPrune(const Cell& from, int from_id, const Cell& to,
                int to_id) const REQUIRES(tcells_->mu);

  /// Per-source-cell cached tcell_lists (sorted), built on demand, plus
  /// their validity bits, rebuild counter and the direction rule's
  /// per-offset bearing table -- everything the const retrieval paths may
  /// touch concurrently, guarded by one mutex. Heap-allocated so the
  /// index stays movable (GridIndex::Build returns by value).
  struct TCellCache {
    explicit TCellCache(int cells_per_axis) : bearings(cells_per_axis) {}

    mutable util::Mutex mu;
    std::vector<std::vector<int>> lists GUARDED_BY(mu);
    std::vector<uint8_t> valid GUARDED_BY(mu);
    int64_t rebuilds GUARDED_BY(mu) = 0;
    /// Bearing interval by (target - source) cell offset; filled lazily.
    geo::CellBearingTable bearings GUARDED_BY(mu);
  };

  double eta_;
  int cells_per_axis_;
  double now_;
  core::ArrivalPolicy policy_;
  std::vector<Cell> cells_;
  /// Columnar mirror of every cell's (sorted) task list -- the SoA spans
  /// the retrieval scans batch through the kernels -- and the largest
  /// block's size (classification scratch bound).
  std::vector<core::TaskBlock> blocks_;
  size_t max_block_ = 0;
  std::unique_ptr<TCellCache> tcells_;
};

}  // namespace rdbsc::index

#endif  // RDBSC_INDEX_GRID_INDEX_H_
