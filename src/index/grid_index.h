#ifndef RDBSC_INDEX_GRID_INDEX_H_
#define RDBSC_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
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

/// Per-round cost counters of the streaming engine
/// (sim::IncrementalAssigner): what the candidate-edge retrieval of its
/// rounds cost. Every round that builds a graph takes one full
/// RetrievePairs pass over the canonical index, so `rows_reused` stays 0
/// (kept because trace readers derive a reuse ratio from it). Cumulative;
/// callers diff consecutive snapshots for per-round metrics (sim.delta.*
/// in src/obs).
struct DeltaStats {
  int64_t cells_touched = 0;    ///< cell pairs scanned (examined - pruned)
  int64_t edges_repaired = 0;   ///< candidate edges retrieved
  int64_t rows_recomputed = 0;  ///< available-worker rows retrieved
  int64_t rows_reused = 0;      ///< rows served without retrieval (0)
  int64_t bulk_refills = 0;     ///< rounds served by one RetrievePairs

  DeltaStats operator-(const DeltaStats& o) const {
    return {cells_touched - o.cells_touched, edges_repaired - o.edges_repaired,
            rows_recomputed - o.rows_recomputed, rows_reused - o.rows_reused,
            bulk_refills - o.bulk_refills};
  }
};

/// A copy of one cell's membership and summary state, for the delta ==
/// rebuild bit-identity property suite (delta_index_test compares every
/// cell of a delta-maintained index against a rebuilt-from-scratch one).
struct CellState {
  std::vector<core::WorkerId> workers;
  std::vector<core::TaskId> tasks;
  double v_max = 0.0;
  bool has_dir_cover = false;
  double dir_lo = 0.0;
  double dir_width = 0.0;
  double s_min = 0.0;
  double e_max = 0.0;

  bool operator==(const CellState&) const = default;
};

/// RDB-SC-Grid (Section 7): a uniform grid over [0,1]^2 with cell side eta.
/// Each cell keeps its workers and tasks together with summary bounds
/// (maximum speed, a covering direction interval, earliest start / latest
/// deadline), enabling the cell-level pruning rule when retrieving valid
/// task-and-worker pairs. Workers and tasks can be inserted, moved and
/// removed dynamically; summaries, the per-cell SoA task blocks, and the
/// reachability cache are repaired eagerly per mutated cell so every
/// read-only entry point sees consistent cells.
///
/// Canonical cell state: members are kept sorted by id and summaries are
/// refolded in that order on every mutation, so a cell's entire state is a
/// pure function of its member set -- an index maintained through any
/// sequence of insert/move/remove events is bit-identical, cell for cell,
/// to one rebuilt from scratch over the surviving members (the delta
/// engine's determinism contract; CoverUnion folds are order-dependent,
/// which is exactly why the fold order must be canonicalized).
///
/// Thread safety: mutators (Insert*/Remove*/set_now) require exclusive
/// access, but any number of threads may run the const retrieval methods
/// concurrently -- the lazily built reachability cache is the only mutable
/// state they touch and it is guarded internally (TCellCache, with the
/// lock discipline proven by -Wthread-safety; mutators take the same
/// mutex so every cache access is annotated).
class GridIndex {
 public:
  /// Creates an empty grid with cell side `eta` (clamped so the grid has
  /// between 1 and 1024 cells per axis). `now`/`policy` parameterize the
  /// validity predicate used during retrieval.
  explicit GridIndex(double eta, double now = 0.0,
                     core::ArrivalPolicy policy = core::ArrivalPolicy::kStrict);

  /// A trivial one-cell grid (needed by StatusOr; use the eta overloads).
  GridIndex() : GridIndex(1.0) {}

  /// Bulk-loads every worker and task of `instance`.
  static GridIndex Build(const core::Instance& instance, double eta);

  /// Same bulk-load with interruption points: `deadline` is polled
  /// between insert blocks, so a budget or cancellation cuts grid
  /// construction short with kDeadlineExceeded / kCancelled.
  static util::StatusOr<GridIndex> Build(const core::Instance& instance,
                                         double eta,
                                         const util::Deadline& deadline);

  /// Inserts a worker under `id`; fails with kAlreadyExists on duplicates.
  util::Status InsertWorker(core::WorkerId id, const core::Worker& worker);
  /// Removes a worker; fails with kNotFound when absent.
  util::Status RemoveWorker(core::WorkerId id);
  /// Moves an indexed worker to `to` (the WorkerMoved delta event). A
  /// same-cell jitter is a pure payload update (location feeds no cell
  /// summary); a cross-cell move repairs exactly the two affected cells.
  /// Fails with kNotFound when absent.
  util::Status MoveWorker(core::WorkerId id, geo::Point to);
  /// Inserts a task under `id`; fails with kAlreadyExists on duplicates.
  util::Status InsertTask(core::TaskId id, const core::Task& task);
  /// Removes a task; fails with kNotFound when absent.
  util::Status RemoveTask(core::TaskId id);

  /// The indexed worker payload, or nullptr when absent. Stable until the
  /// next mutation of the worker's cell.
  const core::Worker* FindWorker(core::WorkerId id) const;

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

  /// Same retrieval as a flat sorted (worker, task) pair list; works with
  /// arbitrary (sparse) external ids.
  util::StatusOr<std::vector<std::pair<core::WorkerId, core::TaskId>>>
  RetrievePairs(RetrievalStats* stats = nullptr,
                util::Executor* executor = nullptr,
                const util::Deadline& deadline = util::Deadline()) const;

  /// Advances the clock used by validity tests and temporal pruning.
  /// Must be non-decreasing: cached reachability lists stay conservative
  /// (supersets) only when deadlines can only get closer.
  void set_now(double now);
  double now() const { return now_; }
  core::ArrivalPolicy policy() const { return policy_; }

  /// The target-cell list of the cell containing `location`: ids of cells
  /// holding at least one task some worker of that cell might reach
  /// (Section 7.1 "tcell_list"). Exposed for inspection and tests.
  std::vector<int> ReachableCells(geo::Point location) const;

  /// The cached tcell_list of `cell` (Section 7.2 dynamic maintenance):
  /// rebuilt lazily after worker churn in the cell, membership-patched
  /// after task churn elsewhere. RetrieveEdges consults this cache. The
  /// returned reference stays valid until the next mutation.
  const std::vector<int>& CachedReachable(int cell) const;

  /// Number of tcell_list rebuilds / membership patches performed so far
  /// (the cost the Appendix I model estimates).
  int64_t reachability_rebuilds() const {
    util::MutexLock lock(tcells_->mu);
    return tcells_->rebuilds;
  }
  int64_t reachability_patches() const { return reachability_patches_; }

  int cells_per_axis() const { return cells_per_axis_; }
  int num_cells() const { return cells_per_axis_ * cells_per_axis_; }
  double eta() const { return eta_; }
  int num_workers() const { return static_cast<int>(worker_cell_.size()); }
  int num_tasks() const { return static_cast<int>(task_cell_.size()); }

  /// Id of the cell containing `p` (delta callers use this to attribute
  /// touched-cell metrics to mutations).
  int CellIndexOf(geo::Point p) const { return CellOf(p); }

  /// Copy of one cell's membership and summaries (bit-identity suite).
  CellState DebugCellState(int cell) const;

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

  int CellOf(geo::Point p) const;
  geo::Box BoxOf(int cell) const;
  static void AbsorbWorker(Cell* cell, const core::Worker& worker);
  /// Recomputes a cell's summaries from scratch, folding members in
  /// sorted-id order (called eagerly after every membership change; the
  /// canonical fold order is what makes delta == rebuild bit-identical).
  void RebuildSummaries(int cell_id);
  /// Recomputes a cell's SoA task block from its (sorted) task list and
  /// bumps the scratch-size bound. Called eagerly on task churn so
  /// retrieval passes read maintained blocks instead of rebuilding all of
  /// them per pass.
  void RebuildBlock(int cell_id);

  /// Invalidates the cached tcell_list of `cell` (worker churn there).
  void InvalidateReachability(int cell) EXCLUDES(tcells_->mu);
  /// Re-evaluates target cell `target` in every valid cached list (task
  /// churn in `target`).
  void PatchReachability(int target) EXCLUDES(tcells_->mu);

  /// Cache lookup/rebuild; the caller holds the cache mutex.
  const std::vector<int>& CachedReachableLocked(int cell) const
      REQUIRES(tcells_->mu);

  /// Builds every missing tcell_list touched by a retrieval pass and
  /// accumulates the cell-pair counters exactly as the serial scan did
  /// (one critical section; `count_prune_scan` reproduces RetrieveEdges'
  /// uncached-scan accounting, RetrievePairs passes false). Returns the
  /// warmed per-source-cell lists -- stable until the next mutation, so
  /// the retrieval scan may read them lock-free through the returned
  /// pointer while the index is only used const -- or nullptr when
  /// `deadline` tripped mid-warm.
  const std::vector<std::vector<int>>* WarmReachability(
      bool count_prune_scan, RetrievalStats* stats,
      const util::Deadline& deadline) const EXCLUDES(tcells_->mu);

  /// True when no worker of `from` can reach any task of `to` before its
  /// deadline or within its direction cover (the pruning rule). The
  /// direction rule reads the bearing interval from the cache's per-offset
  /// table, hence the lock.
  bool CanPrune(const Cell& from, int from_id, const Cell& to,
                int to_id) const REQUIRES(tcells_->mu);

  /// Per-source-cell cached tcell_lists (sorted), built on demand, plus
  /// their validity bits, rebuild counter and the direction rule's
  /// per-offset bearing table -- everything the const retrieval paths may
  /// touch concurrently, guarded by one mutex. Mutators take the
  /// (then-uncontended) mutex too, so the lock discipline is uniform and
  /// provable. Heap-allocated so the index stays movable
  /// (GridIndex::Build returns by value).
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
  /// Maintained columnar mirror of every cell's (sorted) task list -- the
  /// SoA spans the retrieval scans batch through the kernels. blocks_[c]
  /// is repaired on task churn in cell c only; max_block_ is a monotone
  /// upper bound on block sizes (classification scratch bound; never
  /// shrunk, so removals stay O(affected cell)).
  std::vector<core::TaskBlock> blocks_;
  size_t max_block_ = 0;
  std::unordered_map<core::WorkerId, int> worker_cell_;
  std::unordered_map<core::TaskId, int> task_cell_;
  std::unique_ptr<TCellCache> tcells_;
  int64_t reachability_patches_ = 0;
};

}  // namespace rdbsc::index

#endif  // RDBSC_INDEX_GRID_INDEX_H_
