#ifndef RDBSC_INDEX_DELTA_GRAPH_H_
#define RDBSC_INDEX_DELTA_GRAPH_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/model.h"
#include "index/grid_index.h"
#include "util/deadline.h"
#include "util/status.h"

namespace rdbsc::index {

/// Per-round cost counters of the delta engine: how much state one event
/// batch actually repaired (vs. the O(m*n) a full rebuild would touch).
/// Cumulative; callers diff consecutive snapshots for per-round metrics
/// (sim.delta.* in src/obs).
struct DeltaStats {
  int64_t cells_touched = 0;    ///< cells scanned by row recomputes
  int64_t edges_repaired = 0;   ///< row edges rewritten or patched
  int64_t rows_recomputed = 0;  ///< rows rebuilt through the index
  int64_t rows_reused = 0;      ///< rows served from their horizon
  int64_t compactions = 0;      ///< patch lists folded into their base row
  int64_t bulk_refills = 0;     ///< full-churn rounds served by one
                                ///< vectorized bulk retrieval

  DeltaStats operator-(const DeltaStats& o) const {
    return {cells_touched - o.cells_touched, edges_repaired - o.edges_repaired,
            rows_recomputed - o.rows_recomputed, rows_reused - o.rows_reused,
            compactions - o.compactions, bulk_refills - o.bulk_refills};
  }
};

/// Incremental CSR edit structure over the candidate edge set: one row per
/// indexed worker, maintained as a compacted base row (sorted task ids)
/// plus sorted add/delete patch lists that are folded into the base when
/// they outgrow `compaction_threshold`. Event handlers patch only the
/// affected rows; RepairRows recomputes just the rows whose stability
/// horizon (core::PairWindow) expired, each through
/// GridIndex::RetrieveWorkerRow -- so a k-event round costs O(k * affected
/// state) instead of the O(m*n) full retrieval. When at least half the
/// rows of a large instance (>= `bulk_min_rows`) are due anyway, the
/// round flips to one vectorized GridIndex::RetrievePairs bulk refill,
/// collapsing the worst case from per-row scalar recomputes to a single
/// kernel-speed retrieval pass.
///
/// Determinism contract: after RepairRows at the index clock, Pairs() is
/// bit-identical to GridIndex::RetrievePairs() on the same index -- row
/// recomputes use the scalar IsValidPair oracle, horizons are
/// conservative, and rows live in an ordered map so every materialization
/// order is id-sorted. IncrementalAssigner cross-checks this in Debug and
/// delta_index_test proves it over randomized event sequences.
///
/// Thread safety: none -- same single-owner discipline as the mutating
/// half of GridIndex (parallelism lives inside retrieval, not here).
class DeltaGraph {
 public:
  static constexpr int kDefaultCompactionThreshold = 16;
  /// Minimum tracked-row count before RepairRows may serve a full-churn
  /// round through one vectorized bulk retrieval instead of per-row
  /// scalar recomputes (below it the per-row path is cheap anyway, and
  /// keeping small instances per-row preserves their horizons exactly).
  static constexpr int64_t kDefaultBulkMinRows = 64;

  explicit DeltaGraph(
      int compaction_threshold = kDefaultCompactionThreshold,
      int64_t bulk_min_rows = kDefaultBulkMinRows)
      : compaction_threshold_(compaction_threshold),
        bulk_min_rows_(bulk_min_rows) {}

  /// Drops every row and zeroes nothing else (stats stay cumulative).
  void Reset() { rows_.clear(); }

  /// Registers a row for a newly indexed worker (born dirty: the first
  /// RepairRows computes it). Fails with kAlreadyExists on duplicates.
  util::Status AddRow(core::WorkerId id);
  /// Drops the row of a worker leaving the index; kNotFound when absent.
  util::Status RemoveRow(core::WorkerId id);
  /// Invalidates one row (the worker moved); kNotFound when absent.
  util::Status MarkRowDirty(core::WorkerId id);

  /// Patches every live row for a task that just entered `index` (which
  /// already contains it): rows whose pair is valid at the index clock
  /// gain a patch edge; stability horizons shrink to cover the new pair's
  /// windows. O(rows), not O(rows * tasks). Rows already due -- dirty, or
  /// past their horizon at the index clock -- are skipped: RepairRows
  /// recomputes them whole, and the clock never goes back.
  void OnTaskArrived(const GridIndex& index, core::TaskId id,
                     const core::Task& task);
  /// Patches every live row for a task removed from `index` (expiry or
  /// completion); skips the due rows as OnTaskArrived does.
  void OnTaskRemoved(const GridIndex& index, core::TaskId id);

  /// Brings every row current with `index`'s clock: dirty or
  /// horizon-expired rows are recomputed via RetrieveWorkerRow, the rest
  /// are reused as-is. Polls `deadline` between row blocks and returns
  /// kDeadlineExceeded / kCancelled when it trips (rows already repaired
  /// stay repaired; the call is safely retryable).
  util::Status RepairRows(const GridIndex& index,
                          const util::Deadline& deadline = util::Deadline());

  /// The maintained edge set as a sorted (worker, task) pair list --
  /// bit-identical to GridIndex::RetrievePairs() after RepairRows.
  std::vector<std::pair<core::WorkerId, core::TaskId>> Pairs() const;

  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  const DeltaStats& stats() const { return stats_; }

 private:
  struct Row {
    std::vector<core::TaskId> base;  ///< compacted row, sorted
    std::vector<core::TaskId> adds;  ///< patch: edges gained, sorted
    std::vector<core::TaskId> dels;  ///< patch: base edges lost, sorted
    double stable_until = 0.0;
    bool dirty = true;

    /// True when RepairRows at clock `now` recomputes this row.
    bool Due(double now) const { return dirty || now > stable_until; }
  };

  /// (base \ dels) merged with adds, sorted.
  static std::vector<core::TaskId> Materialize(const Row& row);
  void MaybeCompact(Row* row);
  /// Refills every row from one vectorized GridIndex::RetrievePairs pass
  /// (the full-churn fast path of RepairRows). Refilled rows carry no
  /// stability lookahead: stable_until is the index clock.
  util::Status BulkRefill(const GridIndex& index,
                          const util::Deadline& deadline);

  int compaction_threshold_;
  int64_t bulk_min_rows_;
  /// Ordered map: repair and materialization walk rows in id order, so
  /// every observable sequence (pair list, stats accumulation) is
  /// independent of event arrival order.
  std::map<core::WorkerId, Row> rows_;
  DeltaStats stats_;
};

}  // namespace rdbsc::index

#endif  // RDBSC_INDEX_DELTA_GRAPH_H_
