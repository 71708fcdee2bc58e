#include "index/grid_index.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

namespace rdbsc::index {
namespace {

constexpr int kMaxCellsPerAxis = 1024;

}  // namespace

GridIndex::GridIndex(double eta, double now, core::ArrivalPolicy policy)
    : now_(now), policy_(policy) {
  double clamped = std::clamp(eta, 1.0 / kMaxCellsPerAxis, 1.0);
  cells_per_axis_ = std::max(1, static_cast<int>(std::ceil(1.0 / clamped)));
  cells_per_axis_ = std::min(cells_per_axis_, kMaxCellsPerAxis);
  eta_ = 1.0 / cells_per_axis_;
  cells_.resize(static_cast<size_t>(cells_per_axis_) * cells_per_axis_);
  blocks_.resize(cells_.size());
  tcells_ = std::make_unique<TCellCache>(cells_per_axis_);
  util::MutexLock lock(tcells_->mu);
  tcells_->lists.resize(cells_.size());
  tcells_->valid.assign(cells_.size(), 0);
}

GridIndex GridIndex::Build(const core::Instance& instance, double eta) {
  // Unlimited deadline: the interruptible overload cannot fail.
  return Build(instance, eta, util::Deadline()).value();
}

util::StatusOr<GridIndex> GridIndex::Build(const core::Instance& instance,
                                           double eta,
                                           const util::Deadline& deadline) {
  constexpr int kInsertsPerDeadlineCheck = 64;

  GridIndex index(eta, instance.now(), instance.policy());
  for (core::TaskId i = 0; i < instance.num_tasks(); ++i) {
    if (i % kInsertsPerDeadlineCheck == 0 && deadline.Exhausted()) {
      return util::InterruptedStatus(deadline, "grid build interrupted");
    }
    index.InsertTask(i, instance.task(i));
  }
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (j % kInsertsPerDeadlineCheck == 0 && deadline.Exhausted()) {
      return util::InterruptedStatus(deadline, "grid build interrupted");
    }
    index.InsertWorker(j, instance.worker(j));
  }
  index.Seal();
  return index;
}

int GridIndex::CellOf(geo::Point p) const {
  int cx = static_cast<int>(std::clamp(p.x, 0.0, 1.0) / eta_);
  int cy = static_cast<int>(std::clamp(p.y, 0.0, 1.0) / eta_);
  cx = std::min(cx, cells_per_axis_ - 1);
  cy = std::min(cy, cells_per_axis_ - 1);
  return cy * cells_per_axis_ + cx;
}

geo::Box GridIndex::BoxOf(int cell) const {
  int cx = cell % cells_per_axis_;
  int cy = cell / cells_per_axis_;
  return geo::Box{{cx * eta_, cy * eta_}, {(cx + 1) * eta_, (cy + 1) * eta_}};
}

void GridIndex::InsertWorker(core::WorkerId id, const core::Worker& worker) {
  cells_[CellOf(worker.location)].workers.emplace_back(id, worker);
}

void GridIndex::InsertTask(core::TaskId id, const core::Task& task) {
  cells_[CellOf(task.location)].tasks.emplace_back(id, task);
}

void GridIndex::Seal() {
  for (size_t c = 0; c < cells_.size(); ++c) {
    Cell& cell = cells_[c];
    for (size_t k = 0; k < cell.workers.size(); ++k) {
      const core::Worker& worker = cell.workers[k].second;
      cell.v_max = std::max(cell.v_max, worker.velocity);
      cell.dir_cover = k == 0 ? worker.direction
                              : geo::CoverUnion(cell.dir_cover,
                                                worker.direction);
    }
    cell.has_dir_cover = !cell.workers.empty();
    // An empty cell keeps the constructed bounds (not +-inf).
    for (size_t k = 0; k < cell.tasks.size(); ++k) {
      const core::Task& task = cell.tasks[k].second;
      cell.s_min = k == 0 ? task.start : std::min(cell.s_min, task.start);
      cell.e_max = k == 0 ? task.end : std::max(cell.e_max, task.end);
    }
    core::TaskBlock& block = blocks_[c];
    block.Reserve(cell.tasks.size());
    for (const auto& [tid, task] : cell.tasks) block.Add(tid, task);
    max_block_ = std::max(max_block_, block.size());
  }
}

bool GridIndex::CanPrune(const Cell& from, int from_id, const Cell& to,
                         int to_id) const {
  geo::Box from_box = BoxOf(from_id);
  geo::Box to_box = BoxOf(to_id);
  // Temporal rule (Section 7.1): even the fastest worker of `from` cannot
  // reach the nearest point of `to` before the latest deadline there.
  // (The paper prints e_max(cell_i); tasks live in the target cell, so we
  // use e_max(cell_j) -- see DESIGN.md.)
  if (from.v_max <= 0.0) return true;
  double t_min = now_ + geo::MinDistance(from_box, to_box) / from.v_max;
  if (t_min > to.e_max) return true;
  // Direction rule: the bearing interval between the two boxes must meet
  // the covering interval of the workers' cones. Bearings depend only on
  // the cells' offset, so the interval comes from the per-offset table
  // (geo::CellBearingTable) instead of four atan2 per cell pair.
  if (from_id != to_id && from.has_dir_cover) {
    const int dx = to_id % cells_per_axis_ - from_id % cells_per_axis_;
    const int dy = to_id / cells_per_axis_ - from_id / cells_per_axis_;
    if (!tcells_->bearings.Get(dx, dy).Intersects(from.dir_cover)) {
      return true;
    }
  }
  return false;
}

const std::vector<int>& GridIndex::CachedReachableLocked(int cell) const {
  if (!tcells_->valid[cell]) {
    const Cell& from = cells_[cell];
    std::vector<int>& list = tcells_->lists[cell];
    if (!from.workers.empty()) {
      for (int to_id = 0; to_id < num_cells(); ++to_id) {
        const Cell& to = cells_[to_id];
        if (to.tasks.empty()) continue;
        if (!CanPrune(from, cell, to, to_id)) list.push_back(to_id);
      }
    }
    tcells_->valid[cell] = 1;
    ++tcells_->rebuilds;
  }
  return tcells_->lists[cell];
}

const std::vector<int>& GridIndex::CachedReachable(int cell) const {
  util::MutexLock lock(tcells_->mu);
  return CachedReachableLocked(cell);
}

const std::vector<std::vector<int>>* GridIndex::WarmReachability(
    RetrievalStats* stats, const util::Deadline& deadline) const {
  util::MutexLock lock(tcells_->mu);
  for (int from_id = 0; from_id < num_cells(); ++from_id) {
    if (cells_[from_id].workers.empty()) continue;
    if (deadline.Exhausted()) return nullptr;
    bool was_cached = tcells_->valid[from_id] != 0;
    const std::vector<int>& targets = CachedReachableLocked(from_id);
    if (stats != nullptr) {
      if (was_cached) {
        stats->cell_pairs_examined += static_cast<int64_t>(targets.size());
      } else {
        stats->cell_pairs_examined += num_cells();
        stats->cell_pairs_pruned +=
            num_cells() - static_cast<int64_t>(targets.size());
      }
    }
  }
  // Escape under a documented contract: every list a subsequent const
  // retrieval scan dereferences was built above, and a built list is never
  // rebuilt.
  return &tcells_->lists;
}

util::StatusOr<std::vector<std::vector<core::TaskId>>>
GridIndex::RetrieveEdges(int num_workers, RetrievalStats* stats,
                         util::Executor* executor,
                         const util::Deadline& deadline) const {
  // Phase 1 (serialized): build every missing tcell_list and account the
  // cell-pair counters. After this, the cache entries read below are
  // immutable for the duration of the scan, so shards need no locking.
  RetrievalStats totals;
  const std::vector<std::vector<int>>* tcell_lists =
      WarmReachability(&totals, deadline);
  if (tcell_lists == nullptr) {
    return util::InterruptedStatus(deadline, "retrieval interrupted");
  }
  // The scans below read the per-cell blocks Build sealed.
  const std::vector<core::TaskBlock>& blocks = blocks_;
  const size_t max_block = max_block_;

  // Phase 2 (sharded over source cells): the per-cell pair tests, which
  // dominate retrieval cost, batched through the SoA kernel (exact same
  // edge set as the scalar IsValidPair loop; core/kernels.h). Every worker
  // lives in exactly one cell, so shards write disjoint rows of `edges`
  // and the merged edge set is independent of shard boundaries; each
  // per-worker row is sorted, so the worker-outer loop order is
  // output-identical to the historical target-cell-outer order.
  std::vector<std::vector<core::TaskId>> edges(num_workers);
  util::Executor& exec = util::OrSerial(executor);
  std::vector<RetrievalStats> shard_stats(exec.width());
  std::atomic<bool> interrupted{false};
  exec.ShardedFor(num_cells(), [&](int shard, int64_t begin, int64_t end) {
    RetrievalStats local;
    std::vector<uint8_t> cls(max_block);
    for (int64_t from_id = begin; from_id < end; ++from_id) {
      const Cell& from = cells_[from_id];
      if (from.workers.empty()) continue;
      if (interrupted.load(std::memory_order_relaxed) ||
          deadline.Exhausted()) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      for (const auto& [wid, worker] : from.workers) {
        assert(wid < num_workers);
        const core::WorkerGeom geom = core::PrecomputeWorker(worker, now_);
        for (int to_id : (*tcell_lists)[from_id]) {
          const core::TaskBlock& block = blocks[to_id];
          local.pair_tests += static_cast<int64_t>(block.size());
          local.edges += static_cast<int64_t>(core::ValidPairsRow(
              geom, worker, now_, policy_, block, cls.data(), &edges[wid]));
        }
        std::sort(edges[wid].begin(), edges[wid].end());
      }
    }
    shard_stats[shard] = local;
  });
  if (interrupted.load(std::memory_order_relaxed)) {
    return util::InterruptedStatus(deadline, "retrieval interrupted");
  }
  for (const RetrievalStats& shard : shard_stats) totals.Merge(shard);
  if (stats != nullptr) *stats = totals;
  return edges;
}

std::vector<int> GridIndex::ReachableCells(geo::Point location) const {
  int from_id = CellOf(location);
  const Cell& from = cells_[from_id];
  std::vector<int> reachable;
  if (from.workers.empty()) return reachable;
  util::MutexLock lock(tcells_->mu);
  for (int to_id = 0; to_id < num_cells(); ++to_id) {
    const Cell& to = cells_[to_id];
    if (to.tasks.empty()) continue;
    if (!CanPrune(from, from_id, to, to_id)) reachable.push_back(to_id);
  }
  return reachable;
}

}  // namespace rdbsc::index
