#include "index/grid_index.h"

#include <algorithm>
#include <atomic>
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
  index.num_workers_ = instance.num_workers();
  std::vector<size_t> tasks_per_cell(index.cells_.size());
  for (const core::Task& task : instance.tasks()) {
    ++tasks_per_cell[index.CellOf(task.location)];
  }
  for (size_t c = 0; c < tasks_per_cell.size(); ++c) {
    index.blocks_[c].Reserve(tasks_per_cell[c]);
    index.max_block_ = std::max(index.max_block_, tasks_per_cell[c]);
  }
  // Members arrive in ascending-id order, so each cell's summaries are
  // folded in that order (CoverUnion is order-dependent) and its member
  // lists come out sorted. An empty cell keeps the constructed bounds.
  for (core::TaskId i = 0; i < instance.num_tasks(); ++i) {
    if (i % kInsertsPerDeadlineCheck == 0 && deadline.Exhausted()) {
      return util::InterruptedStatus(deadline, "grid build interrupted");
    }
    const core::Task& task = instance.task(i);
    const int c = index.CellOf(task.location);
    core::TaskBlock& block = index.blocks_[c];
    Cell& cell = index.cells_[c];
    cell.e_max = block.size() == 0 ? task.end : std::max(cell.e_max, task.end);
    block.Add(i, task);
  }
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (j % kInsertsPerDeadlineCheck == 0 && deadline.Exhausted()) {
      return util::InterruptedStatus(deadline, "grid build interrupted");
    }
    const core::Worker& worker = instance.worker(j);
    Cell& cell = index.cells_[index.CellOf(worker.location)];
    cell.v_max = std::max(cell.v_max, worker.velocity);
    cell.dir_cover = cell.workers.empty()
                         ? worker.direction
                         : geo::CoverUnion(cell.dir_cover, worker.direction);
    cell.workers.emplace_back(j, worker);
  }
  return index;
}

int GridIndex::CellOf(geo::Point p) const {
  // Clamped into [0, 1]; NaN fails the > and lands in column/row 0, as a
  // cast of NaN would be undefined. Its pairs are never valid, so any
  // cell serves.
  auto axis = [this](double v) {
    return static_cast<int>((v > 0.0 ? std::min(v, 1.0) : 0.0) / eta_);
  };
  int cx = axis(p.x);
  int cy = axis(p.y);
  cx = std::min(cx, cells_per_axis_ - 1);
  cy = std::min(cy, cells_per_axis_ - 1);
  return cy * cells_per_axis_ + cx;
}

geo::Box GridIndex::BoxOf(int cell) const {
  int cx = cell % cells_per_axis_;
  int cy = cell / cells_per_axis_;
  return geo::Box{{cx * eta_, cy * eta_}, {(cx + 1) * eta_, (cy + 1) * eta_}};
}

void GridIndex::AppendReachable(int cell, geo::CellBearingTable& bearings,
                                std::vector<int>* out) const {
  const Cell& from = cells_[cell];
  // A cell without workers, or whose workers cannot move, reaches nothing.
  if (from.v_max <= 0.0) return;
  const geo::Box from_box = BoxOf(cell);
  for (int to_id = 0; to_id < num_cells(); ++to_id) {
    if (blocks_[to_id].size() == 0) continue;
    // Temporal rule (Section 7.1): even the fastest worker of `from`
    // cannot reach the nearest point of `to` before the latest deadline
    // there. (The paper prints e_max(cell_i); tasks live in the target
    // cell, so we use e_max(cell_j) -- see DESIGN.md.)
    const double t_min =
        now_ + geo::MinDistance(from_box, BoxOf(to_id)) / from.v_max;
    if (t_min > cells_[to_id].e_max) continue;
    // Direction rule: the bearing interval between the two boxes must meet
    // the covering interval of the workers' cones. Bearings depend only on
    // the cells' offset, so the interval comes from the per-offset table
    // instead of four atan2 per cell pair.
    if (to_id != cell) {
      const int dx = to_id % cells_per_axis_ - cell % cells_per_axis_;
      const int dy = to_id / cells_per_axis_ - cell / cells_per_axis_;
      if (!bearings.Get(dx, dy).Intersects(from.dir_cover)) continue;
    }
    out->push_back(to_id);
  }
}

std::vector<int> GridIndex::ReachableCells(int cell) const {
  geo::CellBearingTable bearings(cells_per_axis_);
  std::vector<int> reachable;
  AppendReachable(cell, bearings, &reachable);
  return reachable;
}

util::StatusOr<std::vector<std::vector<core::TaskId>>>
GridIndex::RetrieveEdges(RetrievalStats* stats, util::Executor* executor,
                         const util::Deadline& deadline) const {
  // Phase 1 (serial): the tcell_list of every source cell, and the
  // cell-pair counters (each source cell examines every cell).
  RetrievalStats totals;
  std::vector<std::vector<int>> tcell_lists(cells_.size());
  geo::CellBearingTable bearings(cells_per_axis_);
  for (int from_id = 0; from_id < num_cells(); ++from_id) {
    if (cells_[from_id].workers.empty()) continue;
    if (deadline.Exhausted()) {
      return util::InterruptedStatus(deadline, "retrieval interrupted");
    }
    AppendReachable(from_id, bearings, &tcell_lists[from_id]);
    totals.cell_pairs_examined += num_cells();
    totals.cell_pairs_pruned +=
        num_cells() - static_cast<int64_t>(tcell_lists[from_id].size());
  }

  // Phase 2 (sharded over source cells): the per-cell pair tests, which
  // dominate retrieval cost, batched through the SoA kernel (exact same
  // edge set as the scalar IsValidPair loop; core/kernels.h). Every worker
  // lives in exactly one cell, so shards write disjoint rows of `edges`
  // and the merged edge set is independent of shard boundaries; each
  // per-worker row is sorted, so the worker-outer loop order is
  // output-identical to the historical target-cell-outer order.
  std::vector<std::vector<core::TaskId>> edges(num_workers_);
  util::Executor& exec = util::OrSerial(executor);
  std::vector<RetrievalStats> shard_stats(exec.width());
  std::atomic<bool> interrupted{false};
  exec.ShardedFor(num_cells(), [&](int shard, int64_t begin, int64_t end) {
    RetrievalStats local;
    std::vector<uint8_t> cls(max_block_);
    for (int64_t from_id = begin; from_id < end; ++from_id) {
      const Cell& from = cells_[from_id];
      if (from.workers.empty()) continue;
      if (interrupted.load(std::memory_order_relaxed) ||
          deadline.Exhausted()) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      for (const auto& [wid, worker] : from.workers) {
        const core::WorkerGeom geom = core::PrecomputeWorker(worker, now_);
        for (int to_id : tcell_lists[from_id]) {
          const core::TaskBlock& block = blocks_[to_id];
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

}  // namespace rdbsc::index
