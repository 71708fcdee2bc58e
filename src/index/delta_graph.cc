#include "index/delta_graph.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/kernels.h"

namespace rdbsc::index {
namespace {

/// Rows between deadline polls during repair; mirrors the retrieval
/// kernels' core::kKernelRowsPerPoll granularity.
constexpr int kRepairRowsPerPoll = 32;

bool SortedContains(const std::vector<core::TaskId>& v, core::TaskId id) {
  return std::binary_search(v.begin(), v.end(), id);
}

/// Inserts `id` into sorted `v`; returns false when already present.
bool SortedInsert(std::vector<core::TaskId>* v, core::TaskId id) {
  auto it = std::lower_bound(v->begin(), v->end(), id);
  if (it != v->end() && *it == id) return false;
  v->insert(it, id);
  return true;
}

/// Erases `id` from sorted `v`; returns false when absent.
bool SortedErase(std::vector<core::TaskId>* v, core::TaskId id) {
  auto it = std::lower_bound(v->begin(), v->end(), id);
  if (it == v->end() || *it != id) return false;
  v->erase(it);
  return true;
}

}  // namespace

util::Status DeltaGraph::AddRow(core::WorkerId id) {
  if (!rows_.try_emplace(id).second) {
    return util::Status::AlreadyExists("delta row already exists");
  }
  return util::Status::OK();
}

util::Status DeltaGraph::RemoveRow(core::WorkerId id) {
  if (rows_.erase(id) == 0) {
    return util::Status::NotFound("delta row not found");
  }
  return util::Status::OK();
}

util::Status DeltaGraph::MarkRowDirty(core::WorkerId id) {
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return util::Status::NotFound("delta row not found");
  }
  it->second.dirty = true;
  return util::Status::OK();
}

void DeltaGraph::OnTaskArrived(const GridIndex& index, core::TaskId id,
                               const core::Task& task) {
  const double now = index.now();
  for (auto& [wid, row] : rows_) {
    if (row.Due(now)) continue;  // full recompute already pending
    const core::Worker* worker = index.FindWorker(wid);
    if (worker == nullptr) {
      // Row exists but the worker left the index: force a recompute so
      // RepairRows surfaces the NotFound instead of serving stale edges.
      row.dirty = true;
      continue;
    }
    const core::PairWindow pw =
        core::ClassifyPairWindow(task, *worker, now, index.policy());
    if (pw.valid) {
      // Re-expose a previously deleted base edge, else patch-add.
      if (!SortedErase(&row.dels, id)) SortedInsert(&row.adds, id);
      ++stats_.edges_repaired;
      MaybeCompact(&row);
    }
    // The row's horizon must now also cover the new pair's window,
    // whether it is currently valid or merely not-yet-valid.
    row.stable_until = std::min(row.stable_until, pw.stable_until);
  }
}

void DeltaGraph::OnTaskRemoved(const GridIndex& index, core::TaskId id) {
  const double now = index.now();
  for (auto& entry : rows_) {
    Row& row = entry.second;
    if (row.Due(now)) continue;
    if (SortedErase(&row.adds, id)) {
      ++stats_.edges_repaired;
    } else if (SortedContains(row.base, id) && SortedInsert(&row.dels, id)) {
      ++stats_.edges_repaired;
      MaybeCompact(&row);
    }
    // Removal never shrinks a validity window: horizons stay as-is.
  }
}

util::Status DeltaGraph::RepairRows(const GridIndex& index,
                                    const util::Deadline& deadline) {
  const double now = index.now();
  // Full-churn rounds (at least half the rows due) on large instances are
  // cheaper as one vectorized bulk retrieval than as per-row scalar
  // recomputes: the per-row path exists to win when few rows changed, and
  // above the crossover it must never cost more than the rebuild it
  // replaces. Small instances stay per-row so their horizons are exact.
  if (static_cast<int64_t>(rows_.size()) >= bulk_min_rows_) {
    int64_t due = 0;
    for (const auto& [wid, row] : rows_) {
      if (row.Due(now)) ++due;
    }
    if (due > 0 && 2 * due >= static_cast<int64_t>(rows_.size())) {
      return BulkRefill(index, deadline);
    }
  }
  int since_poll = 0;
  for (auto& [wid, row] : rows_) {
    if (++since_poll >= kRepairRowsPerPoll) {
      since_poll = 0;
      if (util::Status s = deadline.Check(); !s.ok()) return s;
    }
    if (!row.Due(now)) {
      ++stats_.rows_reused;
      continue;
    }
    util::StatusOr<WorkerRowResult> fresh = index.RetrieveWorkerRow(wid);
    if (!fresh.ok()) return fresh.status();
    WorkerRowResult result = std::move(fresh).value();
    stats_.cells_touched += result.cells_scanned;
    stats_.edges_repaired += static_cast<int64_t>(result.tasks.size());
    ++stats_.rows_recomputed;
    row.base = std::move(result.tasks);
    row.adds.clear();
    row.dels.clear();
    row.stable_until = result.stable_until;
    row.dirty = false;
  }
  return util::Status::OK();
}

util::Status DeltaGraph::BulkRefill(const GridIndex& index,
                                    const util::Deadline& deadline) {
  // Surface stale rows exactly like the per-row path would: a tracked
  // worker that left the index is a caller bug, not a silently-empty row.
  for (const auto& [wid, row] : rows_) {
    if (index.FindWorker(wid) == nullptr) {
      return util::Status::NotFound("delta row's worker not in index");
    }
  }
  RetrievalStats rstats;
  util::StatusOr<std::vector<std::pair<core::WorkerId, core::TaskId>>> pairs =
      index.RetrievePairs(&rstats, nullptr, deadline);
  if (!pairs.ok()) return pairs.status();
  const double now = index.now();
  // RetrievePairs emits (worker, task)-sorted output and rows_ iterates
  // by worker id, so one lockstep merge rebuilds every base row sorted
  // -- no per-pair lookups. Workers indexed but not tracked here are
  // skipped: callers maintaining a row subset stay correct.
  auto pit = pairs.value().cbegin();
  const auto pend = pairs.value().cend();
  for (auto& [wid, row] : rows_) {
    row.base.clear();
    row.adds.clear();
    row.dels.clear();
    // The bulk kernel yields verdicts, not windows, so the refilled rows
    // carry no lookahead: they are current exactly at this clock and due
    // again once it advances. On a churn-heavy stream that is the regime
    // anyway; quiet streams stay on the per-row horizon path above.
    row.stable_until = now;
    row.dirty = false;
    while (pit != pend && pit->first < wid) ++pit;
    auto run_end = pit;
    while (run_end != pend && run_end->first == wid) ++run_end;
    row.base.reserve(static_cast<size_t>(run_end - pit));
    for (; pit != run_end; ++pit) row.base.push_back(pit->second);
  }
  stats_.cells_touched += rstats.cell_pairs_examined - rstats.cell_pairs_pruned;
  stats_.edges_repaired += static_cast<int64_t>(pairs.value().size());
  stats_.rows_recomputed += static_cast<int64_t>(rows_.size());
  ++stats_.bulk_refills;
  return util::Status::OK();
}

std::vector<std::pair<core::WorkerId, core::TaskId>> DeltaGraph::Pairs()
    const {
  std::vector<std::pair<core::WorkerId, core::TaskId>> pairs;
  size_t bound = 0;  // dels only shrink rows: reserve the upper bound
  for (const auto& [wid, row] : rows_) {
    bound += row.base.size() + row.adds.size();
  }
  pairs.reserve(bound);
  for (const auto& [wid, row] : rows_) {
    if (row.adds.empty() && row.dels.empty()) {
      for (core::TaskId tid : row.base) pairs.emplace_back(wid, tid);
      continue;
    }
    for (core::TaskId tid : Materialize(row)) pairs.emplace_back(wid, tid);
  }
  return pairs;
}

std::vector<core::TaskId> DeltaGraph::Materialize(const Row& row) {
  std::vector<core::TaskId> out;
  out.reserve(row.base.size() + row.adds.size());
  // Merge (base \ dels) with adds; all three inputs are sorted and adds
  // is disjoint from base, so the output is sorted and unique.
  auto add_it = row.adds.begin();
  for (core::TaskId tid : row.base) {
    if (SortedContains(row.dels, tid)) continue;
    while (add_it != row.adds.end() && *add_it < tid) {
      out.push_back(*add_it++);
    }
    out.push_back(tid);
  }
  out.insert(out.end(), add_it, row.adds.end());
  return out;
}

void DeltaGraph::MaybeCompact(Row* row) {
  if (static_cast<int>(row->adds.size() + row->dels.size()) <=
      compaction_threshold_) {
    return;
  }
  row->base = Materialize(*row);
  row->adds.clear();
  row->dels.clear();
  ++stats_.compactions;
}

}  // namespace rdbsc::index
