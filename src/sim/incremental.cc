#include "sim/incremental.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "core/diversity.h"
#include "core/instance.h"
#include "util/deadline.h"
#include "util/math.h"

namespace rdbsc::sim {
namespace {

constexpr size_t kAbsent = static_cast<size_t>(-1);

// `worker` relocated to `position` must still pass the per-worker input
// check: a moved or completing worker brings a new location.
util::Status ValidatePosition(core::WorkerId id, core::Worker worker,
                              geo::Point position) {
  worker.location = position;
  return core::ValidateWorker(id, worker);
}

// Where `id` belongs in the ascending `ids`: the end for an id above them
// all, which is how ids usually arrive.
template <typename Id>
size_t InsertPosition(const std::vector<Id>& ids, Id id) {
  if (ids.empty() || ids.back() < id) return ids.size();
  return static_cast<size_t>(std::lower_bound(ids.begin(), ids.end(), id) -
                             ids.begin());
}

// The position of `id` in the ascending `ids`, or kAbsent. Dense ids
// (0..n-1, as sim::Platform hands out, or any gapless run) sit at
// id - ids.front(), which is tried first.
template <typename Id>
size_t IndexOf(const std::vector<Id>& ids, Id id) {
  if (ids.empty()) return kAbsent;
  const int64_t guess = int64_t{id} - int64_t{ids.front()};
  if (guess >= 0 && guess < static_cast<int64_t>(ids.size()) &&
      ids[static_cast<size_t>(guess)] == id) {
    return static_cast<size_t>(guess);
  }
  const size_t k = static_cast<size_t>(
      std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  return k < ids.size() && ids[k] == id ? k : kAbsent;
}

template <typename T>
void InsertAt(std::vector<T>& column, size_t k, T value) {
  column.insert(column.begin() + static_cast<ptrdiff_t>(k), std::move(value));
}

template <typename T>
void EraseAt(std::vector<T>& column, size_t k) {
  column.erase(column.begin() + static_cast<ptrdiff_t>(k));
}

// Drops the elements at the ascending, distinct positions `removed`,
// keeping the others in order: one block move per run of survivors.
template <typename T>
void EraseAll(std::vector<T>& column, const std::vector<size_t>& removed) {
  if (removed.empty()) return;
  const auto at = [&column](size_t k) {
    return column.begin() + static_cast<ptrdiff_t>(k);
  };
  auto out = at(removed.front());
  for (size_t r = 0; r < removed.size(); ++r) {
    const size_t end = r + 1 < removed.size() ? removed[r + 1] : column.size();
    out = std::move(at(removed[r] + 1), at(end), out);
  }
  column.erase(out, column.end());
}

}  // namespace

IncrementalAssigner::IncrementalAssigner(core::Solver* solver,
                                         core::ArrivalPolicy policy)
    : solver_(solver), policy_(policy) {}

util::Status IncrementalAssigner::CheckClock(const char* field,
                                             double now) const {
  char text[96];
  if (!std::isfinite(now)) {
    std::snprintf(text, sizeof(text), "%s = %g not finite", field, now);
    return util::Status::InvalidArgument(text);
  }
  if (now < now_) {
    std::snprintf(text, sizeof(text),
                  "%s = %g is earlier than the round clock %g", field, now,
                  now_);
    return util::Status::InvalidArgument(text);
  }
  return util::Status::OK();
}

IncrementalAssigner::LedgerEntry& IncrementalAssigner::LedgerOf(
    core::TaskId id) {
  size_t k = IndexOf(ledger_ids_, id);
  assert(k != kAbsent);
  while (k + 1 < ledger_ids_.size() && ledger_ids_[k + 1] == id) ++k;
  return ledger_[k];
}

util::Status IncrementalAssigner::AddTask(core::TaskId id,
                                          const core::Task& task) {
  if (util::Status s = core::ValidateTask(id, task); !s.ok()) return s;
  if (id == core::kNoTask) {
    return util::Status::InvalidArgument("task id -1 is kNoTask, reserved");
  }
  const size_t k = InsertPosition(task_ids_, id);
  if (k < task_ids_.size() && task_ids_[k] == id) {
    return util::Status::AlreadyExists("task id already registered");
  }
  InsertAt(task_ids_, k, id);
  InsertAt(tasks_, k, task);
  // After any earlier entries of the id: this registration is the newest.
  const size_t l =
      ledger_ids_.empty() || ledger_ids_.back() <= id
          ? ledger_ids_.size()
          : static_cast<size_t>(std::upper_bound(ledger_ids_.begin(),
                                                 ledger_ids_.end(), id) -
                                ledger_ids_.begin());
  InsertAt(ledger_ids_, l, id);
  InsertAt(ledger_, l, LedgerEntry{task, {}});
  return util::Status::OK();
}

void IncrementalAssigner::VoidCommitments(core::TaskId id) {
  // Every commit appends to the task's ledger, so its contributions list
  // every worker still committed to it: O(contributions), not a scan of
  // all workers. A worker that completed and re-committed appears twice;
  // all of its entries go (the voided one and the completed one).
  std::vector<std::pair<core::WorkerId, core::Observation>>& contributions =
      LedgerOf(id).contributions;
  voided_.clear();
  for (const auto& [wid, observation] : contributions) {
    const size_t w = IndexOf(worker_ids_, wid);
    if (w != kAbsent && committed_[w] == id) {
      committed_[w] = core::kNoTask;
      voided_.push_back(wid);
    }
  }
  if (voided_.empty()) return;
  std::erase_if(contributions, [this](const auto& entry) {
    return std::find(voided_.begin(), voided_.end(), entry.first) !=
           voided_.end();
  });
}

void IncrementalAssigner::EraseOpenTasks(const std::vector<size_t>& removed) {
  EraseAll(task_ids_, removed);
  EraseAll(tasks_, removed);
}

util::Status IncrementalAssigner::RemoveTask(core::TaskId id) {
  const size_t k = IndexOf(task_ids_, id);
  if (k == kAbsent) return util::Status::NotFound("task id not registered");
  // Pending commitments to the vanished task are voided: the workers
  // become available again and their provisional contributions disappear.
  VoidCommitments(id);
  EraseAt(task_ids_, k);
  EraseAt(tasks_, k);
  return util::Status::OK();
}

util::Status IncrementalAssigner::AddWorker(core::WorkerId id,
                                            const core::Worker& worker) {
  if (util::Status s = core::ValidateWorker(id, worker); !s.ok()) return s;
  const size_t k = InsertPosition(worker_ids_, id);
  if (k < worker_ids_.size() && worker_ids_[k] == id) {
    return util::Status::AlreadyExists("worker id already registered");
  }
  InsertAt(worker_ids_, k, id);
  InsertAt(workers_, k, worker);
  InsertAt(committed_, k, core::kNoTask);
  return util::Status::OK();
}

util::Status IncrementalAssigner::RemoveWorker(core::WorkerId id) {
  const size_t k = IndexOf(worker_ids_, id);
  if (k == kAbsent) return util::Status::NotFound("worker id not registered");
  if (committed_[k] != core::kNoTask) {
    // The worker left mid-route: void the provisional contribution.
    std::erase_if(LedgerOf(committed_[k]).contributions,
                  [id](const auto& entry) { return entry.first == id; });
  }
  EraseAt(worker_ids_, k);
  EraseAt(workers_, k);
  EraseAt(committed_, k);
  return util::Status::OK();
}

util::Status IncrementalAssigner::CompleteWorker(core::WorkerId id,
                                                 geo::Point position) {
  const size_t k = IndexOf(worker_ids_, id);
  if (k == kAbsent) return util::Status::NotFound("worker id not registered");
  if (committed_[k] == core::kNoTask) {
    return util::Status::FailedPrecondition("worker has no pending task");
  }
  if (util::Status s = ValidatePosition(id, workers_[k], position); !s.ok()) {
    return s;
  }
  committed_[k] = core::kNoTask;
  workers_[k].location = position;
  return util::Status::OK();
}

util::Status IncrementalAssigner::MoveWorker(core::WorkerId id,
                                             geo::Point to) {
  const size_t k = IndexOf(worker_ids_, id);
  if (k == kAbsent) return util::Status::NotFound("worker id not registered");
  if (committed_[k] != core::kNoTask) {
    return util::Status::FailedPrecondition(
        "committed worker cannot be moved");
  }
  if (util::Status s = ValidatePosition(id, workers_[k], to); !s.ok()) {
    return s;
  }
  workers_[k].location = to;
  return util::Status::OK();
}

util::Status IncrementalAssigner::ApplyEvents(const EventBatch& batch) {
  if (util::Status s = CheckClock("batch.now", batch.now); !s.ok()) {
    return s;
  }
  now_ = batch.now;
  // A batch already in canonical order is applied as it is; any other is
  // sorted in a copy (into reused scratch).
  const EventBatch* events = &batch;
  if (!batch.IsCanonical()) {
    canonical_ = batch;
    canonical_.Canonicalize();
    events = &canonical_;
  }
  // The expirations in ascending id are ascending column positions:
  // compact them in one pass, also when one of them fails.
  removed_.clear();
  util::Status status;
  for (const TaskExpired& event : events->expired) {
    const size_t k = IndexOf(task_ids_, event.id);
    if (k == kAbsent || (!removed_.empty() && removed_.back() == k)) {
      status = util::Status::NotFound("task id not registered");
      break;
    }
    VoidCommitments(event.id);
    removed_.push_back(k);
  }
  EraseOpenTasks(removed_);
  if (!status.ok()) return status;
  for (const WorkerCompleted& event : events->completed) {
    if (util::Status s = CompleteWorker(event.id, event.position); !s.ok()) {
      return s;
    }
  }
  for (const TaskArrived& event : events->arrived) {
    if (util::Status s = AddTask(event.id, event.task); !s.ok()) return s;
  }
  for (const WorkerMoved& event : events->moved) {
    if (util::Status s = MoveWorker(event.id, event.to); !s.ok()) return s;
  }
  return util::Status::OK();
}

void IncrementalAssigner::set_metrics(obs::Registry* metrics,
                                      std::string solver_name) {
  metrics_ = metrics;
  // Start the per-round diffs from here: work done before the sink was
  // attached is not retroactively reported.
  reported_delta_ = delta_stats_;
  round_prepare_ = nullptr;
  round_build_ = nullptr;
  round_solve_ = nullptr;
  round_commit_ = nullptr;
  if (metrics == nullptr) return;
  const obs::Labels labels = {{"solver", std::move(solver_name)}};
  round_prepare_ =
      &metrics->GetHistogram("sim.round_prepare_seconds", labels, 1e-9);
  round_build_ =
      &metrics->GetHistogram("sim.round_build_seconds", labels, 1e-9);
  round_solve_ =
      &metrics->GetHistogram("sim.round_solve_seconds", labels, 1e-9);
  round_commit_ =
      &metrics->GetHistogram("sim.round_commit_seconds", labels, 1e-9);
}

void IncrementalAssigner::ReportDeltaMetrics() {
  if (metrics_ == nullptr) return;
  const index::DeltaStats diff = delta_stats_ - reported_delta_;
  reported_delta_ = delta_stats_;
  metrics_->GetCounter("sim.delta.edges_repaired")
      .Increment(diff.edges_repaired);
  metrics_->GetCounter("sim.delta.rows_recomputed")
      .Increment(diff.rows_recomputed);
  metrics_->GetCounter("sim.delta.bulk_refills").Increment(diff.bulk_refills);
  metrics_->GetCounter("sim.build.blocks_tested")
      .Increment(diff.blocks_tested);
  metrics_->GetCounter("sim.build.blocks_skipped")
      .Increment(diff.blocks_skipped);
}

util::StatusOr<std::vector<std::pair<core::TaskId, core::WorkerId>>>
IncrementalAssigner::Update(double now) {
  if (util::Status s = CheckClock("now", now); !s.ok()) return s;
  now_ = now;
  const auto prepare_start = std::chrono::steady_clock::now();

  // Drop expired tasks (Figure 10 keeps only the opening ones).
  removed_.clear();
  for (size_t k = 0; k < tasks_.size(); ++k) {
    if (tasks_[k].end < now) removed_.push_back(k);
  }
  for (size_t k : removed_) VoidCommitments(task_ids_[k]);
  EraseOpenTasks(removed_);

  // Compact snapshot for the solver: local ids are ranks in the ascending
  // global id columns -- every open task, and the available workers.
  available_.resize(committed_.size());
  size_t num_available = 0;
  for (size_t w = 0; w < committed_.size(); ++w) {
    available_[num_available] = w;
    num_available += committed_[w] == core::kNoTask ? 1 : 0;
  }
  available_.resize(num_available);

  std::vector<std::pair<core::TaskId, core::WorkerId>> committed;
  if (tasks_.empty() || available_.empty()) {
    if (round_prepare_ != nullptr) {
      round_prepare_->Observe(util::SecondsSince(prepare_start));
    }
    ReportDeltaMetrics();
    return committed;
  }
  std::vector<core::Worker> snapshot_workers;
  snapshot_workers.reserve(available_.size());
  for (size_t w : available_) snapshot_workers.push_back(workers_[w]);
  core::Instance snapshot(tasks_, std::move(snapshot_workers), now, policy_);
  if (round_prepare_ != nullptr) {
    round_prepare_->Observe(util::SecondsSince(prepare_start));
  }

  // The round's candidate graph, built as Engine::Run would.
  const auto build_start = std::chrono::steady_clock::now();
  const core::CandidateGraph graph = core::CandidateGraph::Build(snapshot);
  delta_stats_.edges_repaired += graph.NumEdges();
  delta_stats_.rows_recomputed += static_cast<int64_t>(available_.size());
  ++delta_stats_.bulk_refills;
  delta_stats_.blocks_tested += graph.BlocksTested();
  delta_stats_.blocks_skipped += graph.BlocksSkipped();
  if (round_build_ != nullptr) {
    round_build_->Observe(util::SecondsSince(build_start));
  }

  const auto solve_start = std::chrono::steady_clock::now();
  util::StatusOr<core::SolveResult> solved = solver_->Solve(snapshot, graph);
  if (!solved.ok()) return solved.status();
  if (round_solve_ != nullptr) {
    round_solve_->Observe(util::SecondsSince(solve_start));
  }
  const core::SolveResult& solve = solved.value();

  // Local ids index the columns directly.
  const auto commit_start = std::chrono::steady_clock::now();
  committed.reserve(available_.size());
  for (size_t local = 0; local < available_.size(); ++local) {
    const core::TaskId local_task =
        solve.assignment.TaskOf(static_cast<core::WorkerId>(local));
    if (local_task == core::kNoTask) continue;
    const size_t w = available_[local];
    const auto k = static_cast<size_t>(local_task);
    const core::TaskId tid = task_ids_[k];
    committed_[w] = tid;
    LedgerOf(tid).contributions.emplace_back(
        worker_ids_[w],
        core::MakeObservation(tasks_[k], workers_[w], now, policy_));
    committed.emplace_back(tid, worker_ids_[w]);
  }
  if (round_commit_ != nullptr) {
    round_commit_->Observe(util::SecondsSince(commit_start));
  }
  ReportDeltaMetrics();
  return committed;
}

core::TaskId IncrementalAssigner::CommittedTask(core::WorkerId id) const {
  const size_t k = IndexOf(worker_ids_, id);
  return k == kAbsent ? core::kNoTask : committed_[k];
}

core::ObjectiveValue IncrementalAssigner::Objectives() const {
  core::ObjectiveValue value;
  double min_r = std::numeric_limits<double>::infinity();
  bool any = false;
  // Float addition is non-associative; the ledger is in (id,
  // registration) order, so the sum is bit-identical for equal ledger
  // contents however the ids' registrations were interleaved.
  std::vector<core::Observation> observations;
  for (const LedgerEntry& entry : ledger_) {
    if (entry.contributions.empty()) continue;
    any = true;
    double r = 0.0;
    observations.clear();
    for (const auto& [wid, obs] : entry.contributions) {
      r += util::ReliabilityWeight(obs.confidence);
      observations.push_back(obs);
    }
    min_r = std::min(min_r, r);
    value.total_std += core::ExpectedStd(entry.task, observations);
  }
  value.min_reliability = any ? util::ReducedToProbability(min_r) : 0.0;
  return value;
}

}  // namespace rdbsc::sim
