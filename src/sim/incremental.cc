#include "sim/incremental.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/diversity.h"
#include "core/instance.h"
#include "util/deadline.h"
#include "util/math.h"

namespace rdbsc::sim {
namespace {

// `worker` relocated to `position` must still pass the per-worker input
// check: a moved or completing worker brings a new location.
util::Status ValidatePosition(core::WorkerId id, core::Worker worker,
                              geo::Point position) {
  worker.location = position;
  return core::ValidateWorker(id, worker);
}

// A round clock must be finite before it reaches the index:
// std::max(NaN, clock) would store NaN there.
util::Status ValidateClock(const char* field, double now) {
  if (std::isfinite(now)) return util::Status::OK();
  char text[64];
  std::snprintf(text, sizeof(text), "%s = %g not finite", field, now);
  return util::Status::InvalidArgument(text);
}

}  // namespace

IncrementalAssigner::IncrementalAssigner(core::Solver* solver, double eta,
                                         core::ArrivalPolicy policy)
    : solver_(solver), policy_(policy), index_(eta, /*now=*/0.0, policy) {}

util::Status IncrementalAssigner::AddTask(core::TaskId id,
                                          const core::Task& task) {
  if (util::Status s = core::ValidateTask(id, task); !s.ok()) return s;
  if (tasks_.contains(id)) {
    return util::Status::AlreadyExists("task id already registered");
  }
  util::Status status = index_.InsertTask(id, task);
  if (!status.ok()) return status;
  tasks_.emplace(id, task);
  ledger_.emplace(id, LedgerEntry{task, {}});
  return util::Status::OK();
}

util::Status IncrementalAssigner::RemoveTask(core::TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return util::Status::NotFound("task id not registered");
  }
  if (util::Status s = index_.RemoveTask(id); !s.ok()) return s;
  tasks_.erase(it);
  // Pending commitments to the vanished task are voided: the workers
  // become available again and their provisional contributions disappear.
  // Every commit appends to the task's ledger, so its contributions list
  // every worker still committed to it: O(contributions), not a scan of
  // all workers. Sorted (and deduped: a worker that completed and
  // re-committed appears twice) so the grid index sees the re-inserts in
  // a reproducible order.
  std::vector<std::pair<core::WorkerId, core::Observation>>& contributions =
      ledger_.at(id).contributions;
  std::vector<core::WorkerId> voided;
  for (const auto& [wid, observation] : contributions) {
    auto record = workers_.find(wid);
    if (record != workers_.end() && record->second.busy &&
        record->second.committed == id) {
      voided.push_back(wid);
    }
  }
  std::sort(voided.begin(), voided.end());
  voided.erase(std::unique(voided.begin(), voided.end()), voided.end());
  for (core::WorkerId wid : voided) {
    WorkerRecord& record = workers_.at(wid);
    record.committed = core::kNoTask;
    record.busy = false;
    if (util::Status s = index_.InsertWorker(wid, record.worker); !s.ok()) {
      return s;
    }
    std::erase_if(contributions, [wid](const auto& entry) {
      return entry.first == wid;
    });
  }
  return util::Status::OK();
}

util::Status IncrementalAssigner::AddWorker(core::WorkerId id,
                                            const core::Worker& worker) {
  if (util::Status s = core::ValidateWorker(id, worker); !s.ok()) return s;
  if (workers_.contains(id)) {
    return util::Status::AlreadyExists("worker id already registered");
  }
  util::Status status = index_.InsertWorker(id, worker);
  if (!status.ok()) return status;
  WorkerRecord record;
  record.worker = worker;
  workers_.emplace(id, record);
  return util::Status::OK();
}

util::Status IncrementalAssigner::RemoveWorker(core::WorkerId id) {
  auto it = workers_.find(id);
  if (it == workers_.end()) {
    return util::Status::NotFound("worker id not registered");
  }
  if (!it->second.busy) {
    if (util::Status s = index_.RemoveWorker(id); !s.ok()) return s;
  }
  if (it->second.committed != core::kNoTask && it->second.busy) {
    // The worker left mid-route: void the provisional contribution.
    auto ledger_it = ledger_.find(it->second.committed);
    if (ledger_it != ledger_.end()) {
      std::erase_if(ledger_it->second.contributions,
                    [id](const auto& entry) { return entry.first == id; });
    }
  }
  workers_.erase(it);
  return util::Status::OK();
}

util::Status IncrementalAssigner::CompleteWorker(core::WorkerId id,
                                                 geo::Point position) {
  auto it = workers_.find(id);
  if (it == workers_.end()) {
    return util::Status::NotFound("worker id not registered");
  }
  if (!it->second.busy) {
    return util::Status::FailedPrecondition("worker has no pending task");
  }
  if (util::Status s = ValidatePosition(id, it->second.worker, position);
      !s.ok()) {
    return s;
  }
  it->second.busy = false;
  it->second.committed = core::kNoTask;
  it->second.worker.location = position;
  return index_.InsertWorker(id, it->second.worker);
}

util::Status IncrementalAssigner::MoveWorker(core::WorkerId id,
                                             geo::Point to) {
  auto it = workers_.find(id);
  if (it == workers_.end()) {
    return util::Status::NotFound("worker id not registered");
  }
  if (it->second.busy) {
    return util::Status::FailedPrecondition(
        "committed worker cannot be moved");
  }
  if (util::Status s = ValidatePosition(id, it->second.worker, to); !s.ok()) {
    return s;
  }
  util::Status status = index_.MoveWorker(id, to);
  if (!status.ok()) return status;
  it->second.worker.location = to;
  return util::Status::OK();
}

util::Status IncrementalAssigner::ApplyEvents(const EventBatch& batch) {
  if (util::Status s = ValidateClock("batch.now", batch.now); !s.ok()) {
    return s;
  }
  index_.set_now(std::max(batch.now, index_.now()));
  EventBatch events = batch;
  events.Canonicalize();
  for (const TaskExpired& event : events.expired) {
    if (util::Status s = RemoveTask(event.id); !s.ok()) return s;
  }
  for (const WorkerCompleted& event : events.completed) {
    if (util::Status s = CompleteWorker(event.id, event.position); !s.ok()) {
      return s;
    }
  }
  for (const TaskArrived& event : events.arrived) {
    if (util::Status s = AddTask(event.id, event.task); !s.ok()) return s;
  }
  for (const WorkerMoved& event : events.moved) {
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
  reported_tcell_rebuilds_ = index_.reachability_rebuilds();
  reported_tcell_patches_ = index_.reachability_patches();
  round_build_ = nullptr;
  round_solve_ = nullptr;
  if (metrics == nullptr) return;
  const obs::Labels labels = {{"solver", std::move(solver_name)}};
  round_build_ =
      &metrics->GetHistogram("sim.round_build_seconds", labels, 1e-9);
  round_solve_ =
      &metrics->GetHistogram("sim.round_solve_seconds", labels, 1e-9);
}

void IncrementalAssigner::ReportDeltaMetrics() {
  if (metrics_ == nullptr) return;
  const index::DeltaStats diff = delta_stats_ - reported_delta_;
  reported_delta_ = delta_stats_;
  metrics_->GetCounter("sim.delta.cells_touched")
      .Increment(diff.cells_touched);
  metrics_->GetCounter("sim.delta.edges_repaired")
      .Increment(diff.edges_repaired);
  metrics_->GetCounter("sim.delta.rows_recomputed")
      .Increment(diff.rows_recomputed);
  metrics_->GetCounter("sim.delta.bulk_refills").Increment(diff.bulk_refills);
  const int64_t rebuilds = index_.reachability_rebuilds();
  const int64_t patches = index_.reachability_patches();
  metrics_->GetCounter("sim.delta.tcell_rebuilds")
      .Increment(rebuilds - reported_tcell_rebuilds_);
  metrics_->GetCounter("sim.delta.tcell_patches")
      .Increment(patches - reported_tcell_patches_);
  reported_tcell_rebuilds_ = rebuilds;
  reported_tcell_patches_ = patches;
}

util::StatusOr<std::vector<std::pair<core::TaskId, core::WorkerId>>>
IncrementalAssigner::Update(double now) {
  if (util::Status s = ValidateClock("now", now); !s.ok()) return s;
  index_.set_now(std::max(now, index_.now()));

  // Drop expired tasks (Figure 10 keeps only the opening ones). Removal
  // order is observable through the index's patch counters, so sort.
  std::vector<core::TaskId> expired;
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [tid, task] : tasks_) {
    if (task.end < now) expired.push_back(tid);
  }
  std::sort(expired.begin(), expired.end());
  for (core::TaskId tid : expired) {
    if (util::Status s = RemoveTask(tid); !s.ok()) return s;
  }

  // Compact snapshot for the solver: local ids are ranks in the sorted
  // global id lists.
  std::vector<core::TaskId> task_ids;
  task_ids.reserve(tasks_.size());
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [tid, task] : tasks_) task_ids.push_back(tid);
  std::sort(task_ids.begin(), task_ids.end());
  std::vector<core::WorkerId> worker_ids;
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [wid, record] : workers_) {
    if (!record.busy) worker_ids.push_back(wid);
  }
  std::sort(worker_ids.begin(), worker_ids.end());

  std::vector<std::pair<core::TaskId, core::WorkerId>> committed;
  if (task_ids.empty() || worker_ids.empty()) {
    ReportDeltaMetrics();
    return committed;
  }
  std::vector<core::Task> snapshot_tasks;
  snapshot_tasks.reserve(task_ids.size());
  for (core::TaskId tid : task_ids) snapshot_tasks.push_back(tasks_.at(tid));
  std::vector<core::Worker> snapshot_workers;
  snapshot_workers.reserve(worker_ids.size());
  for (core::WorkerId wid : worker_ids) {
    snapshot_workers.push_back(workers_.at(wid).worker);
  }
  core::Instance snapshot(std::move(snapshot_tasks),
                          std::move(snapshot_workers), now, policy_);

  // Valid pairs among available workers and open tasks: one retrieval
  // over the index, which holds exactly those workers and tasks.
  const auto build_start = std::chrono::steady_clock::now();
  if (index_.num_workers() != static_cast<int>(worker_ids.size()) ||
      index_.num_tasks() != static_cast<int>(task_ids.size())) {
    return util::Status::Internal("index out of step with the round snapshot");
  }
  index::RetrievalStats rstats;
  util::StatusOr<std::vector<std::pair<core::WorkerId, core::TaskId>>>
      retrieved = index_.RetrievePairs(&rstats);
  if (!retrieved.ok()) return retrieved.status();
  const std::vector<std::pair<core::WorkerId, core::TaskId>>& pairs =
      retrieved.value();
  delta_stats_.cells_touched +=
      rstats.cell_pairs_examined - rstats.cell_pairs_pruned;
  delta_stats_.edges_repaired += static_cast<int64_t>(pairs.size());
  delta_stats_.rows_recomputed += static_cast<int64_t>(worker_ids.size());
  ++delta_stats_.bulk_refills;
  // Every pair has a local id. Pairs are id-sorted and ids map to ranks
  // monotonically, so each local row stays sorted as FromEdges expects.
  std::vector<std::vector<core::TaskId>> edges(worker_ids.size());
  size_t row = 0;  // pairs are worker-major: the row cursor only advances
  for (const auto& [wid, tid] : pairs) {
    while (row < worker_ids.size() && worker_ids[row] < wid) ++row;
    const auto t = std::lower_bound(task_ids.begin(), task_ids.end(), tid);
    if (row == worker_ids.size() || worker_ids[row] != wid ||
        t == task_ids.end() || *t != tid) {
      return util::Status::Internal("index pair outside the round snapshot");
    }
    edges[row].push_back(static_cast<core::TaskId>(t - task_ids.begin()));
  }
  const core::CandidateGraph graph =
      core::CandidateGraph::FromEdges(snapshot, std::move(edges));
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

  for (size_t local = 0; local < worker_ids.size(); ++local) {
    core::TaskId local_task =
        solve.assignment.TaskOf(static_cast<core::WorkerId>(local));
    if (local_task == core::kNoTask) continue;
    core::WorkerId wid = worker_ids[local];
    core::TaskId tid = task_ids[local_task];
    WorkerRecord& record = workers_.at(wid);
    record.committed = tid;
    record.busy = true;
    record.observation = core::MakeObservation(
        tasks_.at(tid), record.worker, now, policy_);
    ledger_.at(tid).contributions.emplace_back(wid, record.observation);
    // A committed worker leaves the assignable pool.
    if (util::Status s = index_.RemoveWorker(wid); !s.ok()) return s;
    committed.emplace_back(tid, wid);
  }
  ReportDeltaMetrics();
  return committed;
}

core::TaskId IncrementalAssigner::CommittedTask(core::WorkerId id) const {
  auto it = workers_.find(id);
  return it == workers_.end() ? core::kNoTask : it->second.committed;
}

core::ObjectiveValue IncrementalAssigner::Objectives() const {
  core::ObjectiveValue value;
  double min_r = std::numeric_limits<double>::infinity();
  bool any = false;
  // Float addition is non-associative, so accumulating total_std in the
  // hash map's bucket order would make the objective depend on insertion
  // history. Walk the ledger in sorted task-id order instead: the sum is
  // bit-identical for equal ledger contents however they were built.
  std::vector<core::TaskId> tids;
  tids.reserve(ledger_.size());
  // LINT-ALLOW(unordered-iter): key collection only; sorted below
  for (const auto& [tid, entry] : ledger_) tids.push_back(tid);
  std::sort(tids.begin(), tids.end());
  for (core::TaskId tid : tids) {
    const LedgerEntry& entry = ledger_.at(tid);
    if (entry.contributions.empty()) continue;
    any = true;
    double r = 0.0;
    std::vector<core::Observation> observations;
    observations.reserve(entry.contributions.size());
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
