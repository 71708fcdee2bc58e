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

util::Status IncrementalAssigner::AddTask(core::TaskId id,
                                          const core::Task& task) {
  if (util::Status s = core::ValidateTask(id, task); !s.ok()) return s;
  if (tasks_.contains(id)) {
    return util::Status::AlreadyExists("task id already registered");
  }
  tasks_.emplace(id, task);
  ledger_.emplace(id, LedgerEntry{task, {}});
  return util::Status::OK();
}

util::Status IncrementalAssigner::RemoveTask(core::TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return util::Status::NotFound("task id not registered");
  }
  tasks_.erase(it);
  // Pending commitments to the vanished task are voided: the workers
  // become available again and their provisional contributions disappear.
  // Every commit appends to the task's ledger, so its contributions list
  // every worker still committed to it: O(contributions), not a scan of
  // all workers. Sorted and deduped: a worker that completed and
  // re-committed appears twice.
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
  return util::Status::OK();
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
  it->second.worker.location = to;
  return util::Status::OK();
}

util::Status IncrementalAssigner::ApplyEvents(const EventBatch& batch) {
  if (util::Status s = CheckClock("batch.now", batch.now); !s.ok()) {
    return s;
  }
  now_ = batch.now;
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
  metrics_->GetCounter("sim.delta.edges_repaired")
      .Increment(diff.edges_repaired);
  metrics_->GetCounter("sim.delta.rows_recomputed")
      .Increment(diff.rows_recomputed);
  metrics_->GetCounter("sim.delta.bulk_refills").Increment(diff.bulk_refills);
}

util::StatusOr<std::vector<std::pair<core::TaskId, core::WorkerId>>>
IncrementalAssigner::Update(double now) {
  if (util::Status s = CheckClock("now", now); !s.ok()) return s;
  now_ = now;

  // Drop expired tasks (Figure 10 keeps only the opening ones), in id
  // order.
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

  // The round's candidate graph, built as Engine::Run would.
  const auto build_start = std::chrono::steady_clock::now();
  const core::CandidateGraph graph = core::CandidateGraph::Build(snapshot);
  delta_stats_.edges_repaired += graph.NumEdges();
  delta_stats_.rows_recomputed += static_cast<int64_t>(worker_ids.size());
  ++delta_stats_.bulk_refills;
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
