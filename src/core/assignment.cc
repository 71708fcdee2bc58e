#include "core/assignment.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

#include "util/math.h"

namespace rdbsc::core {

bool Dominates(const ObjectiveValue& a, const ObjectiveValue& b) {
  bool no_worse = a.min_reliability >= b.min_reliability &&
                  a.total_std >= b.total_std;
  bool strictly_better = a.min_reliability > b.min_reliability ||
                         a.total_std > b.total_std;
  return no_worse && strictly_better;
}

int Assignment::NumAssigned() const {
  int count = 0;
  for (TaskId t : worker_task_) {
    if (t != kNoTask) ++count;
  }
  return count;
}

void Assignment::Clear() {
  std::fill(worker_task_.begin(), worker_task_.end(), kNoTask);
}

std::vector<std::vector<WorkerId>> Assignment::TaskGroups(
    int num_tasks) const {
  std::vector<std::vector<WorkerId>> groups(num_tasks);
  for (WorkerId j = 0; j < num_workers(); ++j) {
    TaskId i = worker_task_[j];
    if (i != kNoTask) {
      assert(i >= 0 && i < num_tasks);
      groups[i].push_back(j);
    }
  }
  return groups;
}

AssignmentState::AssignmentState(const Instance& instance)
    : instance_(&instance),
      assignment_(instance.num_workers()),
      task_workers_(instance.num_tasks()),
      task_obs_(instance.num_tasks()),
      task_r_(instance.num_tasks(), 0.0),
      task_std_(instance.num_tasks(), 0.0) {
  weight_.reserve(static_cast<size_t>(instance.num_workers()));
  for (const Worker& w : instance.workers()) {
    weight_.push_back(util::ReliabilityWeight(w.confidence));
  }
}

Observation AssignmentState::ObservationFor(TaskId i, WorkerId j) const {
  return MakeObservation(instance_->task(i), instance_->worker(j),
                         instance_->now(), instance_->policy());
}

void AssignmentState::Attach(TaskId i, WorkerId j, const Observation& obs) {
  assert(assignment_.TaskOf(j) == kNoTask && "worker already assigned");
  assignment_.Assign(j, i);
  if (task_workers_[i].empty()) ++num_nonempty_;
  task_workers_[i].push_back(j);
  task_obs_[i].push_back(obs);
  if (!layout_ready_.empty() && layout_ready_[i]) {
    layouts_[i].Add(instance_->task(i), obs);
  }
  task_r_[i] += weight_[j];
}

TaskId AssignmentState::Detach(WorkerId j) {
  TaskId i = assignment_.TaskOf(j);
  assert(i != kNoTask);
  assignment_.Unassign(j);
  auto& workers = task_workers_[i];
  auto it = std::find(workers.begin(), workers.end(), j);
  assert(it != workers.end());
  size_t pos = static_cast<size_t>(it - workers.begin());
  workers.erase(it);
  task_obs_[i].erase(task_obs_[i].begin() + static_cast<ptrdiff_t>(pos));
  if (!layout_ready_.empty()) layout_ready_[i] = 0;
  task_r_[i] -= weight_[j];
  if (workers.empty()) {
    --num_nonempty_;
    task_r_[i] = 0.0;  // cancel accumulated rounding noise
  }
  return i;
}

void AssignmentState::SetTaskStd(TaskId i, double fresh) {
  total_std_ += fresh - task_std_[i];
  task_std_[i] = fresh;
}

void AssignmentState::Add(TaskId i, WorkerId j) {
  Attach(i, j, ObservationFor(i, j));
  SetTaskStd(i, ExpectedStd(instance_->task(i), task_obs_[i]));
}

void AssignmentState::Remove(WorkerId j) {
  if (assignment_.TaskOf(j) == kNoTask) return;
  TaskId i = Detach(j);
  SetTaskStd(i, ExpectedStd(instance_->task(i), task_obs_[i]));
}

void AssignmentState::AddKnown(TaskId i, WorkerId j, const Observation& obs,
                               double task_std) {
  Attach(i, j, obs);
  SetTaskStd(i, task_std);
}

void AssignmentState::RemoveKnown(WorkerId j, double task_std) {
  SetTaskStd(Detach(j), task_std);
}

void AssignmentState::ClearTask(TaskId i) {
  std::vector<WorkerId>& workers = task_workers_[i];
  if (!workers.empty()) {
    for (WorkerId j : workers) assignment_.Unassign(j);
    workers.clear();
    task_obs_[i].clear();
    --num_nonempty_;
    if (!layout_ready_.empty()) layout_ready_[i] = 0;
  }
  task_r_[i] = 0.0;
  task_std_[i] = 0.0;
}

void AssignmentState::Clear(std::span<const TaskId> tasks) {
  for (TaskId i : tasks) ClearTask(i);
  if (num_nonempty_ != 0) {
    for (TaskId i = 0; i < instance_->num_tasks(); ++i) ClearTask(i);
  }
  // Like a fresh state's, the running total restarts at exactly 0, not at
  // the rounding residue the removals would leave.
  total_std_ = 0.0;
}

void AssignmentState::Reset(const Assignment& assignment) {
  assert(assignment.num_workers() == instance_->num_workers());
  for (TaskId i = 0; i < instance_->num_tasks(); ++i) ClearTask(i);
  total_std_ = 0.0;
  for (WorkerId j = 0; j < assignment.num_workers(); ++j) {
    TaskId i = assignment.TaskOf(j);
    if (i != kNoTask) Add(i, j);
  }
}

void AssignmentState::WriteBackSums(std::span<const TaskId> tasks,
                                    std::span<const double> task_r,
                                    std::span<const double> task_std,
                                    double total_std) {
  assert(tasks.size() == task_r.size() && tasks.size() == task_std.size());
  for (size_t s = 0; s < tasks.size(); ++s) {
    task_r_[tasks[s]] = task_r[s];
    task_std_[tasks[s]] = task_std[s];
  }
  total_std_ = total_std;
}

double AssignmentState::MinReducedReliabilityAllTasks() const {
  double min_r = std::numeric_limits<double>::infinity();
  for (double r : task_r_) min_r = std::min(min_r, r);
  return task_r_.empty() ? 0.0 : min_r;
}

ObjectiveValue AssignmentState::Objectives() const {
  ObjectiveValue value;
  value.total_std = total_std_;
  if (num_nonempty_ == 0) {
    value.min_reliability = 0.0;
    return value;
  }
  double min_r = std::numeric_limits<double>::infinity();
  for (TaskId i = 0; i < instance_->num_tasks(); ++i) {
    if (!task_workers_[i].empty()) min_r = std::min(min_r, task_r_[i]);
  }
  value.min_reliability = util::ReducedToProbability(min_r);
  return value;
}

double AssignmentState::PreviewStd(TaskId i, const Observation& extra) const {
  preview_.assign(task_obs_[i].begin(), task_obs_[i].end());
  preview_.push_back(extra);
  return ExpectedStd(instance_->task(i), preview_);
}

ObjectiveValue AssignmentState::PreviewAdd(TaskId i, WorkerId j) const {
  double new_std = PreviewStd(i, ObservationFor(i, j));
  double new_r = task_r_[i] + weight_[j];

  ObjectiveValue value;
  value.total_std = total_std_ + new_std - task_std_[i];
  double min_r = new_r;
  for (TaskId k = 0; k < instance_->num_tasks(); ++k) {
    if (k == i) continue;
    if (!task_workers_[k].empty()) min_r = std::min(min_r, task_r_[k]);
  }
  value.min_reliability = util::ReducedToProbability(min_r);
  return value;
}

double AssignmentState::PreviewTaskStd(TaskId i, WorkerId j) const {
  return PreviewStd(i, ObservationFor(i, j));
}

const BoundsLayout& AssignmentState::LayoutOf(TaskId i) const {
  if (layout_ready_.empty()) {
    layouts_.resize(static_cast<size_t>(instance_->num_tasks()));
    layout_ready_.assign(static_cast<size_t>(instance_->num_tasks()), 0);
  }
  if (!layout_ready_[i]) {
    layouts_[i].Assign(instance_->task(i), task_obs_[i]);
    layout_ready_[i] = 1;
  }
  return layouts_[i];
}

DiversityBounds AssignmentState::PreviewTaskStdBounds(TaskId i,
                                                      WorkerId j) const {
  return PreviewTaskStdBounds(i, ObservationFor(i, j));
}

DiversityBounds AssignmentState::PreviewTaskStdBounds(
    TaskId i, const Observation& extra) const {
  return LayoutOf(i).Bounds(instance_->task(i), &extra);
}

DiversityBounds AssignmentState::TaskStdBounds(TaskId i) const {
  return LayoutOf(i).Bounds(instance_->task(i));
}

ObjectiveValue EvaluateAssignment(const Instance& instance,
                                  const Assignment& assignment) {
  AssignmentState state(instance);
  state.Reset(assignment);
  return state.Objectives();
}

}  // namespace rdbsc::core
