#include "core/assignment.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

#include "core/kernels.h"
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
      task_std_(instance.num_tasks(), 0.0),
      obs_rows_(instance.num_workers()),
      obs_row_ready_(instance.num_workers(), 0) {}

const std::vector<Observation>& AssignmentState::ObservationRowOf(
    WorkerId j) const {
  if (!obs_row_ready_[j]) {
    ObservationRow(instance_->worker(j), instance_->now(),
                   instance_->policy(), instance_->soa().task_block(),
                   &obs_rows_[j]);
    obs_row_ready_[j] = 1;
  }
  return obs_rows_[j];
}

Observation AssignmentState::ObservationFor(TaskId i, WorkerId j) const {
  if (obs_row_ready_[j]) return obs_rows_[j][static_cast<size_t>(i)];
  return MakeObservation(instance_->task(i), instance_->worker(j),
                         instance_->now(), instance_->policy());
}

void AssignmentState::Add(TaskId i, WorkerId j) {
  assert(assignment_.TaskOf(j) == kNoTask && "worker already assigned");
  assignment_.Assign(j, i);
  if (task_workers_[i].empty()) ++num_nonempty_;
  task_workers_[i].push_back(j);
  task_obs_[i].push_back(ObservationFor(i, j));
  if (!layout_ready_.empty() && layout_ready_[i]) {
    layouts_[i].Add(instance_->task(i), task_obs_[i].back());
  }
  task_r_[i] += util::ReliabilityWeight(instance_->worker(j).confidence);
  RecomputeTask(i);
}

void AssignmentState::Remove(WorkerId j) {
  TaskId i = assignment_.TaskOf(j);
  if (i == kNoTask) return;
  assignment_.Unassign(j);
  auto& workers = task_workers_[i];
  auto it = std::find(workers.begin(), workers.end(), j);
  assert(it != workers.end());
  size_t pos = static_cast<size_t>(it - workers.begin());
  workers.erase(it);
  task_obs_[i].erase(task_obs_[i].begin() + static_cast<ptrdiff_t>(pos));
  if (!layout_ready_.empty()) layout_ready_[i] = 0;
  task_r_[i] -= util::ReliabilityWeight(instance_->worker(j).confidence);
  if (workers.empty()) {
    --num_nonempty_;
    task_r_[i] = 0.0;  // cancel accumulated rounding noise
  }
  RecomputeTask(i);
}

void AssignmentState::Reset(const Assignment& assignment) {
  assert(assignment.num_workers() == instance_->num_workers());
  assignment_ = Assignment(instance_->num_workers());
  for (auto& v : task_workers_) v.clear();
  for (auto& v : task_obs_) v.clear();
  std::fill(task_r_.begin(), task_r_.end(), 0.0);
  std::fill(task_std_.begin(), task_std_.end(), 0.0);
  std::fill(layout_ready_.begin(), layout_ready_.end(), 0);
  total_std_ = 0.0;
  num_nonempty_ = 0;
  for (WorkerId j = 0; j < assignment.num_workers(); ++j) {
    TaskId i = assignment.TaskOf(j);
    if (i != kNoTask) Add(i, j);
  }
}

void AssignmentState::RecomputeTask(TaskId i) {
  double fresh = ExpectedStd(instance_->task(i), task_obs_[i]);
  total_std_ += fresh - task_std_[i];
  task_std_[i] = fresh;
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

ObjectiveValue AssignmentState::PreviewAdd(TaskId i, WorkerId j) const {
  std::vector<Observation> obs = task_obs_[i];
  obs.push_back(ObservationRowOf(j)[static_cast<size_t>(i)]);
  double new_std = ExpectedStd(instance_->task(i), obs);
  double new_r =
      task_r_[i] + util::ReliabilityWeight(instance_->worker(j).confidence);

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
  std::vector<Observation> obs = task_obs_[i];
  obs.push_back(ObservationRowOf(j)[static_cast<size_t>(i)]);
  return ExpectedStd(instance_->task(i), obs);
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
  const Observation& extra = ObservationRowOf(j)[static_cast<size_t>(i)];
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
