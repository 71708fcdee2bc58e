#ifndef RDBSC_CORE_ASSIGNMENT_H_
#define RDBSC_CORE_ASSIGNMENT_H_

#include <vector>

#include "core/bounds_layout.h"
#include "core/diversity.h"
#include "core/instance.h"
#include "core/model.h"

namespace rdbsc::core {

/// The two RDB-SC optimization goals for one assignment (Definition 4):
/// the minimum task reliability and the summed expected diversity.
struct ObjectiveValue {
  /// min_i rel(t_i, W_i), in probability form, taken over tasks with at
  /// least one assigned worker (the paper's reporting convention; an
  /// instance with no assignment at all scores 0).
  double min_reliability = 0.0;
  /// total_STD = sum_i E[STD(t_i)] (Eq. 7).
  double total_std = 0.0;
};

/// Skyline dominance between objective pairs (Section 4.2): a dominates b
/// when a is no worse in both goals and strictly better in at least one.
bool Dominates(const ObjectiveValue& a, const ObjectiveValue& b);

/// A task-and-worker assignment strategy S: each worker serves at most one
/// task. Plain data; objective bookkeeping lives in AssignmentState.
class Assignment {
 public:
  Assignment() = default;
  explicit Assignment(int num_workers) : worker_task_(num_workers, kNoTask) {}

  /// Task of worker j, or kNoTask.
  TaskId TaskOf(WorkerId j) const { return worker_task_[j]; }

  /// Assigns worker j to task i (overwrites any previous assignment).
  void Assign(WorkerId j, TaskId i) { worker_task_[j] = i; }

  /// Clears worker j's assignment.
  void Unassign(WorkerId j) { worker_task_[j] = kNoTask; }

  int num_workers() const { return static_cast<int>(worker_task_.size()); }

  /// Number of workers with an assigned task.
  int NumAssigned() const;

  /// Inverse view: per-task lists of assigned workers.
  std::vector<std::vector<WorkerId>> TaskGroups(int num_tasks) const;

 private:
  std::vector<TaskId> worker_task_;
};

/// Incrementally maintained objective state for an assignment under
/// construction. Used by every solver: Add() assigns one worker and updates
/// the per-task reduced reliability R (Lemma 4.1) and expected diversity
/// E[STD], plus the global aggregates, in O(r^2) for the touched task only.
class AssignmentState {
 public:
  /// Starts from the empty assignment over `instance` (kept by reference;
  /// must outlive the state).
  explicit AssignmentState(const Instance& instance);

  /// Assigns unassigned worker j to task i.
  void Add(TaskId i, WorkerId j);

  /// Removes worker j from its task (no-op when unassigned).
  void Remove(WorkerId j);

  /// Replays a whole assignment (workers with kNoTask stay unassigned).
  void Reset(const Assignment& assignment);

  /// Reduced reliability R(t_i, W_i) = sum of -ln(1-p) (Eq. 8).
  double TaskReducedReliability(TaskId i) const { return task_r_[i]; }

  /// E[STD(t_i)] for the current worker set of task i.
  double TaskExpectedStd(TaskId i) const { return task_std_[i]; }

  /// Workers currently serving task i.
  const std::vector<WorkerId>& WorkersOf(TaskId i) const {
    return task_workers_[i];
  }

  TaskId TaskOf(WorkerId j) const { return assignment_.TaskOf(j); }

  /// Minimum reduced reliability over ALL tasks (empty tasks count as 0);
  /// this is the greedy algorithm's internal Delta_min_R reference point.
  double MinReducedReliabilityAllTasks() const;

  /// The reported objectives (min reliability over non-empty tasks, in
  /// probability form, and total expected diversity).
  ObjectiveValue Objectives() const;

  double TotalExpectedStd() const { return total_std_; }

  const Assignment& assignment() const { return assignment_; }
  const Instance& instance() const { return *instance_; }

  /// What the objectives would become if worker j were added to task i,
  /// without mutating the state. Cost: O(r_i^2 + m).
  ObjectiveValue PreviewAdd(TaskId i, WorkerId j) const;

  /// E[STD(t_i)] if worker j were added to task i, without mutating the
  /// state. Cost: O(r_i^2); used by the greedy exact-increment step.
  double PreviewTaskStd(TaskId i, WorkerId j) const;

  /// Lower/upper bounds of E[STD(t_i)] if worker j were added; feeds the
  /// Lemma 4.3 pruning. O(r_i) and allocation-free once task i's layout
  /// is built, bit-identical to ExpectedStdBounds.
  DiversityBounds PreviewTaskStdBounds(TaskId i, WorkerId j) const;

  /// Bounds of the current E[STD(t_i)], from the same layout.
  DiversityBounds TaskStdBounds(TaskId i) const;

 private:
  void RecomputeTask(TaskId i);

  /// Task i's BoundsLayout, built on first use. Like the observation rows,
  /// layouts are lazy: the constructor, Reset and EvaluateAssignment never
  /// build one, so states that are only replayed and scored (sampling
  /// builds one per sample) pay nothing. Add() extends a built layout in
  /// O(r); Remove() and Reset() mark it stale for a rebuild on next use.
  const BoundsLayout& LayoutOf(TaskId i) const;

  /// The observation of (task i, worker j): served from the lazily built
  /// per-worker row when one exists, otherwise computed scalar. Rows are
  /// built (whole, through the batched core::ObservationRow kernel over
  /// the instance's SoA task block) by the Preview* entry points, which
  /// solvers call many times per worker and round; the one-shot Add path
  /// never forces a row, so replay-heavy users (Reset, sampling's
  /// EvaluateAssignment) keep their O(1)-observations-per-Add cost.
  /// Bit-identical either way: the row kernel is the scalar sequence.
  Observation ObservationFor(TaskId i, WorkerId j) const;
  const std::vector<Observation>& ObservationRowOf(WorkerId j) const;

  const Instance* instance_;
  Assignment assignment_;
  std::vector<std::vector<WorkerId>> task_workers_;
  std::vector<std::vector<Observation>> task_obs_;
  std::vector<double> task_r_;
  std::vector<double> task_std_;
  double total_std_ = 0.0;
  int num_nonempty_ = 0;

  /// Lazy per-worker observation rows (indexed by worker, then task).
  /// mutable + unsynchronized: AssignmentState is single-threaded by
  /// design -- every solver owns its states per shard (D&C leaves,
  /// sampling evaluations); nothing shares one across threads.
  mutable std::vector<std::vector<Observation>> obs_rows_;
  mutable std::vector<uint8_t> obs_row_ready_;

  /// Per-task bound layouts; both vectors stay empty until the first
  /// bound call, so states that never preview bounds allocate none.
  mutable std::vector<BoundsLayout> layouts_;
  mutable std::vector<uint8_t> layout_ready_;
};

/// Evaluates an assignment's objectives from scratch (convenience wrapper
/// over AssignmentState for one-shot scoring, e.g. of sampling candidates).
ObjectiveValue EvaluateAssignment(const Instance& instance,
                                  const Assignment& assignment);

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_ASSIGNMENT_H_
