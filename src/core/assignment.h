#ifndef RDBSC_CORE_ASSIGNMENT_H_
#define RDBSC_CORE_ASSIGNMENT_H_

#include <span>
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

  /// Clears every worker's assignment, keeping the worker count.
  void Clear();

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
///
/// Reuse contract: a state emptied by Clear() or re-filled by Reset()
/// behaves bit for bit like a freshly constructed one, so a solver keeps
/// one state per solve (D&C's merge) instead of building one per
/// evaluation. Reset followed by Objectives() is also the oracle of
/// sampling's scorer (internal::SampleScorer), which replays the same
/// floating-point steps from a sample's picks alone. The per-worker
/// reliability weights are computed once, at construction; after warm-up,
/// Add, Remove, Reset, PreviewAdd and PreviewTaskStd allocate nothing once
/// every task has held its largest roster.
class AssignmentState {
 public:
  /// Starts from the empty assignment over `instance` (kept by reference;
  /// must outlive the state).
  explicit AssignmentState(const Instance& instance);

  /// Assigns unassigned worker j to task i.
  void Add(TaskId i, WorkerId j);

  /// Add(i, j) for a caller that already holds ObservationFor(i, j), bit
  /// for bit: the same steps without recomputing the observation.
  void Add(TaskId i, WorkerId j, const Observation& obs);

  /// Removes worker j from its task (no-op when unassigned).
  void Remove(WorkerId j);

  /// Add(i, j) for a caller that already holds ObservationFor(i, j) and the
  /// E[STD(t_i)] of the grown observation list: the same bookkeeping and
  /// the same running-total update, without the O(r^2) ExpectedStd call.
  /// `task_std` must be that ExpectedStd bit for bit.
  void AddKnown(TaskId i, WorkerId j, const Observation& obs,
                double task_std);

  /// Remove(j) for an assigned worker, with the E[STD] of its task's
  /// shrunk observation list supplied (same contract as AddKnown).
  void RemoveKnown(WorkerId j, double task_std);

  /// Replays a whole assignment onto an emptied state: Add(TaskOf(j), j)
  /// for every assigned worker j, in ascending worker order (workers with
  /// kNoTask stay unassigned). The result equals a fresh state's replay.
  void Reset(const Assignment& assignment);

  /// Overwrites the running sums of a caller that replayed AddKnown and
  /// RemoveKnown steps on scalars instead of on this state (D&C's
  /// SA_Merge): task tasks[s]'s reduced reliability and E[STD] become
  /// task_r[s] and task_std[s], and the total E[STD] becomes total_std.
  /// Moves no worker, so the steps must have left every roster as it was.
  /// The caller owns the contract that each value is what those steps
  /// would have left here, rounding drift included.
  void WriteBackSums(std::span<const TaskId> tasks,
                     std::span<const double> task_r,
                     std::span<const double> task_std, double total_std);

  /// Empties the state in O(|tasks| + their rosters), given every task
  /// that holds a worker (a superset, duplicates included, is fine). A
  /// list that misses a non-empty task costs a full O(m) sweep instead.
  void Clear(std::span<const TaskId> tasks);

  /// Reduced reliability R(t_i, W_i) = sum of -ln(1-p) (Eq. 8).
  double TaskReducedReliability(TaskId i) const { return task_r_[i]; }

  /// What Add(i, j) adds to task i's reduced reliability:
  /// util::ReliabilityWeight of worker j's confidence.
  double WorkerWeight(WorkerId j) const { return weight_[j]; }

  /// E[STD(t_i)] for the current worker set of task i.
  double TaskExpectedStd(TaskId i) const { return task_std_[i]; }

  /// Workers currently serving task i.
  const std::vector<WorkerId>& WorkersOf(TaskId i) const {
    return task_workers_[i];
  }

  /// Observations of task i's workers, in WorkersOf(i) order.
  const std::vector<Observation>& TaskObservations(TaskId i) const {
    return task_obs_[i];
  }

  /// The observation Add(i, j) records for worker j on task i
  /// (MakeObservation at the instance's clock and policy). Computed per
  /// call, for the one pair asked: a caller that previews a pair many
  /// times, as greedy does, keeps it.
  Observation ObservationFor(TaskId i, WorkerId j) const;

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

  /// The same for a worker whose ObservationFor(i, j) is `extra`.
  DiversityBounds PreviewTaskStdBounds(TaskId i,
                                       const Observation& extra) const;

  /// Bounds of the current E[STD(t_i)], from the same layout.
  DiversityBounds TaskStdBounds(TaskId i) const;

 private:
  /// Add/Remove minus the E[STD] refresh: list, reliability and layout
  /// bookkeeping only. Detach returns the task the worker left.
  void Attach(TaskId i, WorkerId j, const Observation& obs);
  TaskId Detach(WorkerId j);

  /// Unassigns task i's workers and zeroes its aggregates.
  void ClearTask(TaskId i);

  /// E[STD(t_i)] of task i's roster plus `extra`, built in preview_.
  double PreviewStd(TaskId i, const Observation& extra) const;

  /// Moves task i's E[STD] to `fresh`, updating the running total.
  void SetTaskStd(TaskId i, double fresh);

  /// Task i's BoundsLayout, built on first use. Layouts are lazy: the
  /// constructor, Reset and EvaluateAssignment never build one, so states
  /// that are only replayed and scored (EvaluateAssignment, D&C's final
  /// evaluation) pay nothing. Add() extends a built layout in
  /// O(r); Remove() and Reset() mark it stale for a rebuild on next use.
  const BoundsLayout& LayoutOf(TaskId i) const;

  const Instance* instance_;
  Assignment assignment_;
  std::vector<std::vector<WorkerId>> task_workers_;
  std::vector<std::vector<Observation>> task_obs_;
  std::vector<double> task_r_;
  std::vector<double> task_std_;
  double total_std_ = 0.0;
  int num_nonempty_ = 0;

  /// util::ReliabilityWeight of each worker's confidence.
  std::vector<double> weight_;

  /// The roster-plus-one list the previews score.
  mutable std::vector<Observation> preview_;

  /// Per-task bound layouts; both vectors stay empty until the first
  /// bound call, so states that never preview bounds allocate none.
  /// mutable + unsynchronized: AssignmentState is single-threaded by
  /// design -- every solver owns its states (a greedy leaf's, D&C's merge
  /// state); nothing shares one across threads.
  mutable std::vector<BoundsLayout> layouts_;
  mutable std::vector<uint8_t> layout_ready_;
};

/// Evaluates an assignment's objectives from scratch (convenience wrapper
/// over AssignmentState for one-shot scoring and as a test oracle).
ObjectiveValue EvaluateAssignment(const Instance& instance,
                                  const Assignment& assignment);

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_ASSIGNMENT_H_
