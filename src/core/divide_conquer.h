#ifndef RDBSC_CORE_DIVIDE_CONQUER_H_
#define RDBSC_CORE_DIVIDE_CONQUER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dominance.h"
#include "core/solver.h"

namespace rdbsc::core {

/// RDB-SC_DC (Figures 6-9): recursively bisects the bipartite validity
/// graph with BG_Partition (2-means on task locations, Fig. 7), solves
/// leaf subproblems with SAMPLING (or GREEDY), and reconciles duplicated
/// ("conflicting") workers with SA_Merge (Fig. 9), classifying them into
/// independent (ICW) and dependent (DCW) conflicting workers per Lemmas
/// 6.1-6.2 and enumerating each DCW group's 2^k keep-side combinations.
///
/// The partition phase is serial (it drives the random stream); the leaf
/// subproblems are independent and fan out across the request's executor,
/// each with a seed pre-drawn in recursion order, so parallel runs are
/// bit-identical to serial for a fixed options.seed.
///
/// A subproblem is CSR: its ascending task list, its workers and one flat
/// edge array with per-worker offsets. A split writes each worker's edge
/// span straight into the two children's arrays, each sized once, and a
/// leaf maps a global task id to its local one by binary search in the
/// ascending task list, so neither allocates per worker.
///
/// SA_Merge scores a group's combos on scalars (internal::KeepComboScorer)
/// instead of moving workers between rosters: per touched task its reduced
/// reliability, E[STD] and roster size, plus one running total E[STD],
/// updated by exactly the floating-point steps AddKnown/RemoveKnown apply.
/// Those steps leave rounding drift in the sums, and the drift is the
/// contract: it is written back to the merge state once per group and
/// carried into the next group's combos, as the roster-moving enumeration
/// did, so every decision is bit-identical to it.
///
/// SolveStats gets the merge counters and the three phase times.
class DivideConquerSolver : public Solver {
 public:
  explicit DivideConquerSolver(SolverOptions options = {},
                               std::string name = "D&C")
      : options_(options), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

 protected:
  util::StatusOr<SolveResult> SolveImpl(const Instance& instance,
                                        const CandidateGraph& graph,
                                        const util::Deadline& deadline,
                                        util::Executor& executor,
                                        SolveStats* partial_stats) override;

 private:
  SolverOptions options_;
  std::string name_;
};

/// The paper's ground-truth proxy G-TRUTH: D&C with the embedded sampling
/// budget raised 10x (Section 8.1).
class GroundTruthSolver : public DivideConquerSolver {
 public:
  explicit GroundTruthSolver(SolverOptions options = {})
      : DivideConquerSolver(Boost(options), "G-TRUTH") {}

 private:
  static SolverOptions Boost(SolverOptions options) {
    options.sample_multiplier = std::max(1, options.sample_multiplier) * 10;
    options.max_sample_size = options.max_sample_size * 10;
    return options;
  }
};

namespace internal {

/// SA_Merge's exhaustive scoring of one DCW group (Lemma 6.2), exposed so
/// tests can hold it against the same steps run through AddKnown and
/// RemoveKnown. Reused across groups; one per D&C solve.
///
/// Score enumerates combos in ascending order. Each adds the group's
/// workers in bit order and scores the state, then removes them in bit
/// order. It replays those steps on per-task scalars, not on the state's
/// rosters:
///   - add: r += weight, then total += fresh - cur;
///   - remove: r -= weight, r = 0.0 when the roster is empty again, then
///     total += fresh - cur;
/// where `fresh` is the task's E[STD] after the step, computed once per
/// (task, set of group workers on it) and memoized, and `cur` its E[STD]
/// before. The empty set's value is the state's TaskExpectedStd, which
/// always equals a fresh evaluation of the task's roster. The drifted sums
/// are written back to the state at the end
/// (AssignmentState::WriteBackSums). Commit then adds the chosen combo's
/// workers with AddKnown.
class KeepComboScorer {
 public:
  /// Scratch sized for tasks of an instance of `num_tasks` tasks.
  explicit KeepComboScorer(int num_tasks);

  /// Scores the 2^k keep-side combos of the k = workers.size() conflicting
  /// workers (k <= 31): in combo c, worker b serves side2[b] when bit b is
  /// set and side1[b] otherwise. The group must share no task with any
  /// other unresolved conflict, and no worker of it may be in `state`.
  /// `merge_tasks` lists (a superset of) the tasks holding a worker.
  /// Returns point c = (min reliability over non-empty tasks, total
  /// E[STD]) of combo c, valid until the next call; adds the E[STD]
  /// evaluations made to *std_evals.
  const std::vector<BiPoint>& Score(AssignmentState& state,
                                    std::span<const WorkerId> workers,
                                    std::span<const TaskId> side1,
                                    std::span<const TaskId> side2,
                                    std::span<const TaskId> merge_tasks,
                                    int64_t* std_evals);

  /// Adds the last scored group's workers to `state` as combo `combo`, in
  /// bit order, with AddKnown and the memoized E[STD] values.
  void Commit(AssignmentState& state, uint32_t combo, int64_t* std_evals);

 private:
  struct Slot {
    size_t base;        ///< observations on the task before the group
    int width;          ///< group options landing on the task (d_t)
    size_t memo_begin;  ///< into memo_, 2^width entries
    int count;          ///< roster size in the replayed combo
    uint32_t on;        ///< group options on the task in that combo
  };
  struct Option {
    int slot;
    uint32_t bit;
    double weight;
    Observation obs;
  };

  /// E[STD] of slot s's task holding the group options of `on`: its base
  /// roster plus those workers in ascending bit order, memoized.
  double SlotStd(const AssignmentState& state, int s, uint32_t on,
                 int64_t* std_evals) {
    const double value = memo_[slots_[s].memo_begin + on];
    return std::isnan(value) ? EvaluateSlot(state, s, on, std_evals) : value;
  }
  /// SlotStd's memo miss: computes the value and stores it.
  double EvaluateSlot(const AssignmentState& state, int s, uint32_t on,
                      int64_t* std_evals);

  std::vector<WorkerId> group_;  ///< the last scored group's workers
  std::vector<Slot> slots_;
  /// Per-slot task, reduced reliability and E[STD] of the replay, as the
  /// columns WriteBackSums takes.
  std::vector<TaskId> slot_task_;
  std::vector<double> slot_r_;
  std::vector<double> slot_std_;
  std::vector<Option> options_;  ///< [2 * b + side]
  std::vector<double> memo_;     ///< NaN = not yet evaluated
  std::vector<Observation> scratch_;
  std::vector<BiPoint> points_;
  /// Task -> its slot in the group being scored, -1 elsewhere.
  std::vector<int> slot_of_task_;
};

}  // namespace internal

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_DIVIDE_CONQUER_H_
