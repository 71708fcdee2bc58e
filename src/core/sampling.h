#ifndef RDBSC_CORE_SAMPLING_H_
#define RDBSC_CORE_SAMPLING_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/assignment.h"
#include "core/diversity.h"
#include "core/instance.h"
#include "core/solver.h"
#include "util/deadline.h"
#include "util/executor.h"
#include "util/status.h"

namespace rdbsc::core {

/// RDB-SC_Sampling (Figure 5): draws K random assignments (one uniformly
/// random valid task per worker), ranks them by skyline dominance score
/// over (min reliability, total_STD), and returns the top sample. K is the
/// (epsilon, delta)-bounded K-hat of Section 5.2 unless overridden.
///
/// The body is internal::SampleRows over the graph's non-empty rows; D&C
/// runs the same function on each leaf's rows.
class SamplingSolver : public Solver {
 public:
  explicit SamplingSolver(SolverOptions options = {}) : options_(options) {}

  std::string_view name() const override { return "SAMPLING"; }

 protected:
  util::StatusOr<SolveResult> SolveImpl(const Instance& instance,
                                        const CandidateGraph& graph,
                                        const util::Deadline& deadline,
                                        util::Executor& executor,
                                        SolveStats* partial_stats) override;

 private:
  SolverOptions options_;
};

namespace internal {

/// A drawing worker and its valid tasks (non-empty, ascending), in the
/// caller's instance ids.
struct WorkerRow {
  WorkerId worker;
  std::span<const TaskId> tasks;
};

/// SampleRows' result: the winner's (task, worker) picks in row order, its
/// objectives, and the exact_std_evals and sample_size stats.
struct RowSample {
  std::vector<std::pair<TaskId, WorkerId>> picks;
  ObjectiveValue objectives;
  SolveStats stats;
};

/// Figure 5 over `rows` of `instance`: the body of SamplingSolver and of
/// every D&C leaf. K is the options' K-hat with ln N = sum of ln(row size).
/// All K samples are drawn first, serially, each drawn edge's observation
/// and one-worker E[STD] memoized once; SampleScorer then scores them on
/// `executor`, polling `deadline` between samples, so the result is the
/// same at every executor width. When the deadline trips, fails with its
/// status, `out->stats` holding the evaluations made and samples scored.
util::Status SampleRows(const Instance& instance, std::vector<WorkerRow> rows,
                        const SolverOptions& options,
                        const util::Deadline& deadline,
                        util::Executor& executor, RowSample* out);

/// Sampling's scoring of one sample (Fig. 5, line 8's input), exposed so
/// tests can hold it against AssignmentState::Reset(sample) followed by
/// Objectives(), its oracle.
///
/// A sample gives every row's worker one pick among its valid tasks, named
/// by the pick's memo slot. Score groups the picks by task, stably in row
/// order, and replays per task the floating-point steps Reset's Add
/// sequence takes when the rows are in ascending worker order:
///   - E_k = ExpectedStd of the task's first k workers in row order,
///     E_0 = 0; R = 0.0 + weight + weight + ... in the same order;
///   - total += E_k - E_{k-1}, summed over all workers in row order;
///   - min R over the touched tasks, in probability form (0 and 0 when no
///     row draws).
/// So its objectives equal the replay's bit for bit, while it reads only
/// the sample's picks: no pass over every task or every worker.
///
/// A memo slot holds one drawn edge's task, observation and E_1 (the
/// E[STD] of the one-worker roster it opens), computed once per scorer
/// whichever samples draw the edge. Slots are handed out by MemoSlot,
/// serially, before any Score; Score only reads shared state and is safe
/// to call concurrently, one Scratch per thread.
class SampleScorer {
 public:
  /// Per-thread scratch of Score. Sized for `scorer` at construction, so
  /// Score allocates nothing through it.
  class Scratch {
   public:
    explicit Scratch(const SampleScorer& scorer);

   private:
    friend class SampleScorer;
    std::vector<int> slot_of_task_;  ///< -1 outside the sample being scored
    std::vector<TaskId> task_;       ///< touched tasks, in first-pick order
    std::vector<int> first_;         ///< first drawing row on each
    std::vector<int> last_;          ///< last one, for appending
    std::vector<int> next_;          ///< next drawing row on its task
    std::vector<double> delta_;      ///< E_k - E_{k-1} of each pick
    std::vector<Observation> roster_;
  };

  /// The rows of distinct workers of `instance` (see WorkerRow), and room
  /// for the memos of `max_samples` samples. The instance and the rows'
  /// task spans must outlive the scorer.
  SampleScorer(const Instance& instance, std::vector<WorkerRow> rows,
               int max_samples);

  int num_drawing() const { return static_cast<int>(rows_.size()); }
  /// Row d's worker, and its valid tasks (its pick range).
  WorkerId DrawingWorker(int d) const { return rows_[d].worker; }
  std::span<const TaskId> TasksOf(int d) const { return rows_[d].tasks; }

  /// The memo slot of row d's edge to TasksOf(d)[pick]. The edge's first
  /// call fills the slot, with one ExpectedStd call, which it adds to
  /// *std_evals. Not thread-safe: call it for every pick of every sample
  /// before scoring any.
  uint32_t MemoSlot(int d, uint32_t pick, int64_t* std_evals);

  /// The task of the edge in memo slot `slot`.
  TaskId SlotTask(uint32_t slot) const { return memos_[slot].task; }

  /// The objectives of the sample whose row d picks the edge in slots[d]
  /// (num_drawing() entries). Adds the ExpectedStd calls made, one per
  /// roster prefix of two or more workers, to *std_evals.
  ObjectiveValue Score(std::span<const uint32_t> slots, Scratch& scratch,
                       int64_t* std_evals) const;

 private:
  struct Memo {
    Observation obs;
    double e1;  ///< E[STD] of the one-worker roster
    TaskId task;
  };

  const Instance* instance_;
  std::vector<WorkerRow> rows_;
  /// Per row: its worker's weight (util::ReliabilityWeight) and the edge
  /// index of TasksOf(d)[0].
  std::vector<double> weight_;
  std::vector<int64_t> first_edge_;
  /// Memo slot of each edge (row-major edge index), -1 until drawn.
  /// 4 bytes an edge; the memos themselves exist for drawn edges only.
  std::vector<int32_t> edge_slot_;
  std::vector<Memo> memos_;
  std::vector<Observation> single_;  ///< MemoSlot's one-worker roster
};

}  // namespace internal

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_SAMPLING_H_
