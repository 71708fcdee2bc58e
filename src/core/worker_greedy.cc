#include "core/worker_greedy.h"

#include "core/dominance.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/registry.h"
#include "util/math.h"

namespace rdbsc::core {

util::StatusOr<SolveResult> WorkerGreedySolver::SolveImpl(
    const Instance& instance, const CandidateGraph& graph,
    const util::Deadline& deadline, util::Executor& /*executor*/,
    SolveStats* partial_stats) {
  SolveResult result;
  AssignmentState state(instance);

  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (deadline.Exhausted()) {
      return BudgetError(deadline, result.stats, partial_stats);
    }
    const auto& tasks = graph.TasksOf(j);
    if (tasks.empty()) continue;

    // The two smallest task reliabilities, for O(1) Delta_min_R per task.
    double min1 = std::numeric_limits<double>::infinity();
    double min2 = std::numeric_limits<double>::infinity();
    TaskId arg1 = kNoTask;
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      double r = state.TaskReducedReliability(i);
      if (r < min1) {
        min2 = min1;
        min1 = r;
        arg1 = i;
      } else if (r < min2) {
        min2 = r;
      }
    }
    double weight = util::ReliabilityWeight(instance.worker(j).confidence);

    // The worker's locally best task: skyline on (dmr, dstd), then the
    // member dominating the most candidates.
    std::vector<BiPoint> increase_pairs;
    increase_pairs.reserve(tasks.size());
    for (TaskId i : tasks) {
      double excl = (i == arg1) ? min2 : min1;
      double new_min = std::min(excl, state.TaskReducedReliability(i) +
                                          weight);
      double dmr = std::max(0.0, new_min - min1);
      double dstd;
      if (options_.greedy_increment ==
          SolverOptions::GreedyIncrement::kExact) {
        dstd = state.PreviewTaskStd(i, j) - state.TaskExpectedStd(i);
        ++result.stats.exact_std_evals;
      } else {
        // Section 4.3 estimate: optimistic increase from the bounds.
        dstd = std::max(0.0, state.PreviewTaskStdBounds(i, j).ub -
                                 state.TaskStdBounds(i).lb);
      }
      increase_pairs.push_back(BiPoint{dmr, dstd});
    }
    state.Add(tasks[TopDominating(increase_pairs)], j);
  }

  result.assignment = state.assignment();
  result.objectives = state.Objectives();
  return result;
}

namespace internal {

void RegisterWorkerGreedySolver(SolverRegistry& registry) {
  RegisterBuiltin(registry, "worker-greedy", [](const SolverOptions& options) {
    return std::make_unique<WorkerGreedySolver>(options);
  });
}

}  // namespace internal

}  // namespace rdbsc::core
