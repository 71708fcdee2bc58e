#include "core/exact.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "core/dominance.h"
#include "core/registry.h"

namespace rdbsc::core {
namespace {

// Deadline polling granularity of the enumeration walk.
constexpr int64_t kDeadlineStride = 1024;

// Walks every assignment in the population (odometer over the candidate
// lists of connected workers), calling `leaf` with the incrementally
// maintained state at each complete assignment. Polls `deadline` every
// kDeadlineStride assignments; returns false when the walk was cut short.
bool ForEachAssignment(const Instance& instance, const CandidateGraph& graph,
                       const util::Deadline& deadline,
                       const std::function<void(AssignmentState&)>& leaf) {
  std::vector<WorkerId> connected;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (graph.Degree(j) > 0) connected.push_back(j);
  }
  AssignmentState state(instance);
  int64_t visited = 0;
  bool aborted = false;
  std::function<void(size_t)> recurse = [&](size_t depth) {
    if (aborted) return;
    if (depth == connected.size()) {
      if (visited % kDeadlineStride == 0 && deadline.Exhausted()) {
        aborted = true;
        return;
      }
      ++visited;
      leaf(state);
      return;
    }
    WorkerId j = connected[depth];
    for (TaskId i : graph.TasksOf(j)) {
      if (aborted) return;
      state.Add(i, j);
      recurse(depth + 1);
      state.Remove(j);
    }
  };
  recurse(0);
  return !aborted;
}

}  // namespace

int64_t ExactSolver::Population(const CandidateGraph& graph, int64_t cap) {
  int64_t population = 1;
  for (WorkerId j = 0; j < graph.num_workers(); ++j) {
    int degree = graph.Degree(j);
    if (degree == 0) continue;
    if (population > cap / degree) return -1;
    population *= degree;
  }
  return population;
}

util::StatusOr<SolveResult> ExactSolver::SolveImpl(
    const Instance& instance, const CandidateGraph& graph,
    const util::Deadline& deadline, util::Executor& /*executor*/,
    SolveStats* partial_stats) {
  auto t0 = std::chrono::steady_clock::now();
  int64_t population = Population(graph, max_enumeration_);
  if (population < 0) {
    return util::Status::InvalidArgument(
        "assignment population exceeds the EXACT enumeration cap of " +
        std::to_string(max_enumeration_) +
        "; use an approximation solver (sampling/dc) for this instance");
  }

  SolveResult result;
  auto bail = [&]() {
    result.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return BudgetError(deadline, result.stats, partial_stats);
  };

  // Pass 1: objectives of every assignment.
  std::vector<BiPoint> points;
  bool completed =
      ForEachAssignment(instance, graph, deadline,
                        [&](AssignmentState& state) {
                          ObjectiveValue value = state.Objectives();
                          points.push_back(
                              {value.min_reliability, value.total_std});
                        });
  result.stats.exact_std_evals = static_cast<int64_t>(points.size());
  if (!completed) return bail();

  result.assignment = Assignment(instance.num_workers());
  if (points.empty()) {
    result.objectives = ObjectiveValue{};
    return result;
  }
  size_t winner = TopDominating(points);

  // Pass 2: re-walk to the winner and materialize it.
  size_t cursor = 0;
  completed = ForEachAssignment(instance, graph, deadline,
                                [&](AssignmentState& state) {
                                  if (cursor == winner) {
                                    result.assignment = state.assignment();
                                  }
                                  ++cursor;
                                });
  if (!completed) return bail();
  // Fresh evaluation: the DFS's incremental adds/removes accumulate tiny
  // rounding drift that must not leak into the reported optimum.
  result.objectives = EvaluateAssignment(instance, result.assignment);
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

util::StatusOr<std::vector<Assignment>> EnumerateParetoFront(
    const Instance& instance, const CandidateGraph& graph,
    int64_t max_enumeration) {
  if (ExactSolver::Population(graph, max_enumeration) < 0) {
    return util::Status::FailedPrecondition(
        "assignment population exceeds the enumeration cap");
  }
  const util::Deadline unlimited;
  std::vector<BiPoint> points;
  ForEachAssignment(instance, graph, unlimited,
                    [&](AssignmentState& state) {
                      ObjectiveValue value = state.Objectives();
                      points.push_back(
                          {value.min_reliability, value.total_std});
                    });
  if (points.empty()) return std::vector<Assignment>{};

  std::vector<size_t> skyline = SkylineIndices(points);
  // Deduplicate by objective value: identical points are the same front
  // vertex realized by different assignments; keep the first.
  std::vector<size_t> unique;
  for (size_t s : skyline) {
    bool duplicate = false;
    for (size_t u : unique) {
      if (points[u].x == points[s].x && points[u].y == points[s].y) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) unique.push_back(s);
  }
  std::sort(unique.begin(), unique.end());

  std::vector<Assignment> front;
  size_t cursor = 0;
  size_t next = 0;
  ForEachAssignment(instance, graph, unlimited,
                    [&](AssignmentState& state) {
                      if (next < unique.size() && cursor == unique[next]) {
                        front.push_back(state.assignment());
                        ++next;
                      }
                      ++cursor;
                    });
  return front;
}

namespace internal {

void RegisterExactSolver(SolverRegistry& registry) {
  RegisterBuiltin(registry, "exact", [](const SolverOptions& options) {
    return std::make_unique<ExactSolver>(options);
  });
}

}  // namespace internal

}  // namespace rdbsc::core
