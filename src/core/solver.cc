#include "core/solver.h"

#include <chrono>

namespace rdbsc::core {

util::StatusOr<SolveResult> Solver::Solve(const SolveRequest& request) {
  if (request.instance == nullptr || request.graph == nullptr) {
    return util::Status::InvalidArgument(
        "SolveRequest needs both an instance and a candidate graph");
  }
  if (request.graph->num_workers() != request.instance->num_workers() ||
      request.graph->num_tasks() != request.instance->num_tasks()) {
    return util::Status::InvalidArgument(
        "candidate graph shape does not match the instance");
  }
  util::Executor& executor = util::OrSerial(request.executor);
  const util::Deadline own_deadline(request.budget_seconds, request.cancel);
  const util::Deadline& deadline =
      request.deadline != nullptr ? *request.deadline : own_deadline;
  // The one clock of every solve: SolveImpl does not time itself.
  const auto start = std::chrono::steady_clock::now();
  util::StatusOr<SolveResult> result =
      SolveImpl(*request.instance, *request.graph, deadline, executor,
                request.partial_stats);
  const double wall_seconds = util::SecondsSince(start);
  if (result.ok()) {
    result.value().stats.wall_seconds = wall_seconds;
  } else if (request.partial_stats != nullptr &&
             (result.status().code() == util::StatusCode::kDeadlineExceeded ||
              result.status().code() == util::StatusCode::kCancelled)) {
    request.partial_stats->wall_seconds = wall_seconds;
  }
  return result;
}

util::StatusOr<SolveResult> Solver::Solve(const Instance& instance,
                                          const CandidateGraph& graph) {
  SolveRequest request;
  request.instance = &instance;
  request.graph = &graph;
  return Solve(request);
}

util::Status Solver::BudgetError(const util::Deadline& deadline,
                                 SolveStats stats,
                                 SolveStats* partial_stats) {
  stats.budget_exhausted = true;
  if (partial_stats != nullptr) *partial_stats = stats;
  util::Status status = deadline.Check();
  // The deadline can only have tripped for good (time is monotone and
  // tokens never un-cancel), but guard against a racy re-read anyway.
  if (status.ok()) {
    status = util::Status::DeadlineExceeded("wall-clock budget exhausted");
  }
  return status;
}

}  // namespace rdbsc::core
