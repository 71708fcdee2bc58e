#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/assignment.h"
#include "core/model.h"
#include "workload.h"

namespace rdbsc::perf {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "campus_greedy", "city_dc", "city_stream", "serve_hot"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "campus_greedy") return MakeCampusGreedy();
  if (name == "city_dc") return MakeCityDc();
  if (name == "city_stream") return MakeCityStream();
  if (name == "serve_hot") return MakeServeHot();
  return nullptr;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RunLoop(Phase& phase, double seconds, int64_t min_ops, int64_t max_ops,
             const std::function<void(int64_t)>& op,
             const std::function<void(int64_t)>& between) {
  const Clock::time_point start = Clock::now();
  for (int64_t k = 0; k < max_ops; ++k) {
    if (k >= min_ops && util::SecondsSince(start) >= seconds) break;
    if (between) between(k);
    const Clock::time_point t0 = Clock::now();
    op(k);
    const Clock::time_point t1 = Clock::now();
    phase.op_seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
    phase.op_end.push_back(std::chrono::duration<double>(t1 - start).count());
    if (k + 1 == min_ops) phase.peak_rss_mb = PeakRssMb();
  }
  phase.wall_seconds = util::SecondsSince(start);
}

std::string CheckSolve(const core::Instance& instance,
                       const core::SolveResult& solve) {
  const core::Assignment& assignment = solve.assignment;
  if (assignment.num_workers() != instance.num_workers()) {
    return "assignment covers " + std::to_string(assignment.num_workers()) +
           " workers, instance has " + std::to_string(instance.num_workers());
  }
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    const core::TaskId i = assignment.TaskOf(j);
    if (i == core::kNoTask) continue;
    if (i < 0 || i >= instance.num_tasks()) {
      return "worker " + std::to_string(j) + " assigned to unknown task " +
             std::to_string(i);
    }
    if (!core::IsValidPair(instance.task(i), instance.worker(j),
                           instance.now(), instance.policy())) {
      return "invalid pair (task " + std::to_string(i) + ", worker " +
             std::to_string(j) + ")";
    }
  }
  const core::ObjectiveValue want =
      core::EvaluateAssignment(instance, assignment);
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  if (!close(solve.objectives.total_std, want.total_std) ||
      !close(solve.objectives.min_reliability, want.min_reliability)) {
    return "reported objectives differ from the evaluated assignment";
  }
  return {};
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double MeanOp(const Phase& phase) {
  if (phase.op_seconds.empty()) return 0.0;
  double sum = 0.0;
  for (double seconds : phase.op_seconds) sum += seconds;
  return sum / static_cast<double>(phase.op_seconds.size());
}

void SetCoverage(Phase& phase, double measured_per_op) {
  const double op = MeanOp(phase);
  phase.layers["coverage.op_s"] = op;
  phase.layers["coverage.residual_s"] = op - measured_per_op;
  phase.layers["coverage.residual_frac"] =
      op > 0.0 ? (op - measured_per_op) / op : 0.0;
}

}  // namespace rdbsc::perf
