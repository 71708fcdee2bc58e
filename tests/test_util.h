#ifndef RDBSC_TESTS_TEST_UTIL_H_
#define RDBSC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/sampling.h"
#include "gen/workload.h"
#include "gtest/gtest.h"

namespace rdbsc::test {

/// A small random instance for solver tests (sizes keep every solver in
/// milliseconds while still exercising non-trivial candidate graphs).
inline core::Instance SmallInstance(uint64_t seed, int num_tasks = 12,
                                    int num_workers = 30) {
  gen::WorkloadConfig config;
  config.num_tasks = num_tasks;
  config.num_workers = num_workers;
  config.seed = seed;
  // Wide cones and long periods so the candidate graph is dense enough to
  // make assignment choices interesting.
  config.angle_range = 3.14159;
  config.start_min = 0.0;
  config.start_max = 2.0;
  config.rt_min = 2.0;
  config.rt_max = 4.0;
  config.v_min = 0.3;
  config.v_max = 0.6;
  return gen::GenerateInstance(config);
}

/// Asserts that `assignment` only uses valid pairs of `graph` and assigns
/// every worker at most once (the RDB-SC feasibility conditions).
inline void ExpectFeasible(const core::Instance& instance,
                           const core::CandidateGraph& graph,
                           const core::Assignment& assignment) {
  ASSERT_EQ(assignment.num_workers(), instance.num_workers());
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    core::TaskId i = assignment.TaskOf(j);
    if (i == core::kNoTask) continue;
    ASSERT_GE(i, 0);
    ASSERT_LT(i, instance.num_tasks());
    const auto& tasks = graph.TasksOf(j);
    EXPECT_NE(std::find(tasks.begin(), tasks.end(), i), tasks.end())
        << "worker " << j << " assigned to invalid task " << i;
  }
}

/// The non-empty rows of `graph` in ascending worker id: the rows
/// SamplingSolver hands internal::SampleRows.
inline std::vector<core::internal::WorkerRow> DrawingRows(
    const core::CandidateGraph& graph) {
  std::vector<core::internal::WorkerRow> rows;
  for (core::WorkerId j = 0; j < graph.num_workers(); ++j) {
    if (graph.Degree(j) > 0) rows.push_back({j, graph.TasksOf(j)});
  }
  return rows;
}

/// Builds a task with the given diversity weight and period.
inline core::Task MakeTask(double beta = 0.5, double start = 0.0,
                           double end = 1.0) {
  core::Task t;
  t.location = {0.5, 0.5};
  t.start = start;
  t.end = end;
  t.beta = beta;
  return t;
}

/// Builds an observation literal.
inline core::Observation Obs(double angle, double arrival,
                             double confidence) {
  return core::Observation{.angle = angle,
                           .arrival = arrival,
                           .confidence = confidence};
}

}  // namespace rdbsc::test

#endif  // RDBSC_TESTS_TEST_UTIL_H_
