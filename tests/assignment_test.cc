#include "core/assignment.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "util/math.h"
#include "util/rng.h"

namespace rdbsc::core {
namespace {

TEST(DominatesTest, StrictAndTiedCases) {
  ObjectiveValue a{.min_reliability = 0.9, .total_std = 10.0};
  ObjectiveValue b{.min_reliability = 0.8, .total_std = 9.0};
  ObjectiveValue c{.min_reliability = 0.9, .total_std = 9.0};
  ObjectiveValue d{.min_reliability = 0.8, .total_std = 11.0};
  EXPECT_TRUE(Dominates(a, b));
  EXPECT_TRUE(Dominates(a, c));   // tie on one axis, better on the other
  EXPECT_FALSE(Dominates(b, a));
  EXPECT_FALSE(Dominates(a, a));  // no self-domination
  EXPECT_FALSE(Dominates(a, d));  // incomparable
  EXPECT_FALSE(Dominates(d, a));
}

TEST(AssignmentTest, AssignUnassignRoundTrip) {
  Assignment assignment(5);
  EXPECT_EQ(assignment.TaskOf(2), kNoTask);
  assignment.Assign(2, 7);
  EXPECT_EQ(assignment.TaskOf(2), 7);
  EXPECT_EQ(assignment.NumAssigned(), 1);
  assignment.Unassign(2);
  EXPECT_EQ(assignment.TaskOf(2), kNoTask);
  EXPECT_EQ(assignment.NumAssigned(), 0);
}

TEST(AssignmentTest, TaskGroupsInvertsMapping) {
  Assignment assignment(4);
  assignment.Assign(0, 1);
  assignment.Assign(1, 1);
  assignment.Assign(3, 0);
  auto groups = assignment.TaskGroups(3);
  EXPECT_EQ(groups[0], std::vector<WorkerId>{3});
  EXPECT_EQ(groups[1], (std::vector<WorkerId>{0, 1}));
  EXPECT_TRUE(groups[2].empty());
}

TEST(AssignmentStateTest, EmptyStateObjectives) {
  Instance instance = test::SmallInstance(1);
  AssignmentState state(instance);
  EXPECT_DOUBLE_EQ(state.Objectives().min_reliability, 0.0);
  EXPECT_DOUBLE_EQ(state.Objectives().total_std, 0.0);
  EXPECT_DOUBLE_EQ(state.MinReducedReliabilityAllTasks(), 0.0);
}

TEST(AssignmentStateTest, SingleAddMatchesWorkerConfidence) {
  Instance instance = test::SmallInstance(2);
  AssignmentState state(instance);
  state.Add(0, 0);
  // Only one non-empty task: min reliability equals that worker's p.
  EXPECT_NEAR(state.Objectives().min_reliability,
              instance.worker(0).confidence, 1e-9);
  EXPECT_EQ(state.TaskOf(0), 0);
}

TEST(AssignmentStateTest, AddRemoveIsIdentity) {
  Instance instance = test::SmallInstance(3);
  AssignmentState state(instance);
  state.Add(1, 2);
  state.Add(1, 3);
  double r_before = state.TaskReducedReliability(1);
  double std_before = state.TaskExpectedStd(1);
  double total_before = state.TotalExpectedStd();

  state.Add(1, 4);
  state.Remove(4);

  EXPECT_NEAR(state.TaskReducedReliability(1), r_before, 1e-9);
  EXPECT_NEAR(state.TaskExpectedStd(1), std_before, 1e-9);
  EXPECT_NEAR(state.TotalExpectedStd(), total_before, 1e-9);
  EXPECT_EQ(state.TaskOf(4), kNoTask);
}

TEST(AssignmentStateTest, RemoveLastWorkerZeroesTask) {
  Instance instance = test::SmallInstance(4);
  AssignmentState state(instance);
  state.Add(2, 1);
  state.Remove(1);
  EXPECT_DOUBLE_EQ(state.TaskReducedReliability(2), 0.0);
  EXPECT_DOUBLE_EQ(state.TaskExpectedStd(2), 0.0);
  EXPECT_DOUBLE_EQ(state.Objectives().min_reliability, 0.0);
}

// Property: incremental maintenance equals from-scratch evaluation.
class IncrementalVsScratchTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalVsScratchTest, StateMatchesEvaluateAssignment) {
  Instance instance = test::SmallInstance(GetParam());
  CandidateGraph graph = CandidateGraph::Build(instance);
  util::Rng rng(GetParam() * 100);

  AssignmentState state(instance);
  Assignment assignment(instance.num_workers());
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    const auto& tasks = graph.TasksOf(j);
    if (tasks.empty() || rng.Bernoulli(0.3)) continue;
    TaskId i = tasks[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(tasks.size()) - 1))];
    state.Add(i, j);
    assignment.Assign(j, i);
  }

  ObjectiveValue incremental = state.Objectives();
  ObjectiveValue scratch = EvaluateAssignment(instance, assignment);
  EXPECT_NEAR(incremental.min_reliability, scratch.min_reliability, 1e-9);
  EXPECT_NEAR(incremental.total_std, scratch.total_std, 1e-9);
}

TEST_P(IncrementalVsScratchTest, RandomAddRemoveChurnStaysConsistent) {
  Instance instance = test::SmallInstance(GetParam() + 50);
  CandidateGraph graph = CandidateGraph::Build(instance);
  util::Rng rng(GetParam() * 31);

  AssignmentState state(instance);
  for (int step = 0; step < 200; ++step) {
    WorkerId j = static_cast<WorkerId>(
        rng.UniformInt(0, instance.num_workers() - 1));
    if (state.TaskOf(j) != kNoTask) {
      state.Remove(j);
    } else if (!graph.TasksOf(j).empty()) {
      const auto& tasks = graph.TasksOf(j);
      state.Add(tasks[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(tasks.size()) - 1))],
                j);
    }
  }
  ObjectiveValue incremental = state.Objectives();
  ObjectiveValue scratch = EvaluateAssignment(instance, state.assignment());
  EXPECT_NEAR(incremental.min_reliability, scratch.min_reliability, 1e-9);
  EXPECT_NEAR(incremental.total_std, scratch.total_std, 1e-9);
}

TEST_P(IncrementalVsScratchTest, PreviewAddMatchesCommit) {
  Instance instance = test::SmallInstance(GetParam() + 99);
  CandidateGraph graph = CandidateGraph::Build(instance);
  util::Rng rng(GetParam() * 7);

  AssignmentState state(instance);
  for (int step = 0; step < 30; ++step) {
    WorkerId j = static_cast<WorkerId>(
        rng.UniformInt(0, instance.num_workers() - 1));
    if (state.TaskOf(j) != kNoTask || graph.TasksOf(j).empty()) continue;
    const auto& tasks = graph.TasksOf(j);
    TaskId i = tasks[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(tasks.size()) - 1))];

    ObjectiveValue preview = state.PreviewAdd(i, j);
    double preview_std = state.PreviewTaskStd(i, j);
    state.Add(i, j);
    EXPECT_NEAR(preview.total_std, state.Objectives().total_std, 1e-9);
    EXPECT_NEAR(preview.min_reliability,
                state.Objectives().min_reliability, 1e-9);
    EXPECT_NEAR(preview_std, state.TaskExpectedStd(i), 1e-9);
  }
}

// AddKnown/RemoveKnown, fed the E[STD] of the list they leave behind, must
// keep the same state as Add/Remove bit for bit, running-total drift and
// reduced reliabilities included.
TEST_P(IncrementalVsScratchTest, KnownStdPathMatchesAddRemoveBitForBit) {
  Instance instance = test::SmallInstance(GetParam() + 150);
  CandidateGraph graph = CandidateGraph::Build(instance);
  util::Rng rng(GetParam() * 13);

  AssignmentState plain(instance), known(instance);
  for (int step = 0; step < 200; ++step) {
    WorkerId j = static_cast<WorkerId>(
        rng.UniformInt(0, instance.num_workers() - 1));
    TaskId i = plain.TaskOf(j);
    if (i != kNoTask) {
      std::vector<Observation> shrunk = known.TaskObservations(i);
      const std::vector<WorkerId>& workers = known.WorkersOf(i);
      shrunk.erase(shrunk.begin() +
                   (std::find(workers.begin(), workers.end(), j) -
                    workers.begin()));
      plain.Remove(j);
      known.RemoveKnown(j, ExpectedStd(instance.task(i), shrunk));
    } else if (!graph.TasksOf(j).empty()) {
      const auto& tasks = graph.TasksOf(j);
      i = tasks[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(tasks.size()) - 1))];
      const Observation obs = known.ObservationFor(i, j);
      std::vector<Observation> grown = known.TaskObservations(i);
      grown.push_back(obs);
      plain.Add(i, j);
      known.AddKnown(i, j, obs, ExpectedStd(instance.task(i), grown));
    } else {
      continue;
    }
    ASSERT_EQ(std::bit_cast<uint64_t>(known.TotalExpectedStd()),
              std::bit_cast<uint64_t>(plain.TotalExpectedStd()))
        << "step " << step;
    ASSERT_EQ(std::bit_cast<uint64_t>(known.TaskExpectedStd(i)),
              std::bit_cast<uint64_t>(plain.TaskExpectedStd(i)));
    ASSERT_EQ(std::bit_cast<uint64_t>(known.TaskReducedReliability(i)),
              std::bit_cast<uint64_t>(plain.TaskReducedReliability(i)));
    ASSERT_EQ(known.WorkersOf(i), plain.WorkersOf(i));
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(known.Objectives().min_reliability),
            std::bit_cast<uint64_t>(plain.Objectives().min_reliability));
}

// A SmallInstance reshaped for the bound layouts: tasks cycle through
// beta = 0, 1 and 0.5, and every third worker is a twin of the previous
// one (same spot, speed, check-in and confidence), so rosters carry
// duplicate angles and arrivals.
Instance TwinnedInstance(int seed) {
  Instance base = test::SmallInstance(seed);
  std::vector<Task> tasks = base.tasks();
  std::vector<Worker> workers = base.workers();
  const double betas[] = {0.0, 1.0, 0.5};
  for (size_t i = 0; i < tasks.size(); ++i) tasks[i].beta = betas[i % 3];
  for (size_t j = 2; j < workers.size(); j += 3) workers[j] = workers[j - 1];
  return Instance(std::move(tasks), std::move(workers), base.now(),
                  base.policy());
}

bool SameBits(const DiversityBounds& a, const DiversityBounds& b) {
  return std::bit_cast<uint64_t>(a.lb) == std::bit_cast<uint64_t>(b.lb) &&
         std::bit_cast<uint64_t>(a.ub) == std::bit_cast<uint64_t>(b.ub);
}

// The workers that can serve task i, ascending.
std::vector<WorkerId> WorkersOf(const CandidateGraph& graph, TaskId i) {
  std::vector<WorkerId> workers;
  for (WorkerId j = 0; j < graph.num_workers(); ++j) {
    if (std::ranges::binary_search(graph.TasksOf(j), i)) workers.push_back(j);
  }
  return workers;
}

// TaskStdBounds(i) and PreviewTaskStdBounds(i, j) for every candidate j
// equal ExpectedStdBounds over the roster (plus j) bit for bit.
void ExpectBoundsMatchOracle(const AssignmentState& state,
                             const CandidateGraph& graph, TaskId i) {
  const Instance& instance = state.instance();
  const Task& task = instance.task(i);
  std::vector<Observation> roster;
  for (WorkerId w : state.WorkersOf(i)) {
    roster.push_back(MakeObservation(task, instance.worker(w),
                                     instance.now(), instance.policy()));
  }
  DiversityBounds want = ExpectedStdBounds(task, roster);
  DiversityBounds got = state.TaskStdBounds(i);
  EXPECT_TRUE(SameBits(got, want))
      << "task " << i << " r=" << roster.size() << ": [" << got.lb << ", "
      << got.ub << "] vs [" << want.lb << ", " << want.ub << "]";
  for (WorkerId j : WorkersOf(graph, i)) {
    if (state.TaskOf(j) == i) continue;
    std::vector<Observation> with = roster;
    with.push_back(MakeObservation(task, instance.worker(j), instance.now(),
                                   instance.policy()));
    want = ExpectedStdBounds(task, with);
    got = state.PreviewTaskStdBounds(i, j);
    EXPECT_TRUE(SameBits(got, want))
        << "task " << i << " + worker " << j << " r=" << with.size()
        << ": [" << got.lb << ", " << got.ub << "] vs [" << want.lb << ", "
        << want.ub << "]";
  }
}

TEST_P(IncrementalVsScratchTest, BoundPreviewsMatchOracleBitForBit) {
  Instance instance = TwinnedInstance(GetParam() + 300);
  CandidateGraph graph = CandidateGraph::Build(instance);
  util::Rng rng(GetParam() * 13);
  AssignmentState state(instance);

  // r = 0, 1, 2 on one task, twins included, before any churn.
  TaskId first = kNoTask;
  for (TaskId i = 0; i < instance.num_tasks() && first == kNoTask; ++i) {
    if (WorkersOf(graph, i).size() >= 2) first = i;
  }
  ASSERT_NE(first, kNoTask);
  ExpectBoundsMatchOracle(state, graph, first);
  for (int k = 0; k < 2; ++k) {
    state.Add(first, WorkersOf(graph, first)[static_cast<size_t>(k)]);
    ExpectBoundsMatchOracle(state, graph, first);
  }

  // Churn: Adds extend built layouts, Removes and Resets make them stale;
  // each step re-checks the touched task and one random task.
  for (int step = 0; step < 300; ++step) {
    TaskId touched = kNoTask;
    if (rng.Bernoulli(0.03)) {
      Assignment replay(instance.num_workers());
      for (WorkerId j = 0; j < instance.num_workers(); ++j) {
        const auto& tasks = graph.TasksOf(j);
        if (tasks.empty() || rng.Bernoulli(0.5)) continue;
        replay.Assign(j, tasks[static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(tasks.size()) - 1))]);
      }
      state.Reset(replay);
    } else {
      WorkerId j = static_cast<WorkerId>(
          rng.UniformInt(0, instance.num_workers() - 1));
      if (state.TaskOf(j) != kNoTask) {
        touched = state.TaskOf(j);
        state.Remove(j);
      } else if (!graph.TasksOf(j).empty()) {
        const auto& tasks = graph.TasksOf(j);
        touched = tasks[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(tasks.size()) - 1))];
        state.Add(touched, j);
      }
    }
    if (touched != kNoTask) ExpectBoundsMatchOracle(state, graph, touched);
    ExpectBoundsMatchOracle(
        state, graph,
        static_cast<TaskId>(rng.UniformInt(0, instance.num_tasks() - 1)));
  }
  for (TaskId i = 0; i < instance.num_tasks(); ++i) {
    ExpectBoundsMatchOracle(state, graph, i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalVsScratchTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(AssignmentStateTest, ResetReplaysAssignment) {
  Instance instance = test::SmallInstance(9);
  CandidateGraph graph = CandidateGraph::Build(instance);
  Assignment assignment(instance.num_workers());
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (!graph.TasksOf(j).empty()) {
      assignment.Assign(j, graph.TasksOf(j).front());
    }
  }
  AssignmentState state(instance);
  state.Add(graph.TasksOf(0).empty() ? 0 : graph.TasksOf(0).front(), 0);
  state.Reset(assignment);
  ObjectiveValue scratch = EvaluateAssignment(instance, assignment);
  EXPECT_NEAR(state.Objectives().total_std, scratch.total_std, 1e-9);
  EXPECT_NEAR(state.Objectives().min_reliability, scratch.min_reliability,
              1e-9);
}

// A random assignment over `graph`: each worker takes one of its valid
// tasks with probability 3/4.
Assignment RandomAssignment(const Instance& instance,
                            const CandidateGraph& graph, util::Rng& rng) {
  Assignment assignment(instance.num_workers());
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    const auto& tasks = graph.TasksOf(j);
    if (tasks.empty() || rng.Bernoulli(0.25)) continue;
    assignment.Assign(j, tasks[static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(tasks.size()) - 1))]);
  }
  return assignment;
}

// Everything a replay leaves behind, compared bit for bit.
void ExpectSameStateBits(const AssignmentState& reused,
                         const AssignmentState& fresh, const char* label) {
  const ObjectiveValue a = reused.Objectives();
  const ObjectiveValue b = fresh.Objectives();
  EXPECT_EQ(std::bit_cast<uint64_t>(a.total_std),
            std::bit_cast<uint64_t>(b.total_std))
      << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(a.min_reliability),
            std::bit_cast<uint64_t>(b.min_reliability))
      << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(reused.TotalExpectedStd()),
            std::bit_cast<uint64_t>(fresh.TotalExpectedStd()))
      << label;
  for (TaskId i = 0; i < fresh.instance().num_tasks(); ++i) {
    ASSERT_EQ(reused.WorkersOf(i), fresh.WorkersOf(i)) << label << " " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(reused.TaskExpectedStd(i)),
              std::bit_cast<uint64_t>(fresh.TaskExpectedStd(i)))
        << label << ", task " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(reused.TaskReducedReliability(i)),
              std::bit_cast<uint64_t>(fresh.TaskReducedReliability(i)))
        << label << ", task " << i;
    EXPECT_TRUE(SameBits(reused.TaskStdBounds(i), fresh.TaskStdBounds(i)))
        << label << ", task " << i;
  }
  for (WorkerId j = 0; j < fresh.instance().num_workers(); ++j) {
    ASSERT_EQ(reused.TaskOf(j), fresh.TaskOf(j)) << label << " " << j;
  }
}

// The reuse contract sampling and D&C's merge rely on: after Clear (sparse
// or, for a list that misses a task, the full sweep) or Reset, a state
// that has been churned, previewed and bounded replays an assignment to
// the same bits as a freshly constructed state.
TEST_P(IncrementalVsScratchTest, ReusedStateReplaysBitIdenticalToFresh) {
  Instance instance = test::SmallInstance(GetParam() + 200, 16, 48);
  CandidateGraph graph = CandidateGraph::Build(instance);
  util::Rng rng(GetParam() * 17);

  AssignmentState reused(instance);
  for (int round = 0; round < 6; ++round) {
    // Dirty the state: a replay, churn with the known-STD path, previews
    // and bounds (which build layouts).
    reused.Reset(RandomAssignment(instance, graph, rng));
    for (int step = 0; step < 40; ++step) {
      WorkerId j = static_cast<WorkerId>(
          rng.UniformInt(0, instance.num_workers() - 1));
      if (reused.TaskOf(j) != kNoTask) {
        reused.Remove(j);
      } else if (!graph.TasksOf(j).empty()) {
        TaskId i = graph.TasksOf(j).front();
        reused.PreviewAdd(i, j);
        reused.PreviewTaskStd(i, j);
        reused.PreviewTaskStdBounds(i, j);
        reused.Add(i, j);
        reused.TaskStdBounds(i);
      }
    }

    const Assignment next = RandomAssignment(instance, graph, rng);
    AssignmentState fresh(instance);
    for (WorkerId j = 0; j < instance.num_workers(); ++j) {
      if (next.TaskOf(j) != kNoTask) fresh.Add(next.TaskOf(j), j);
    }

    if (round % 3 == 0) {
      reused.Reset(next);
      ExpectSameStateBits(reused, fresh, "Reset");
      continue;
    }
    // Sparse clear over the non-empty tasks (listed twice), or over a list
    // missing one of them, which must fall back to the full sweep.
    std::vector<TaskId> touched;
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      if (!reused.WorkersOf(i).empty()) touched.push_back(i);
    }
    if (round % 3 == 1) {
      touched.insert(touched.end(), touched.begin(), touched.end());
    } else if (!touched.empty()) {
      touched.pop_back();
    }
    reused.Clear(touched);
    EXPECT_EQ(reused.assignment().NumAssigned(), 0);
    for (WorkerId j = 0; j < instance.num_workers(); ++j) {
      if (next.TaskOf(j) != kNoTask) reused.Add(next.TaskOf(j), j);
    }
    ExpectSameStateBits(reused, fresh, "Clear");
  }
}

}  // namespace
}  // namespace rdbsc::core
