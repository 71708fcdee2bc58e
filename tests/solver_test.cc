#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "core/divide_conquer.h"
#include "core/greedy.h"
#include "core/sampling.h"
#include "core/worker_greedy.h"
#include "gen/workload.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rdbsc::core {
namespace {

using test::ExpectFeasible;
using test::SmallInstance;

// ---------- GREEDY ----------

TEST(GreedyTest, AssignsEveryConnectedWorker) {
  Instance instance = SmallInstance(1);
  CandidateGraph graph = CandidateGraph::Build(instance);
  GreedySolver solver;
  SolveResult result = solver.Solve(instance, graph).value();
  ExpectFeasible(instance, graph, result.assignment);
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (graph.Degree(j) > 0) {
      EXPECT_NE(result.assignment.TaskOf(j), kNoTask)
          << "connected worker " << j << " left unassigned";
    } else {
      EXPECT_EQ(result.assignment.TaskOf(j), kNoTask);
    }
  }
}

TEST(GreedyTest, ObjectivesMatchReevaluation) {
  Instance instance = SmallInstance(2);
  CandidateGraph graph = CandidateGraph::Build(instance);
  GreedySolver solver;
  SolveResult result = solver.Solve(instance, graph).value();
  ObjectiveValue check = EvaluateAssignment(instance, result.assignment);
  EXPECT_NEAR(result.objectives.min_reliability, check.min_reliability, 1e-9);
  EXPECT_NEAR(result.objectives.total_std, check.total_std, 1e-9);
}

TEST(GreedyTest, DeterministicAcrossRuns) {
  Instance instance = SmallInstance(3);
  CandidateGraph graph = CandidateGraph::Build(instance);
  GreedySolver a, b;
  SolveResult ra = a.Solve(instance, graph).value();
  SolveResult rb = b.Solve(instance, graph).value();
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_EQ(ra.assignment.TaskOf(j), rb.assignment.TaskOf(j));
  }
}

// Property: the Lemma 4.3 pruning must not change greedy's answer, only
// skip exact evaluations.
class GreedyPruningTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyPruningTest, PruningPreservesResult) {
  Instance instance = SmallInstance(GetParam(), /*num_tasks=*/8,
                                    /*num_workers=*/24);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions with, without;
  with.use_pruning = true;
  with.greedy_increment = SolverOptions::GreedyIncrement::kExact;
  without = with;
  without.use_pruning = false;
  GreedySolver pruned(with), plain(without);
  SolveResult rp = pruned.Solve(instance, graph).value();
  SolveResult rn = plain.Solve(instance, graph).value();
  EXPECT_NEAR(rp.objectives.total_std, rn.objectives.total_std, 1e-9);
  EXPECT_NEAR(rp.objectives.min_reliability, rn.objectives.min_reliability,
              1e-9);
  EXPECT_LE(rp.stats.exact_std_evals, rn.stats.exact_std_evals);
}

TEST_P(GreedyPruningTest, ExactIncrementsAtLeastAsGoodAsBounds) {
  // The Section 4.3 bound estimates trade diversity for speed; the exact
  // variant must never do worse on the instances it fully re-optimizes.
  Instance instance = SmallInstance(GetParam() + 200, /*num_tasks=*/8,
                                    /*num_workers=*/32);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions bounds, exact;
  bounds.greedy_increment = SolverOptions::GreedyIncrement::kBounds;
  exact.greedy_increment = SolverOptions::GreedyIncrement::kExact;
  double std_bounds =
      GreedySolver(bounds).Solve(instance, graph).value().objectives.total_std;
  double std_exact =
      GreedySolver(exact).Solve(instance, graph).value().objectives.total_std;
  // Not a theorem pointwise, but holds with margin on these instances.
  EXPECT_GE(std_exact, std_bounds * 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyPruningTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(GreedyTest, EmptyInstance) {
  Instance instance({}, {});
  CandidateGraph graph = CandidateGraph::Build(instance);
  GreedySolver solver;
  SolveResult result = solver.Solve(instance, graph).value();
  EXPECT_EQ(result.assignment.NumAssigned(), 0);
  EXPECT_DOUBLE_EQ(result.objectives.total_std, 0.0);
}

TEST(GreedyTest, NoValidPairs) {
  // One far-away slow worker that cannot reach the task in time.
  Task t = test::MakeTask(0.5, 0.0, 0.01);
  t.location = {0.0, 0.0};
  Worker w;
  w.location = {1.0, 1.0};
  w.velocity = 0.01;
  Instance instance({t}, {w});
  CandidateGraph graph = CandidateGraph::Build(instance);
  EXPECT_EQ(graph.NumEdges(), 0);
  GreedySolver solver;
  SolveResult result = solver.Solve(instance, graph).value();
  EXPECT_EQ(result.assignment.NumAssigned(), 0);
}

// ---------- GREEDY golden decisions ----------

// Six tasks and three crowds of eight workers. Crowd members share spot,
// speed and confidence, so they observe a shared task identically and
// greedy's (dmr, dstd) increase pairs tie exactly. Odd members only look
// east, so which twin wins a tie changes what is left for later rounds.
Instance CoLocatedInstance() {
  std::vector<Task> tasks;
  for (int k = 0; k < 6; ++k) {
    Task t = test::MakeTask(k % 3 == 0 ? 1.0 : (k % 3 == 1 ? 0.0 : 0.5), 0.0,
                            4.0 + k);
    t.location = {0.30 + 0.08 * k, 0.50 + 0.06 * (k % 2)};
    tasks.push_back(t);
  }
  const geo::Point spots[] = {{0.25, 0.30}, {0.55, 0.75}, {0.80, 0.40}};
  const double confidences[] = {0.9, 0.93, 0.96};
  std::vector<Worker> workers;
  for (int crowd = 0; crowd < 3; ++crowd) {
    for (int member = 0; member < 8; ++member) {
      Worker w;
      w.location = spots[crowd];
      w.velocity = 0.5;
      w.confidence = confidences[crowd];
      if (member % 2 == 1) {
        w.direction = geo::AngularInterval(-std::numbers::pi / 2,
                                           std::numbers::pi / 2);
      }
      workers.push_back(w);
    }
  }
  return Instance(std::move(tasks), std::move(workers));
}

// Assignment hash and objective bit patterns.
std::string DecisionDigest(const SolveResult& result) {
  uint64_t assignment = 0;
  for (WorkerId j = 0; j < result.assignment.num_workers(); ++j) {
    assignment = util::HashCombine(
        assignment, static_cast<uint64_t>(result.assignment.TaskOf(j) + 1));
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%016llx %016llx %016llx",
                static_cast<unsigned long long>(assignment),
                static_cast<unsigned long long>(
                    std::bit_cast<uint64_t>(result.objectives.min_reliability)),
                static_cast<unsigned long long>(
                    std::bit_cast<uint64_t>(result.objectives.total_std)));
  return buf;
}

// The decision digest plus the pruning count.
std::string GreedyDigest(const SolveResult& result) {
  return DecisionDigest(result) + " " +
         std::to_string(result.stats.pruned_pairs);
}

struct GreedyGolden {
  const char* instance;
  const char* mode;
  const char* digest;
};

// Captured from the Figure 3 reference loop, which re-sorted every alive
// pair by dmr each round; a tie between identical increase pairs goes to
// the first one in that std::sort order, not to the lowest pair index.
constexpr GreedyGolden kGreedyGolden[] = {
    {"table2-1", "bounds",
     "c4a7fc022a129add 3fed811c697d452a 4020e41d70dbdf25 675"},
    {"table2-1", "bounds-noprune",
     "c4a7fc022a129add 3fed811c697d452a 4020e41d70dbdf25 0"},
    {"table2-1", "exact",
     "349500d7d6380525 3fed811c697d452a 4021c32e2b0408b8 631"},
    {"table2-2", "bounds",
     "8af7330942fddde8 3fed526d5202c73b 4025324f81d10aad 1029"},
    {"table2-2", "bounds-noprune",
     "8af7330942fddde8 3fed526d5202c73b 4025324f81d10aad 0"},
    {"table2-2", "exact",
     "a610fdb92da0e536 3fed526d5202c73b 40255c366446cc45 960"},
    {"table2-3", "bounds",
     "def6f7ed1f454543 3fed185f49573e33 4029a296b6ae712f 1369"},
    {"table2-3", "bounds-noprune",
     "def6f7ed1f454543 3fed185f49573e33 4029a296b6ae712f 0"},
    {"table2-3", "exact",
     "db2fb532ccb51a68 3fed185f49573e33 402a84f1781cd51a 1252"},
    {"dense-7", "bounds",
     "17ea54932529a087 3fed6d9daa94ddb8 401ee0e9d5108fe5 2101"},
    {"dense-7", "bounds-noprune",
     "17ea54932529a087 3fed6d9daa94ddb8 401ee0e9d5108fe5 0"},
    {"dense-7", "exact",
     "249d94cfaabc0d15 3fed7bf373c3f5f0 402720922ba8167e 1670"},
    {"colocated", "bounds",
     "0d2c069e39830e5f 3fedc28f5c28f5c3 3ffb2edd9666a198 790"},
    {"colocated", "bounds-noprune",
     "de595b1a7cf877bd 3fedc28f5c28f5c3 3ffb2edd9666a196 0"},
    {"colocated", "exact",
     "883ac95c3a6bb41a 3feffffbe3bba6b5 4004481d04760497 523"},
};

TEST(GreedyGoldenTest, DecisionsMatchReferenceLoop) {
  for (const GreedyGolden& golden : kGreedyGolden) {
    std::string name = golden.instance;
    Instance instance;
    if (name == "colocated") {
      instance = CoLocatedInstance();
    } else if (name == "dense-7") {
      instance = SmallInstance(7, /*num_tasks=*/20, /*num_workers=*/60);
    } else {
      gen::WorkloadConfig config;  // Table 2 defaults, scaled down
      config.num_tasks = 40;
      config.num_workers = 160;
      config.start_max = 4.0;
      config.seed = static_cast<uint64_t>(name.back() - '0');
      instance = gen::GenerateInstance(config);
    }
    CandidateGraph graph = CandidateGraph::Build(instance);
    std::string mode = golden.mode;
    SolverOptions options;
    options.use_pruning = mode != "bounds-noprune";
    options.greedy_increment = mode == "exact"
                                   ? SolverOptions::GreedyIncrement::kExact
                                   : SolverOptions::GreedyIncrement::kBounds;
    SolveResult result = GreedySolver(options).Solve(instance, graph).value();
    EXPECT_EQ(GreedyDigest(result), golden.digest)
        << name << " " << mode << " (" << graph.NumEdges() << " edges)";
  }
}

// ---------- Worker-order GREEDY (Section 8.1 variant) ----------

TEST(WorkerGreedyTest, FeasibleAndAssignsConnectedWorkers) {
  Instance instance = SmallInstance(41);
  CandidateGraph graph = CandidateGraph::Build(instance);
  WorkerGreedySolver solver;
  SolveResult result = solver.Solve(instance, graph).value();
  ExpectFeasible(instance, graph, result.assignment);
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_EQ(result.assignment.TaskOf(j) != kNoTask, graph.Degree(j) > 0);
  }
}

TEST(WorkerGreedyTest, DeterministicAndConsistentObjectives) {
  Instance instance = SmallInstance(42);
  CandidateGraph graph = CandidateGraph::Build(instance);
  WorkerGreedySolver a, b;
  SolveResult ra = a.Solve(instance, graph).value();
  SolveResult rb = b.Solve(instance, graph).value();
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_EQ(ra.assignment.TaskOf(j), rb.assignment.TaskOf(j));
  }
  ObjectiveValue check = EvaluateAssignment(instance, ra.assignment);
  EXPECT_NEAR(ra.objectives.total_std, check.total_std, 1e-9);
}

// ---------- SAMPLING ----------

TEST(SamplingTest, FeasibleAndDeterministic) {
  Instance instance = SmallInstance(4);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions options;
  options.seed = 99;
  SamplingSolver a(options), b(options);
  SolveResult ra = a.Solve(instance, graph).value();
  SolveResult rb = b.Solve(instance, graph).value();
  ExpectFeasible(instance, graph, ra.assignment);
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_EQ(ra.assignment.TaskOf(j), rb.assignment.TaskOf(j));
  }
}

TEST(SamplingTest, AssignsEveryConnectedWorker) {
  Instance instance = SmallInstance(5);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SamplingSolver solver;
  SolveResult result = solver.Solve(instance, graph).value();
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_EQ(result.assignment.TaskOf(j) != kNoTask, graph.Degree(j) > 0);
  }
}

TEST(SamplingTest, BestSampleDominatesOrTiesSingleSample) {
  Instance instance = SmallInstance(6);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions one_options;
  one_options.fixed_sample_size = 1;
  one_options.min_sample_size = 1;
  SolverOptions many_options;
  many_options.fixed_sample_size = 64;
  many_options.seed = one_options.seed;
  SamplingSolver one(one_options), many(many_options);
  ObjectiveValue v1 = one.Solve(instance, graph).value().objectives;
  ObjectiveValue v64 = many.Solve(instance, graph).value().objectives;
  // The 64-sample best is the single sample or something ranked better;
  // it can never be dominated by the first sample.
  EXPECT_FALSE(Dominates(v1, v64));
}

// The winning sample's objectives come from the sample scorer, which
// reads each drawn edge's observation and one-worker E[STD] from per-edge
// memos; with one sample or 64, on graphs of a few edges a worker, they
// must be the bits of a fresh evaluation, which computes everything
// itself.
TEST(SamplingTest, ObjectivesEqualFreshEvaluationBitForBit) {
  for (uint64_t seed : {4, 5, 6}) {
    Instance instance = SmallInstance(seed, /*num_tasks=*/12,
                                      /*num_workers=*/30);
    CandidateGraph graph = CandidateGraph::Build(instance);
    ASSERT_GT(graph.NumEdges(), instance.num_workers())
        << "denser than one edge a worker";
    ASSERT_LE(graph.NumEdges(), 64 * instance.num_workers() / 4)
        << "sparser than 64 edges for each of a quarter of the workers";
    for (int samples : {1, 64}) {
      SolverOptions options;
      options.seed = seed;
      options.fixed_sample_size = samples;
      options.min_sample_size = 1;
      const SolveResult result =
          SamplingSolver(options).Solve(instance, graph).value();
      const ObjectiveValue fresh =
          EvaluateAssignment(instance, result.assignment);
      EXPECT_EQ(std::bit_cast<uint64_t>(result.objectives.total_std),
                std::bit_cast<uint64_t>(fresh.total_std))
          << "seed " << seed << ", " << samples << " samples";
      EXPECT_EQ(std::bit_cast<uint64_t>(result.objectives.min_reliability),
                std::bit_cast<uint64_t>(fresh.min_reliability))
          << "seed " << seed << ", " << samples << " samples";
    }
  }
}

// ---------- SAMPLING's scorer against its oracle ----------

// Draws `samples` random samples of `graph`, scores each with
// internal::SampleScorer and with its oracle, AssignmentState::Reset
// followed by Objectives(), and expects the same bits. Also checks the
// drawing-worker list and the ExpectedStd count Score reports: one call
// per worker beyond the first on each task. Returns the largest roster
// seen.
size_t ExpectScorerMatchesReplay(const Instance& instance,
                                 const CandidateGraph& graph, uint64_t seed,
                                 int samples) {
  internal::SampleScorer scorer(instance, test::DrawingRows(graph),
                                samples);
  std::vector<WorkerId> drawing;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (graph.Degree(j) > 0) drawing.push_back(j);
  }
  EXPECT_EQ(scorer.num_drawing(), static_cast<int>(drawing.size()));
  if (scorer.num_drawing() != static_cast<int>(drawing.size())) return 0;
  for (int d = 0; d < scorer.num_drawing(); ++d) {
    EXPECT_EQ(scorer.DrawingWorker(d), drawing[d]);
  }

  // Each sample as an assignment (the oracle's input) and as memo slots
  // (the scorer's), all memoized before the first score.
  util::Rng rng(seed);
  std::vector<Assignment> assignments;
  std::vector<std::vector<uint32_t>> slots(static_cast<size_t>(samples));
  int64_t memo_evals = 0;
  for (std::vector<uint32_t>& sample : slots) {
    Assignment& assignment = assignments.emplace_back(instance.num_workers());
    for (int d = 0; d < scorer.num_drawing(); ++d) {
      const auto pick = static_cast<uint32_t>(rng.UniformInt(
          0, static_cast<int64_t>(scorer.TasksOf(d).size()) - 1));
      assignment.Assign(drawing[d], scorer.TasksOf(d)[pick]);
      sample.push_back(scorer.MemoSlot(d, pick, &memo_evals));
      EXPECT_EQ(scorer.PickOf(d, sample.back()).task,
                scorer.TasksOf(d)[pick]);
      EXPECT_EQ(scorer.PickOf(d, sample.back()).worker, drawing[d]);
    }
  }
  EXPECT_LE(memo_evals, graph.NumEdges());

  internal::SampleScorer::Scratch scratch(scorer);
  AssignmentState state(instance);
  size_t largest_roster = 0;
  for (size_t h = 0; h < slots.size(); ++h) {
    state.Reset(assignments[h]);
    const ObjectiveValue oracle = state.Objectives();
    int64_t evals = 0;
    const ObjectiveValue scored = scorer.Score(slots[h], scratch, &evals);
    EXPECT_EQ(std::bit_cast<uint64_t>(scored.total_std),
              std::bit_cast<uint64_t>(oracle.total_std))
        << "seed " << seed << ", sample " << h;
    EXPECT_EQ(std::bit_cast<uint64_t>(scored.min_reliability),
              std::bit_cast<uint64_t>(oracle.min_reliability))
        << "seed " << seed << ", sample " << h;
    int64_t nonempty = 0;
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      nonempty += !state.WorkersOf(i).empty();
      largest_roster = std::max(largest_roster, state.WorkersOf(i).size());
    }
    EXPECT_EQ(evals, static_cast<int64_t>(drawing.size()) - nonempty)
        << "seed " << seed << ", sample " << h;
  }
  return largest_roster;
}

// A graph over `instance` in which worker j has no edge when
// j % zero_every == 1 (degree-0 workers between drawing ones), and
// otherwise a random non-empty subset of the tasks. The state and the
// scorer score any (task, worker) pair, so validity does not matter.
CandidateGraph RandomGraph(const Instance& instance, util::Rng& rng,
                           int zero_every) {
  std::vector<std::vector<TaskId>> edges(
      static_cast<size_t>(instance.num_workers()));
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (j % zero_every == 1) continue;
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      if (rng.Uniform(0.0, 1.0) < 0.5) edges[j].push_back(i);
    }
    if (edges[j].empty()) {
      edges[j].push_back(static_cast<TaskId>(
          rng.UniformInt(0, instance.num_tasks() - 1)));
    }
  }
  return CandidateGraph::FromEdges(instance, std::move(edges));
}

TEST(SampleScorerTest, MatchesStateReplayOnRandomInstances) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    const Instance sparse = SmallInstance(seed, /*num_tasks=*/12,
                                          /*num_workers=*/40);
    ExpectScorerMatchesReplay(sparse, CandidateGraph::Build(sparse), seed,
                              40);
    // Few tasks and many workers: rosters of a dozen and more.
    const Instance dense = SmallInstance(seed + 100, /*num_tasks=*/5,
                                         /*num_workers=*/70);
    util::Rng rng(seed);
    EXPECT_GT(ExpectScorerMatchesReplay(dense, RandomGraph(dense, rng, 1000),
                                        seed, 40),
              10u);
  }
}

// Degree-0 workers between drawing ones are not drawing workers: the
// scorer skips them, and the replay leaves them unassigned.
TEST(SampleScorerTest, MatchesStateReplayWithDegreeZeroWorkersBetween) {
  for (uint64_t seed : {7, 8, 9}) {
    const Instance instance = SmallInstance(seed, /*num_tasks=*/6,
                                            /*num_workers=*/50);
    util::Rng rng(seed);
    const CandidateGraph graph = RandomGraph(instance, rng, 3);
    ASSERT_EQ(graph.Degree(1), 0);
    ASSERT_GT(graph.Degree(2), 0);
    ExpectScorerMatchesReplay(instance, graph, seed, 40);
  }
}

// Workers at three shared sites with one velocity: on each task their
// approach angles and arrivals tie, site by site, and rosters hold more
// than 16 workers, where ExpectedStd's std::sort (introsort) orders the
// ties by their position in the roster. The scorer must hand it the
// roster in the replay's order.
TEST(SampleScorerTest, MatchesStateReplayOnSharedSitesWithTies) {
  util::Rng rng(17);
  std::vector<Task> tasks;
  for (int i = 0; i < 3; ++i) {
    Task t = test::MakeTask(0.5, 0.0, 2.0 + i);
    t.location = {0.3 + 0.2 * i, 0.5};
    tasks.push_back(t);
  }
  const geo::Point sites[] = {{0.1, 0.1}, {0.9, 0.2}, {0.5, 0.9}};
  std::vector<Worker> workers;
  for (int j = 0; j < 90; ++j) {
    Worker w;
    w.location = sites[j % 3];
    w.velocity = 0.5;
    w.confidence = rng.Uniform(0.5, 0.99);
    workers.push_back(w);
  }
  const Instance instance(std::move(tasks), std::move(workers));
  const CandidateGraph graph = CandidateGraph::FromEdges(
      instance, std::vector<std::vector<TaskId>>(90, {0, 1, 2}));
  for (uint64_t seed : {1, 2, 3}) {
    EXPECT_GT(ExpectScorerMatchesReplay(instance, graph, seed, 30),
              internal::kInsertionSortMax);
  }
}

// No worker draws: every sample is empty and scores 0 and 0, as the
// replay of an empty assignment does.
TEST(SampleScorerTest, MatchesStateReplayWhenNoWorkerDraws) {
  const Instance instance = SmallInstance(3, /*num_tasks=*/5,
                                          /*num_workers=*/8);
  const CandidateGraph graph = CandidateGraph::FromEdges(
      instance, std::vector<std::vector<TaskId>>(8));
  ExpectScorerMatchesReplay(instance, graph, 1, 3);
  internal::SampleScorer scorer(instance, test::DrawingRows(graph), 1);
  internal::SampleScorer::Scratch scratch(scorer);
  int64_t evals = 0;
  const ObjectiveValue value = scorer.Score({}, scratch, &evals);
  EXPECT_EQ(value.total_std, 0.0);
  EXPECT_EQ(value.min_reliability, 0.0);
  EXPECT_EQ(evals, 0);
}

// ---------- D&C's leaf rows against SAMPLING on a local instance ----------

// A D&C-shaped leaf of `instance`: an ascending task subset, the workers
// with an edge into it (ascending) and each one's edges restricted to it,
// in instance ids.
struct LeafRows {
  std::vector<TaskId> tasks;
  std::vector<WorkerId> workers;
  std::vector<std::vector<TaskId>> edges;
};

// The leaf of `graph` over `tasks`, keeping only its first `max_workers`
// workers.
LeafRows LeafOf(const CandidateGraph& graph, std::vector<TaskId> tasks,
                size_t max_workers) {
  LeafRows leaf;
  leaf.tasks = std::move(tasks);
  for (WorkerId j = 0; j < graph.num_workers(); ++j) {
    std::vector<TaskId> row;
    for (TaskId i : graph.TasksOf(j)) {
      if (std::ranges::binary_search(leaf.tasks, i)) row.push_back(i);
    }
    if (row.empty() || leaf.workers.size() == max_workers) continue;
    leaf.workers.push_back(j);
    leaf.edges.push_back(std::move(row));
  }
  return leaf;
}

// internal::SampleRows on the leaf's rows, in instance ids, against the
// path it replaced: SamplingSolver on a local instance of the leaf's tasks
// and workers, whose local ids are ranks in the leaf's lists, and a graph
// of the rows mapped into them. Expects the same picks (mapped back),
// objective bits, exact_std_evals and sample_size -- or, when `deadline`
// trips, the same status and partial counters.
void ExpectRowsMatchLocalSolve(const Instance& instance, const LeafRows& leaf,
                               const SolverOptions& options,
                               const util::Deadline& deadline,
                               util::Executor* executor,
                               const std::string& where) {
  std::vector<Task> tasks;
  for (TaskId i : leaf.tasks) tasks.push_back(instance.task(i));
  std::vector<Worker> workers;
  for (WorkerId j : leaf.workers) workers.push_back(instance.worker(j));
  const Instance local(std::move(tasks), std::move(workers), instance.now(),
                       instance.policy());
  std::vector<std::vector<TaskId>> local_edges;
  for (const std::vector<TaskId>& row : leaf.edges) {
    std::vector<TaskId>& local_row = local_edges.emplace_back();
    for (TaskId i : row) {
      local_row.push_back(static_cast<TaskId>(
          std::ranges::lower_bound(leaf.tasks, i) - leaf.tasks.begin()));
    }
  }
  const CandidateGraph local_graph =
      CandidateGraph::FromEdges(local, local_edges);
  SolveStats partial;
  SolveRequest request;
  request.instance = &local;
  request.graph = &local_graph;
  request.deadline = &deadline;
  request.partial_stats = &partial;
  request.executor = executor;
  const util::StatusOr<SolveResult> want =
      SamplingSolver(options).Solve(request);

  std::vector<internal::WorkerRow> rows;
  for (size_t k = 0; k < leaf.workers.size(); ++k) {
    rows.push_back({leaf.workers[k], leaf.edges[k]});
  }
  internal::RowSample got;
  const util::Status status =
      internal::SampleRows(instance, std::move(rows), options, deadline,
                           util::OrSerial(executor), &got);
  ASSERT_EQ(status.code(), want.status().code()) << where;
  if (!status.ok()) {
    EXPECT_EQ(got.stats.exact_std_evals, partial.exact_std_evals) << where;
    EXPECT_EQ(got.stats.sample_size, partial.sample_size) << where;
    return;
  }
  const SolveResult& solved = want.value();
  std::vector<std::pair<TaskId, WorkerId>> picks;
  for (WorkerId lj = 0; lj < local.num_workers(); ++lj) {
    const TaskId li = solved.assignment.TaskOf(lj);
    if (li != kNoTask) picks.emplace_back(leaf.tasks[li], leaf.workers[lj]);
  }
  std::vector<std::pair<TaskId, WorkerId>> got_pairs;
  for (const internal::DrawnPick& pick : got.picks) {
    got_pairs.emplace_back(pick.task, pick.worker);
  }
  EXPECT_EQ(got_pairs, picks) << where;
  // The evidence each pick carries up a D&C tree is what the merge state
  // would compute for the pair, bit for bit.
  const AssignmentState fresh(instance);
  for (const internal::DrawnPick& pick : got.picks) {
    const Observation obs = fresh.ObservationFor(pick.task, pick.worker);
    const std::string edge = where + ", edge (" + std::to_string(pick.task) +
                             ", " + std::to_string(pick.worker) + ")";
    EXPECT_EQ(std::bit_cast<uint64_t>(pick.obs.angle),
              std::bit_cast<uint64_t>(obs.angle))
        << edge;
    EXPECT_EQ(std::bit_cast<uint64_t>(pick.obs.arrival),
              std::bit_cast<uint64_t>(obs.arrival))
        << edge;
    EXPECT_EQ(std::bit_cast<uint64_t>(pick.obs.confidence),
              std::bit_cast<uint64_t>(obs.confidence))
        << edge;
    EXPECT_EQ(std::bit_cast<uint64_t>(pick.e1),
              std::bit_cast<uint64_t>(
                  ExpectedStd(instance.task(pick.task), {obs})))
        << edge;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(got.objectives.total_std),
            std::bit_cast<uint64_t>(solved.objectives.total_std))
      << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.objectives.min_reliability),
            std::bit_cast<uint64_t>(solved.objectives.min_reliability))
      << where;
  EXPECT_EQ(got.stats.exact_std_evals, solved.stats.exact_std_evals) << where;
  EXPECT_EQ(got.stats.sample_size, solved.stats.sample_size) << where;
}

// Random leaves of random instances: task subsets of 1 to 8 of 30 tasks,
// all their workers or just one, serially and on two threads.
TEST(SampleRowsTest, MatchesSamplingOnTheLocalInstanceOnRandomLeaves) {
  util::ThreadPool pool(2);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance instance = SmallInstance(seed, /*num_tasks=*/30,
                                            /*num_workers=*/90);
    const CandidateGraph graph = CandidateGraph::Build(instance);
    util::Rng rng(seed);
    for (int leaf_index = 0; leaf_index < 6; ++leaf_index) {
      std::vector<TaskId> tasks;
      const int64_t size = rng.UniformInt(1, 8);
      while (static_cast<int64_t>(tasks.size()) < size) {
        const auto i = static_cast<TaskId>(rng.UniformInt(0, 29));
        if (!std::ranges::binary_search(tasks, i)) {
          tasks.insert(std::ranges::upper_bound(tasks, i), i);
        }
      }
      const size_t max_workers = leaf_index % 3 == 2 ? 1 : SIZE_MAX;
      const LeafRows leaf = LeafOf(graph, tasks, max_workers);
      SolverOptions options;
      options.seed = rng.NextU64();
      const std::string where = "seed " + std::to_string(seed) + ", leaf " +
                                std::to_string(leaf_index);
      ExpectRowsMatchLocalSolve(instance, leaf, options, util::Deadline(),
                                nullptr, where);
      ExpectRowsMatchLocalSolve(instance, leaf, options, util::Deadline(),
                                &pool, where + ", 2 threads");
    }
  }
}

// One task every worker reaches, and dense rows: 60 workers on every one
// of 6 tasks, so rosters run long and every sample touches every task.
TEST(SampleRowsTest, MatchesSamplingOnTheLocalInstanceOnOneTaskAndDenseRows) {
  const Instance instance = SmallInstance(5, /*num_tasks=*/12,
                                          /*num_workers=*/60);
  const CandidateGraph full = CandidateGraph::FromEdges(
      instance, std::vector<std::vector<TaskId>>(
                    60, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  SolverOptions options;
  options.fixed_sample_size = 40;
  for (uint64_t seed : {1, 2, 3}) {
    options.seed = seed;
    ExpectRowsMatchLocalSolve(instance, LeafOf(full, {7}, SIZE_MAX), options,
                              util::Deadline(), nullptr,
                              "one task, seed " + std::to_string(seed));
    ExpectRowsMatchLocalSolve(instance,
                              LeafOf(full, {1, 3, 4, 8, 9, 11}, SIZE_MAX),
                              options, util::Deadline(), nullptr,
                              "dense, seed " + std::to_string(seed));
  }
}

// A tripped deadline fails both the same way, with the same partial
// counters: every drawn edge's memo, no sample scored.
TEST(SampleRowsTest, MatchesSamplingOnTheLocalInstanceOnABudgetTrip) {
  const Instance instance = SmallInstance(9, /*num_tasks=*/20,
                                          /*num_workers=*/50);
  const CandidateGraph graph = CandidateGraph::Build(instance);
  util::CancelToken cancelled;
  cancelled.Cancel();
  const util::Deadline tripped(/*budget_seconds=*/0.0, &cancelled);
  ExpectRowsMatchLocalSolve(instance, LeafOf(graph, {2, 5, 6, 11}, SIZE_MAX),
                            SolverOptions{}, tripped, nullptr, "cancelled");
  internal::RowSample sample;
  EXPECT_EQ(internal::SampleRows(instance,
                                 test::DrawingRows(graph), SolverOptions{},
                                 tripped, util::SerialExec(), &sample)
                .code(),
            util::StatusCode::kCancelled);
  EXPECT_GT(sample.stats.exact_std_evals, 0);
  EXPECT_EQ(sample.stats.sample_size, 0);
  EXPECT_TRUE(sample.picks.empty());
}

TEST(SamplingTest, ReportsSampleSize) {
  Instance instance = SmallInstance(7);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions options;
  options.fixed_sample_size = 17;
  SamplingSolver solver(options);
  SolveResult result = solver.Solve(instance, graph).value();
  EXPECT_EQ(result.stats.sample_size, 17);
}

TEST(SamplingTest, MultiplierScalesSampleSize) {
  Instance instance = SmallInstance(8);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions base;
  base.fixed_sample_size = 10;
  SolverOptions boosted = base;
  boosted.sample_multiplier = 10;
  EXPECT_EQ(
      SamplingSolver(base).Solve(instance, graph).value().stats.sample_size,
      10);
  EXPECT_EQ(
      SamplingSolver(boosted).Solve(instance, graph).value().stats.sample_size,
      100);
}

// Options no sample can be drawn under fail the solve with
// InvalidArgument naming the field, before any work: max_sample_size < 1
// once made K = 0 and read the winner of an empty sample set.
TEST(SamplingTest, RejectsMaxSampleSizeBelowOne) {
  const Instance instance = SmallInstance(11, /*num_tasks=*/50,
                                          /*num_workers=*/60);
  const CandidateGraph graph = CandidateGraph::Build(instance);
  for (int max_sample_size : {0, -1, std::numeric_limits<int>::min()}) {
    SolverOptions options;
    options.max_sample_size = max_sample_size;
    const std::string where =
        "max_sample_size " + std::to_string(max_sample_size);
    for (const util::StatusOr<SolveResult>& solved :
         {SamplingSolver(options).Solve(instance, graph),
          DivideConquerSolver(options).Solve(instance, graph),
          GroundTruthSolver(options).Solve(instance, graph)}) {
      ASSERT_EQ(solved.status().code(), util::StatusCode::kInvalidArgument)
          << where;
      EXPECT_NE(solved.status().message().find("max_sample_size"),
                std::string::npos)
          << where << ": " << solved.status().ToString();
    }
  }
  // One sample is a valid, if small, budget.
  SolverOptions one;
  one.max_sample_size = 1;
  EXPECT_EQ(SamplingSolver(one).Solve(instance, graph).value()
                .stats.sample_size,
            1);
}

// A DCW group's combos are 32-bit masks: max_dcw_group above 31 is
// rejected by D&C and G-TRUTH; 31 itself solves.
TEST(DivideConquerTest, RejectsMaxDcwGroupAboveThirtyOne) {
  const Instance instance = SmallInstance(12, /*num_tasks=*/24,
                                          /*num_workers=*/80);
  const CandidateGraph graph = CandidateGraph::Build(instance);
  for (int max_dcw_group : {32, 64, std::numeric_limits<int>::max()}) {
    SolverOptions options;
    options.max_dcw_group = max_dcw_group;
    const std::string where = "max_dcw_group " + std::to_string(max_dcw_group);
    for (const util::StatusOr<SolveResult>& solved :
         {DivideConquerSolver(options).Solve(instance, graph),
          GroundTruthSolver(options).Solve(instance, graph)}) {
      ASSERT_EQ(solved.status().code(), util::StatusCode::kInvalidArgument)
          << where;
      EXPECT_NE(solved.status().message().find("max_dcw_group"),
                std::string::npos)
          << where << ": " << solved.status().ToString();
    }
  }
  SolverOptions widest;
  widest.max_dcw_group = internal::kMaxDcwGroup;
  EXPECT_TRUE(DivideConquerSolver(widest).Solve(instance, graph).ok());
  EXPECT_TRUE(GroundTruthSolver(widest).Solve(instance, graph).ok());
}

// G-TRUTH's tenfold budget saturates instead of overflowing int, on
// either knob: a saturated cap leaves K = 30 uncapped, and a saturated
// multiplier is capped at K = 50, as unsaturated ones are.
TEST(DivideConquerTest, GroundTruthBoostSaturates) {
  const Instance instance = SmallInstance(13, /*num_tasks=*/24,
                                          /*num_workers=*/80);
  const CandidateGraph graph = CandidateGraph::Build(instance);
  auto solve = [&](int max_sample_size, int sample_multiplier) {
    SolverOptions options;
    options.fixed_sample_size = 3;
    options.max_sample_size = max_sample_size;
    options.sample_multiplier = sample_multiplier;
    return GroundTruthSolver(options).Solve(instance, graph).value();
  };
  const SolveResult huge_cap = solve(std::numeric_limits<int>::max(), 1);
  EXPECT_EQ(huge_cap.stats.sample_size, 30);
  EXPECT_EQ(DecisionDigest(huge_cap), DecisionDigest(solve(1 << 20, 1)));
  const SolveResult huge_multiplier =
      solve(5, std::numeric_limits<int>::max());
  EXPECT_EQ(huge_multiplier.stats.sample_size, 50);
  EXPECT_EQ(DecisionDigest(huge_multiplier),
            DecisionDigest(solve(5, 1 << 20)));
}

// ---------- D&C and G-TRUTH ----------

// ---------- D&C golden decisions ----------

struct DivideConquerGolden {
  const char* instance;
  const char* mode;
  const char* digest;
  /// SolveStats counters of the solve.
  int64_t merge_groups;
  int64_t merge_combos;
  int64_t merge_std_evals;
  int64_t exact_std_evals;
};

// The first 18 rows were captured from the SA_Merge that scored every 2^k
// keep-side combination with full Add/Remove calls and an O(m)
// Objectives() scan, and their counters and the rows after them from the
// one that moved workers through the merge state's rosters with
// AddKnown/RemoveKnown. gamma = 3 cuts these instances into leaves of at
// most three tasks, so the merges see DCW groups of four and more
// workers; "fallback" caps max_dcw_group at one, which sends every group
// of two or more to the per-worker PreviewAdd path. A "-gN" mode sets
// gamma = N: one- and two-task leaves on the dense instances give the
// merges their largest groups, the rounding drift of thousands of combos
// and decisions that rest on it. The exact_std_evals column counts the
// ExpectedStd calls the leaves' sample scorer makes (per-edge memo fills
// plus roster prefixes of two or more workers); it was re-captured when
// that count replaced samples x tasks, with every digest unchanged. The
// merge_std_evals column was re-captured when KeepComboScorer started
// taking each slot's base-roster E[STD] from the merge state instead of
// evaluating it, again with every digest, merge_groups, merge_combos and
// exact_std_evals unchanged. Every row held unchanged when the leaves
// began sampling on the solve's own instance instead of a local copy. The
// merge_std_evals column was re-captured once more when the leaves' picks
// began carrying their one-worker E[STD] up the tree, so the scorer no
// longer evaluates a lone group worker on a task with an empty roster;
// every digest and the other three columns held.
constexpr DivideConquerGolden kDivideConquerGolden[] = {
    {"table2-3", "sampling",
     "bd91d41815ed1860 3fee4b636b339a37 4042c623fee1f2d9",
     24, 250, 186, 1538},
    {"table2-3", "gtruth",
     "43836c0698eb6dd3 3fee4b636b339a37 4042cf5043f8ba65",
     23, 252, 185, 3696},
    {"table2-3", "fallback",
     "772e7ca88fc0c25a 3fee4b636b339a37 4042ba084277babf",
     25, 24, 151, 1538},
    {"table2-4", "sampling",
     "06545c8c0c29a00a 3fedc79afba7e683 40445da60b85238f",
     20, 1694, 334, 1748},
    {"table2-4", "gtruth",
     "06545c8c0c29a00a 3fedc79afba7e683 40445da60b85238f",
     20, 1694, 334, 3725},
    {"table2-4", "fallback",
     "1a39ca7048ad3422 3fedc79afba7e683 40444b52f2d2f7fe",
     20, 18, 162, 1748},
    {"table2-5", "sampling",
     "603b796e29c8aba9 3fede0ae77e94858 4041f4f1b60c3441",
     20, 278, 238, 1498},
    {"table2-5", "gtruth",
     "603b796e29c8aba9 3fede0ae77e94858 4041f4f1b60c3441",
     21, 186, 238, 2819},
    {"table2-5", "fallback",
     "7e92444cb0fc0d31 3fede0ae77e94858 4041f652ac169ddb",
     20, 18, 164, 1498},
    {"sparse-41", "sampling",
     "f101e4227c114040 3feeba1dc9428537 401f78249f39e2d3",
     15, 3670, 349, 777},
    {"sparse-41", "gtruth",
     "6468e35351c7be21 3fee09eea46401ed 402131abe148dcdc",
     18, 1620, 361, 2112},
    {"sparse-41", "fallback",
     "63b963dbd28a2a30 3fed450ec3eb2fa5 4020286a0164ae0d",
     14, 0, 225, 777},
    {"sparse-43", "sampling",
     "52d27b5fafd1bb39 3fededac7698986a 40233a314a968df7",
     14, 5224, 581, 728},
    {"sparse-43", "gtruth",
     "035bb5eed8dadff1 3fededac7698986a 40234d120ca65d4d",
     18, 4624, 568, 2042},
    {"sparse-43", "fallback",
     "d216d1ebfb59158f 3fededac7698986a 4023718696d6aab6",
     14, 4, 193, 728},
    {"dense-42", "sampling",
     "ae4095e3cc13a273 3fede3dc04260900 403014132c8bd10e",
     13, 10852, 1982, 1594},
    {"dense-42", "gtruth",
     "672dddb9282dd09c 3fefc6c83da0a454 402fa857580bb1de",
     13, 15110, 2065, 4220},
    {"dense-42", "fallback",
     "14d265e2cff6b11e 3fed692cd26939b5 402f0e46552fbbec",
     14, 4, 376, 1594},
    {"table2-5", "sampling-g2",
     "e2b169cce30008d5 3fede0ae77e94858 4041ea1fdb53eb4b",
     25, 4340, 549, 1564},
    {"sparse-43", "sampling-g2",
     "8bdb6f16af7f8718 3fed8b2394c70759 4023ec482fad9f4f",
     20, 6062, 1501, 913},
    {"dense-42", "sampling-g1",
     "aa5b1c849f88a365 3feece9d1eccd6a8 403061cffad841be",
     28, 23250, 20610, 2859},
    {"dense-42", "sampling-g2",
     "d6c6d615077cb8e7 3fefd8c8fa00b099 4030b48119adc36e",
     19, 17930, 7571, 2091},
    {"dense-42", "gtruth-g2",
     "7005f9e168183cf8 3feece9d1eccd6a8 402fcdcd6c2f3175",
     19, 23900, 7554, 4829},
    {"dense-44", "sampling-g1",
     "7599e5f21080e48a 3fee78972e67b39f 4031a2c460fbfdd6",
     24, 1026, 3296, 4173},
    {"dense-46", "sampling-g1",
     "fec5e839aa056d64 3fefd8c898b5908f 40311ad0920b7453",
     25, 12466, 13060, 2553},
    {"dense-46", "gtruth-g2",
     "774d24cd5677d548 3fedce3871a9be4a 4030b100abf0ef0c",
     19, 8418, 7701, 4356},
};

// One golden row's instance, options and solve; `executor` null = serial.
SolveResult SolveGolden(const DivideConquerGolden& golden,
                        util::Executor* executor) {
  std::string name = golden.instance;
  Instance instance;
  if (name.starts_with("sparse-")) {
    instance = SmallInstance(std::stoull(name.substr(7)),
                             /*num_tasks=*/24, /*num_workers=*/36);
  } else if (name.starts_with("dense-")) {
    instance = SmallInstance(std::stoull(name.substr(6)),
                             /*num_tasks=*/24, /*num_workers=*/80);
  } else {
    gen::WorkloadConfig config;  // Table 2 defaults, scaled down
    config.num_tasks = 40;
    config.num_workers = 600;
    config.start_max = 4.0;
    config.seed = static_cast<uint64_t>(name.back() - '0');
    instance = gen::GenerateInstance(config);
  }
  CandidateGraph graph = CandidateGraph::Build(instance);
  std::string mode = golden.mode;
  SolverOptions options;
  options.gamma = 3;
  options.seed = 5;
  if (const size_t dash = mode.find("-g"); dash != std::string::npos) {
    options.gamma = std::stoi(mode.substr(dash + 2));
    mode.resize(dash);
  }
  if (mode == "fallback") options.max_dcw_group = 1;
  SolveRequest request;
  request.instance = &instance;
  request.graph = &graph;
  request.executor = executor;
  return mode == "gtruth"
             ? GroundTruthSolver(options).Solve(request).value()
             : DivideConquerSolver(options).Solve(request).value();
}

TEST(DivideConquerGoldenTest, DecisionsMatchReferenceMerge) {
  for (const DivideConquerGolden& golden : kDivideConquerGolden) {
    const SolveResult result = SolveGolden(golden, nullptr);
    EXPECT_EQ(DecisionDigest(result), golden.digest)
        << golden.instance << " " << golden.mode;
    EXPECT_EQ(result.stats.merge_groups, golden.merge_groups)
        << golden.instance << " " << golden.mode;
    EXPECT_EQ(result.stats.merge_combos, golden.merge_combos)
        << golden.instance << " " << golden.mode;
    EXPECT_EQ(result.stats.merge_std_evals, golden.merge_std_evals)
        << golden.instance << " " << golden.mode;
    EXPECT_EQ(result.stats.exact_std_evals, golden.exact_std_evals)
        << golden.instance << " " << golden.mode;
  }
}

// The leaves fan out over the executor, each sampling leaf scoring its
// samples from shared per-edge memos, while one merge state serves the
// whole solve: every executor width must reproduce the serial digests.
TEST(DivideConquerGoldenTest, ExecutorWidthsReproduceDigests) {
  for (int threads : {2, 3}) {
    util::ThreadPool pool(threads);
    for (const DivideConquerGolden& golden : kDivideConquerGolden) {
      EXPECT_EQ(DecisionDigest(SolveGolden(golden, &pool)), golden.digest)
          << golden.instance << " " << golden.mode << ", " << threads
          << " threads";
    }
  }
}

// A hand-built DCW chain: three tasks on the left, three on the right, and
// five workers that can each serve one task per side, consecutive workers
// sharing a task. gamma = 1 gives every task its own leaf, so no leaf has
// a choice to make and the top merge sees all five workers in one group.
TEST(DivideConquerTest, MergeScoresEachComboFromMemoizedTaskStds) {
  std::vector<Task> tasks;
  for (double x : {0.10, 0.15, 0.20, 0.80, 0.85, 0.90}) {
    Task t = test::MakeTask(0.5, 0.0, 10.0);
    t.location = {x, 0.5};
    tasks.push_back(t);
  }
  std::vector<Worker> workers(5);
  for (int b = 0; b < 5; ++b) {
    workers[b].location = {0.45 + 0.02 * b, 0.3 + 0.1 * b};
    workers[b].velocity = 1.0;
    workers[b].confidence = 0.7 + 0.05 * b;
  }
  Instance instance(std::move(tasks), std::move(workers));
  // Worker b: left task b / 2 rounded up, right task 3 + b / 2.
  const std::vector<std::vector<TaskId>> edges = {
      {0, 3}, {1, 3}, {1, 4}, {2, 4}, {2, 5}};
  CandidateGraph graph = CandidateGraph::FromEdges(instance, edges);
  SolverOptions options;
  options.gamma = 1;
  SolveResult result = DivideConquerSolver(options).Solve(instance, graph)
                           .value();
  ExpectFeasible(instance, graph, result.assignment);
  EXPECT_EQ(result.assignment.NumAssigned(), 5);

  // d_t, the number of group workers that can land on each task.
  const int width[] = {1, 2, 2, 2, 2, 1};
  int64_t memo_entries = 0;
  for (int d : width) memo_entries += int64_t{1} << d;
  EXPECT_EQ(result.stats.merge_groups, 1);
  EXPECT_EQ(result.stats.merge_combos, int64_t{1} << 5);
  EXPECT_GT(result.stats.merge_std_evals, 0);
  EXPECT_LE(result.stats.merge_std_evals, memo_entries);
}

// The roster-moving enumeration KeepComboScorer replays on scalars: each
// combo's workers added to `state` with AddKnown in bit order, the state
// scored, then removed with RemoveKnown in bit order, every E[STD]
// computed fresh from the roster.
std::vector<BiPoint> ReferenceKeepCombos(AssignmentState& state,
                                         const std::vector<WorkerId>& workers,
                                         const std::vector<TaskId>& side1,
                                         const std::vector<TaskId>& side2) {
  const Instance& instance = state.instance();
  const int k = static_cast<int>(workers.size());
  std::vector<BiPoint> points;
  for (uint32_t combo = 0; combo < (uint32_t{1} << k); ++combo) {
    for (int b = 0; b < k; ++b) {
      const TaskId t = (combo >> b) & 1 ? side2[b] : side1[b];
      const Observation obs = state.ObservationFor(t, workers[b]);
      std::vector<Observation> grown = state.TaskObservations(t);
      grown.push_back(obs);
      state.AddKnown(t, workers[b], obs,
                     ExpectedStd(instance.task(t), grown));
    }
    points.push_back({state.Objectives().min_reliability,
                      state.TotalExpectedStd()});
    for (int b = 0; b < k; ++b) {
      const TaskId t = state.TaskOf(workers[b]);
      std::vector<Observation> shrunk;
      for (size_t a = 0; a < state.WorkersOf(t).size(); ++a) {
        if (state.WorkersOf(t)[a] != workers[b]) {
          shrunk.push_back(state.TaskObservations(t)[a]);
        }
      }
      state.RemoveKnown(workers[b], ExpectedStd(instance.task(t), shrunk));
    }
  }
  return points;
}

// Every running sum of `got` equals `want`'s bit for bit.
void ExpectSameSums(const AssignmentState& got, const AssignmentState& want,
                    const std::string& where) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.TotalExpectedStd()),
            std::bit_cast<uint64_t>(want.TotalExpectedStd()))
      << where;
  for (TaskId t = 0; t < got.instance().num_tasks(); ++t) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.TaskReducedReliability(t)),
              std::bit_cast<uint64_t>(want.TaskReducedReliability(t)))
        << where << ", task " << t;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.TaskExpectedStd(t)),
              std::bit_cast<uint64_t>(want.TaskExpectedStd(t)))
        << where << ", task " << t;
    EXPECT_EQ(got.WorkersOf(t), want.WorkersOf(t)) << where << ", task " << t;
  }
}

// KeepComboScorer against ReferenceKeepCombos, bit for bit: every combo
// point, the sums it leaves (the rounding drift of 2^k adds and removes,
// carried, not undone), and the state after Commit. Three groups run in
// turn on the drifted state. Tasks 8-11 start empty, and groups land
// several workers on them, so emptied rosters reset their reliability
// to 0.0 mid-enumeration.
TEST(DivideConquerTest, KeepComboScorerReplaysRosterMovesBitForBit) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    std::vector<Task> tasks;
    for (int i = 0; i < 12; ++i) {
      Task t = test::MakeTask(rng.Uniform(0.2, 0.8), 0.0, 10.0);
      t.location = {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
      tasks.push_back(t);
    }
    std::vector<Worker> workers(60);
    for (Worker& w : workers) {
      w.location = {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
      w.velocity = 1.0;
      w.confidence = rng.Uniform(0.3, 0.97);
    }
    const Instance instance(std::move(tasks), std::move(workers));
    AssignmentState scored(instance), reference(instance);
    for (WorkerId j = 0; j < 20; ++j) {
      const auto t = static_cast<TaskId>(rng.UniformInt(0, 7));
      scored.Add(t, j);
      reference.Add(t, j);
    }
    std::vector<TaskId> all_tasks(12);
    for (TaskId t = 0; t < 12; ++t) all_tasks[t] = t;

    internal::KeepComboScorer scorer(instance.num_tasks());
    WorkerId next = 20;
    for (int group = 0; group < 3; ++group) {
      const std::string where = "seed " + std::to_string(seed) + ", group " +
                                std::to_string(group);
      std::vector<WorkerId> ids;
      std::vector<TaskId> side1, side2;
      // The scorer's input: each copy as a leaf pick, with its evidence.
      std::vector<internal::DrawnPick> picks1, picks2;
      auto pick = [&](TaskId t, WorkerId j) {
        const Observation obs = scored.ObservationFor(t, j);
        return internal::DrawnPick{t, j, obs,
                                   ExpectedStd(instance.task(t), {obs})};
      };
      for (int b = 0; b < 9 - group; ++b) {
        ids.push_back(next++);
        const auto t1 = static_cast<TaskId>(rng.UniformInt(0, 11));
        const auto t2 = static_cast<TaskId>(
            (t1 + 1 + rng.UniformInt(0, 10)) % 12);
        side1.push_back(t1);
        side2.push_back(t2);
        picks1.push_back(pick(t1, ids.back()));
        picks2.push_back(pick(t2, ids.back()));
      }
      int64_t evals = 0;
      const std::vector<BiPoint> got =
          scorer.Score(scored, picks1, picks2, all_tasks, &evals);
      const std::vector<BiPoint> want =
          ReferenceKeepCombos(reference, ids, side1, side2);
      ASSERT_EQ(got.size(), want.size()) << where;
      for (size_t c = 0; c < got.size(); ++c) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got[c].x),
                  std::bit_cast<uint64_t>(want[c].x))
            << where << ", combo " << c;
        ASSERT_EQ(std::bit_cast<uint64_t>(got[c].y),
                  std::bit_cast<uint64_t>(want[c].y))
            << where << ", combo " << c;
      }
      ExpectSameSums(scored, reference, where + " after Score");
      EXPECT_GT(evals, 0) << where;

      const auto best = static_cast<uint32_t>(TopDominating(got));
      scorer.Commit(scored, best, &evals);
      for (size_t b = 0; b < ids.size(); ++b) {
        const TaskId t = (best >> b) & 1 ? side2[b] : side1[b];
        const Observation obs = reference.ObservationFor(t, ids[b]);
        std::vector<Observation> grown = reference.TaskObservations(t);
        grown.push_back(obs);
        reference.AddKnown(t, ids[b], obs,
                           ExpectedStd(instance.task(t), grown));
      }
      ExpectSameSums(scored, reference, where + " after Commit");
    }
  }
}

// The D&C phase times are filled, non-negative and within the wall time;
// other solvers leave them 0.
TEST(DivideConquerTest, PhaseTimesAddUpToAtMostWallTime) {
  Instance instance = SmallInstance(42, /*num_tasks=*/24, /*num_workers=*/80);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions options;
  options.gamma = 2;
  for (bool gtruth : {false, true}) {
    SolveRequest request;
    request.instance = &instance;
    request.graph = &graph;
    const SolveStats stats =
        (gtruth ? GroundTruthSolver(options).Solve(request)
                : DivideConquerSolver(options).Solve(request))
            .value()
            .stats;
    EXPECT_GE(stats.partition_seconds, 0.0f);
    EXPECT_GE(stats.leaf_seconds, 0.0f);
    EXPECT_GE(stats.merge_seconds, 0.0f);
    EXPECT_GT(stats.merge_combos, 0);
    EXPECT_LE(static_cast<double>(stats.partition_seconds) +
                  static_cast<double>(stats.leaf_seconds) +
                  static_cast<double>(stats.merge_seconds),
              stats.wall_seconds);
  }
  const SolveStats sampling =
      SamplingSolver(options).Solve(instance, graph).value().stats;
  EXPECT_EQ(sampling.partition_seconds, 0.0f);
  EXPECT_EQ(sampling.leaf_seconds, 0.0f);
  EXPECT_EQ(sampling.merge_seconds, 0.0f);
}

class DivideConquerFeasibilityTest : public ::testing::TestWithParam<int> {};

TEST_P(DivideConquerFeasibilityTest, FeasibleOnRandomInstances) {
  Instance instance = SmallInstance(GetParam(), /*num_tasks=*/20,
                                    /*num_workers=*/60);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions options;
  options.gamma = 6;  // force several partition levels
  DivideConquerSolver solver(options);
  SolveResult result = solver.Solve(instance, graph).value();
  ExpectFeasible(instance, graph, result.assignment);
  // Every connected worker ends up with exactly one task after the merge.
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_EQ(result.assignment.TaskOf(j) != kNoTask, graph.Degree(j) > 0)
        << "worker " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivideConquerFeasibilityTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

TEST(DivideConquerTest, LeafOnlyEqualsEmbeddedSolver) {
  Instance instance = SmallInstance(30);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions options;
  options.gamma = 1'000'000;  // never partition
  DivideConquerSolver dc(options);
  SolveResult result = dc.Solve(instance, graph).value();
  ExpectFeasible(instance, graph, result.assignment);
}

TEST(DivideConquerTest, ObjectivesMatchReevaluation) {
  Instance instance = SmallInstance(32, 20, 50);
  CandidateGraph graph = CandidateGraph::Build(instance);
  SolverOptions options;
  options.gamma = 6;
  DivideConquerSolver solver(options);
  SolveResult result = solver.Solve(instance, graph).value();
  ObjectiveValue check = EvaluateAssignment(instance, result.assignment);
  EXPECT_NEAR(result.objectives.total_std, check.total_std, 1e-9);
  EXPECT_NEAR(result.objectives.min_reliability, check.min_reliability,
              1e-9);
}

TEST(GroundTruthTest, UsesTenfoldSamples) {
  Instance instance = SmallInstance(33);
  CandidateGraph graph = CandidateGraph::Build(instance);
  GroundTruthSolver solver;
  EXPECT_EQ(solver.name(), "G-TRUTH");
  SolveResult result = solver.Solve(instance, graph).value();
  ExpectFeasible(instance, graph, result.assignment);
}

// Sanity shape check on small instances: every approximation tracks
// G-TRUTH within a generous factor (the paper's Figs 11-15 claim SAMPLING
// and D&C sit close to G-TRUTH; the tight trend comparisons live in the
// bench harness where instances are large enough to be stable).
TEST(SolverComparisonTest, ApproximationsTrackGroundTruth) {
  double greedy_total = 0.0, sampling_total = 0.0, dc_total = 0.0,
         gtruth_total = 0.0;
  for (int seed = 1; seed <= 6; ++seed) {
    Instance instance = SmallInstance(seed, 10, 40);
    CandidateGraph graph = CandidateGraph::Build(instance);
    GreedySolver greedy;
    SamplingSolver sampling;
    SolverOptions dc_options;
    dc_options.gamma = 4;
    DivideConquerSolver dc(dc_options);
    GroundTruthSolver gtruth(dc_options);
    greedy_total += greedy.Solve(instance, graph).value().objectives.total_std;
    sampling_total += sampling.Solve(instance, graph).value().objectives.total_std;
    dc_total += dc.Solve(instance, graph).value().objectives.total_std;
    gtruth_total += gtruth.Solve(instance, graph).value().objectives.total_std;
  }
  EXPECT_GT(gtruth_total, 0.0);
  EXPECT_GT(sampling_total, 0.6 * gtruth_total);
  EXPECT_GT(dc_total, 0.6 * gtruth_total);
  EXPECT_GT(greedy_total, 0.6 * gtruth_total);
}

}  // namespace
}  // namespace rdbsc::core
