// Allocation guard for the E[STD] hot path: once warmed up, evaluating a
// roster of up to 64 observations, previewing an add or a bound on an
// AssignmentState or a BoundsLayout, replaying an assignment onto a
// reused state and scoring a sample on a warmed SampleScorer must not
// touch the heap; a D&C solve allocates per node of
// its partition tree, not per worker.
// The binary replaces the global operator new with a counting one, so a
// change that reintroduces a per-call vector fails here instead of showing
// up only as a slower benchmark.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/assignment.h"
#include "core/bounds_layout.h"
#include "core/diversity.h"
#include "core/divide_conquer.h"
#include "core/sampling.h"
#include "core/instance.h"
#include "gen/workload.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace {
// Plain (not atomic) on purpose: the measured sections are single-threaded
// and the counter is only read on the thread that runs them.
int64_t g_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rdbsc::core {
namespace {

constexpr size_t kMaxRoster = 64;

// Heap allocations made by `fn`.
template <typename Fn>
int64_t AllocationsOf(Fn&& fn) {
  const int64_t before = g_allocations;
  fn();
  return g_allocations - before;
}

std::vector<Observation> Roster(size_t r, util::Rng& rng) {
  std::vector<Observation> obs;
  for (size_t k = 0; k < r; ++k) {
    obs.push_back(test::Obs(rng.Uniform(0.0, 6.28), rng.Uniform(0.0, 1.0),
                            rng.Uniform(0.5, 0.99)));
  }
  return obs;
}

TEST(AllocFreeTest, CounterSeesAllocations) {
  EXPECT_EQ(AllocationsOf([] { ::operator delete(::operator new(16)); }), 1);
}

TEST(AllocFreeTest, ExpectedStdAndBoundsAllocateNothingAfterWarmUp) {
  util::Rng rng(7);
  std::vector<std::vector<Observation>> rosters;
  for (size_t r = 0; r <= kMaxRoster; ++r) rosters.push_back(Roster(r, rng));
  const Task task = test::MakeTask(0.5, 0.0, 1.0);
  // Warm-up: the largest roster sizes every per-thread buffer.
  ExpectedStd(task, rosters.back());
  ExpectedStdBounds(task, rosters.back());

  double sink = 0.0;
  for (const std::vector<Observation>& obs : rosters) {
    EXPECT_EQ(AllocationsOf([&] { sink += ExpectedStd(task, obs); }), 0)
        << "ExpectedStd, r=" << obs.size();
    EXPECT_EQ(AllocationsOf([&] { sink += ExpectedStdBounds(task, obs).lb; }),
              0)
        << "ExpectedStdBounds, r=" << obs.size();
  }
  EXPECT_GT(sink, 0.0);
}

// A BoundsLayout preview reads only cached terms and the extra: it never
// allocates, at any roster size, once the layout is built.
TEST(AllocFreeTest, BoundsLayoutPreviewsAllocateNothing) {
  util::Rng rng(13);
  const Task task = test::MakeTask(0.5, 0.0, 1.0);
  const std::vector<Observation> extras = Roster(8, rng);
  BoundsLayout layout;
  double sink = 0.0;
  for (size_t r = 0; r <= kMaxRoster; ++r) {
    layout.Assign(task, Roster(r, rng));
    EXPECT_EQ(AllocationsOf([&] { sink += layout.Bounds(task).ub; }), 0)
        << "Bounds(), r=" << r;
    for (const Observation& extra : extras) {
      EXPECT_EQ(AllocationsOf([&] { sink += layout.Bounds(task, &extra).ub; }),
                0)
          << "Bounds(&extra), r=" << r;
    }
  }
  EXPECT_GT(sink, 0.0);
}

// Four tasks and kMaxRoster + 8 workers. AssignmentState scores any
// (task, worker) pair it is given, so validity does not matter here.
Instance CrowdedInstance() {
  util::Rng rng(11);
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) {
    Task t = test::MakeTask(0.25 * i, 0.0, 50.0);
    t.location = {0.4 + 0.05 * i, 0.5};
    tasks.push_back(t);
  }
  std::vector<Worker> workers;
  for (size_t j = 0; j < kMaxRoster + 8; ++j) {
    Worker w;
    w.location = {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    w.velocity = 1.0;
    w.confidence = rng.Uniform(0.5, 0.99);
    workers.push_back(w);
  }
  return Instance(std::move(tasks), std::move(workers));
}

TEST(AllocFreeTest, StatePreviewsAndResetReplayAllocateNothingAfterWarmUp) {
  const Instance instance = CrowdedInstance();
  const int n = instance.num_workers();
  // `full` puts kMaxRoster workers on task 0 and the rest on task 1;
  // `spread` deals every worker round-robin over the four tasks.
  Assignment full(n), spread(n);
  for (WorkerId j = 0; j < n; ++j) {
    full.Assign(j, j < static_cast<WorkerId>(kMaxRoster) ? 0 : 1);
    spread.Assign(j, j % instance.num_tasks());
  }
  Assignment partial(n);
  for (WorkerId j = 0; j + 1 < static_cast<WorkerId>(kMaxRoster); ++j) {
    partial.Assign(j, 0);
  }
  const WorkerId last = static_cast<WorkerId>(kMaxRoster) - 1;

  AssignmentState state(instance);
  // Warm-up: every roster at its largest.
  state.Reset(full);
  state.Reset(spread);
  state.Reset(partial);
  for (WorkerId j = 0; j < n; ++j) state.PreviewTaskStd(0, j);
  state.PreviewAdd(0, last);

  double sink = 0.0;
  EXPECT_EQ(
      AllocationsOf([&] { sink += state.PreviewAdd(0, last).total_std; }), 0)
      << "PreviewAdd at r=" << kMaxRoster;
  EXPECT_EQ(AllocationsOf([&] { sink += state.PreviewTaskStd(0, last); }), 0)
      << "PreviewTaskStd at r=" << kMaxRoster;
  state.PreviewTaskStdBounds(0, last);  // builds task 0's layout
  EXPECT_EQ(AllocationsOf(
                [&] { sink += state.PreviewTaskStdBounds(0, last).ub; }),
            0)
      << "PreviewTaskStdBounds at r=" << kMaxRoster;
  for (const Assignment* replay : {&full, &spread, &partial, &full}) {
    EXPECT_EQ(AllocationsOf([&] {
                state.Reset(*replay);
                sink += state.Objectives().total_std;
              }),
              0)
        << "Reset replay";
  }
  EXPECT_GT(sink, 0.0);
}

// Sampling's scorer: once it has scored a sample with a shard's scratch,
// scoring more samples over the same memos allocates nothing, at rosters
// up to kMaxRoster (every worker can serve every task).
TEST(AllocFreeTest, SampleScorerAllocatesNothingAfterWarmUp) {
  const Instance instance = CrowdedInstance();
  std::vector<std::vector<TaskId>> edges(
      static_cast<size_t>(instance.num_workers()), {0, 1, 2, 3});
  const CandidateGraph graph = CandidateGraph::FromEdges(instance, edges);
  internal::SampleScorer scorer(instance, graph, 3);
  const int drawing = scorer.num_drawing();
  // `full` puts kMaxRoster workers on task 0 and the rest on task 1,
  // `spread` deals them round-robin, `single` puts everyone on task 3.
  std::vector<uint32_t> full, spread, single;
  int64_t evals = 0;
  for (int d = 0; d < drawing; ++d) {
    full.push_back(scorer.MemoSlot(
        d, d < static_cast<int>(kMaxRoster) ? 0 : 1, &evals));
    spread.push_back(scorer.MemoSlot(d, static_cast<uint32_t>(d % 4), &evals));
    single.push_back(scorer.MemoSlot(d, 3, &evals));
  }
  internal::SampleScorer::Scratch scratch(scorer);
  double sink = scorer.Score(single, scratch, &evals).total_std;  // warm-up
  for (const auto* slots : {&full, &spread, &single, &full}) {
    EXPECT_EQ(AllocationsOf([&] {
                sink += scorer.Score(*slots, scratch, &evals).total_std;
              }),
              0)
        << "SampleScorer::Score";
  }
  EXPECT_GT(sink, 0.0);
}

// A D&C solve allocates per node of its partition tree, not per worker
// per node: CSR subproblems, leaves mapping ids without a hash map, one
// observation per edge in the sampling leaves and merges on scalars. A
// tree over m tasks has at most 2m - 1 nodes. The instance has ten
// workers a task, so a solve that built one edge vector per worker at
// each split (over 70 allocations a node here) fails the bound.
TEST(AllocFreeTest, DivideConquerAllocatesPerTreeNode) {
  gen::WorkloadConfig config;  // Table 2 defaults, scaled down
  config.num_tasks = 300;
  config.num_workers = 3000;
  config.start_max = 4.0;
  config.seed = 3;
  const Instance instance = gen::GenerateInstance(config);
  const CandidateGraph graph = CandidateGraph::Build(instance);
  DivideConquerSolver solver;
  ASSERT_TRUE(solver.Solve(instance, graph).ok());  // warm-up
  const int64_t max_nodes = 2 * int64_t{config.num_tasks} - 1;
  constexpr int64_t kAllocationsPerNode = 24;
  const int64_t allocations = AllocationsOf(
      [&] { ASSERT_TRUE(solver.Solve(instance, graph).ok()); });
  EXPECT_LE(allocations, kAllocationsPerNode * max_nodes);
}

}  // namespace
}  // namespace rdbsc::core
