// Property tests for the batched geometry kernels (core/kernels.h).
//
// The kernels' contract is exact equality with the scalar IsValidPair
// oracle -- not approximate agreement -- so these tests sweep seeded
// uniform/skewed instances plus hand-built degenerate ones (zero-velocity
// workers, a worker standing on a task, full-circle vs. narrow vs.
// zero-width cones, arrivals landing exactly on t.start / t.end) and
// assert the kernel-built CandidateGraph rows and the grid retrieval are
// bit-identical to a brute-force oracle scan, at 1/2/8-way sharding.

#include "core/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "core/instance.h"
#include "core/model.h"
#include "gen/workload.h"
#include "gtest/gtest.h"
#include "index/grid_index.h"
#include "util/thread_pool.h"

namespace rdbsc {
namespace {

using core::ArrivalPolicy;
using core::Instance;
using core::Task;
using core::TaskId;
using core::Worker;
using core::WorkerId;

std::vector<std::vector<TaskId>> OracleRows(const Instance& instance) {
  std::vector<std::vector<TaskId>> rows(instance.num_workers());
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      if (core::IsValidPair(instance.task(i), instance.worker(j),
                            instance.now(), instance.policy())) {
        rows[j].push_back(i);
      }
    }
  }
  return rows;
}

Instance WithPolicy(const Instance& instance, ArrivalPolicy policy) {
  return Instance(instance.tasks(), instance.workers(), instance.now(),
                  policy);
}

// Kernel Build at 1/2/8-way sharding plus grid retrieval, all against the
// scalar oracle. Kernel rows and sorted grid rows are both ascending, so
// the comparison is element-exact.
void ExpectKernelMatchesOracle(const Instance& instance) {
  const std::vector<std::vector<TaskId>> oracle = OracleRows(instance);
  int64_t oracle_edges = 0;
  for (const auto& row : oracle) {
    oracle_edges += static_cast<int64_t>(row.size());
  }
  for (int threads : {1, 2, 8}) {
    core::CandidateGraph graph;
    if (threads == 1) {
      graph = core::CandidateGraph::Build(instance);
    } else {
      // A pool of N-1 workers plus the calling thread = N-way sharding.
      util::ThreadPool pool(threads - 1);
      graph =
          core::CandidateGraph::Build(instance, &pool, util::Deadline())
              .value();
    }
    ASSERT_EQ(graph.NumEdges(), oracle_edges) << threads << " threads";
    for (WorkerId j = 0; j < instance.num_workers(); ++j) {
      ASSERT_TRUE(std::ranges::equal(graph.TasksOf(j), oracle[j]))
          << threads << " threads, worker " << j;
    }
  }
  index::GridIndex index = index::GridIndex::Build(instance, 0.2);
  std::vector<std::vector<TaskId>> retrieved = index.RetrieveEdges().value();
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    ASSERT_EQ(retrieved[j], oracle[j]) << "grid, worker " << j;
  }
}

// Every certain ClassifyRow verdict must agree with the oracle. Returns
// the fraction of certain verdicts so sweeps can also assert the kernel
// stays useful (not everything uncertain).
double CertainFraction(const Instance& instance) {
  const core::InstanceSoA& soa = instance.soa();
  const core::TaskBlock& block = soa.task_block();
  std::vector<uint8_t> cls(block.size());
  int64_t certain = 0, total = 0;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    const core::WorkerGeom& geom = soa.worker_geoms()[j];
    if (geom.scalar_only) continue;
    core::ClassifyRow(geom, instance.policy(), block, cls.data());
    for (size_t k = 0; k < block.size(); ++k) {
      ++total;
      if (cls[k] == core::kPairUncertain) continue;
      ++certain;
      EXPECT_EQ(cls[k] == core::kPairAccept,
                core::IsValidPair(block.oracle[k], instance.worker(j),
                                  instance.now(), instance.policy()))
          << "worker " << j << ", task " << k;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(certain) / total;
}

gen::WorkloadConfig SweepConfig(uint64_t seed, bool skewed,
                                double angle_range) {
  gen::WorkloadConfig config;
  config.num_tasks = 40;
  config.num_workers = 60;
  config.seed = seed;
  config.angle_range = angle_range;
  if (skewed) {
    config.task_distribution = gen::SpatialDistribution::kSkewed;
    config.worker_distribution = gen::SpatialDistribution::kSkewed;
  }
  config.start_min = 0.0;
  config.start_max = 4.0;
  config.rt_min = 0.5;
  config.rt_max = 3.0;
  return config;
}

TEST(KernelPropertyTest, SweepMatchesOracleAtAllWidths) {
  const double kAngles[] = {std::numbers::pi / 24.0, std::numbers::pi / 6.0,
                            geo::kTwoPi};
  for (uint64_t seed : {1, 2, 3}) {
    for (bool skewed : {false, true}) {
      for (double angle : kAngles) {
        Instance base = gen::GenerateInstance(SweepConfig(seed, skewed, angle));
        for (ArrivalPolicy policy :
             {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
          ExpectKernelMatchesOracle(WithPolicy(base, policy));
        }
      }
    }
  }
}

TEST(KernelPropertyTest, ClassificationSoundAndMostlyCertain) {
  for (bool skewed : {false, true}) {
    gen::WorkloadConfig config = SweepConfig(11, skewed, std::numbers::pi / 6);
    config.num_tasks = 200;
    config.num_workers = 200;
    Instance base = gen::GenerateInstance(config);
    for (ArrivalPolicy policy :
         {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
      Instance instance = WithPolicy(base, policy);
      // The margins are ~1e-9 wide; on generated data essentially nothing
      // lands inside them. A collapse of this fraction would mean the
      // kernel degraded to oracle-per-pair (a perf regression the edge-set
      // tests cannot see).
      EXPECT_GT(CertainFraction(instance), 0.999);
    }
  }
}

TEST(KernelPropertyTest, DegenerateWorkersMatchOracle) {
  std::vector<Task> tasks;
  // A small lattice of tasks, including the exact location of worker 0.
  for (double x : {0.1, 0.3, 0.5, 0.7}) {
    for (double y : {0.2, 0.5, 0.8}) {
      Task t;
      t.location = {x, y};
      t.start = 0.5;
      t.end = x + 2.0 * y;  // varied periods, some unreachable
      tasks.push_back(t);
    }
  }
  std::vector<Worker> workers;
  Worker on_task;  // stands exactly on task (0.5, 0.5): direction is moot
  on_task.location = {0.5, 0.5};
  on_task.velocity = 0.4;
  on_task.direction = geo::AngularInterval(1.0, 1.5);
  workers.push_back(on_task);

  Worker stopped;  // zero velocity: every task unreachable
  stopped.location = {0.4, 0.4};
  stopped.velocity = 0.0;
  workers.push_back(stopped);

  Worker full;  // explicit full circle
  full.location = {0.9, 0.1};
  full.velocity = 0.6;
  full.direction = geo::AngularInterval::FullCircle();
  workers.push_back(full);

  Worker narrow;  // 1e-9 rad cone aimed at task (0.7, 0.8)
  narrow.location = {0.1, 0.2};
  narrow.velocity = 0.8;
  double aim = geo::Bearing(narrow.location, geo::Point{0.7, 0.8});
  narrow.direction = geo::AngularInterval(aim - 5e-10, aim + 5e-10);
  workers.push_back(narrow);

  Worker zero_width;  // lo == hi: a single admissible direction
  zero_width.location = {0.3, 0.9};
  zero_width.velocity = 0.5;
  zero_width.direction = geo::AngularInterval(aim, aim);
  workers.push_back(zero_width);

  Worker late;  // checks in long after now
  late.location = {0.6, 0.6};
  late.velocity = 0.7;
  late.available_from = 1.75;
  workers.push_back(late);

  for (ArrivalPolicy policy :
       {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
    Instance instance(tasks, workers, /*now=*/0.25, policy);
    ExpectKernelMatchesOracle(instance);
    CertainFraction(instance);  // soundness EXPECTs inside
  }
}

TEST(KernelPropertyTest, BoundaryArrivalsMatchOracle) {
  Worker w;
  w.location = {0.25, 0.75};
  w.velocity = 0.35;
  w.available_from = 0.5;
  const double now = 0.125;

  std::vector<Task> tasks;
  for (double x : {0.5, 0.8125, 0.26}) {
    Task probe;
    probe.location = {x, 0.3};
    const double arrival =
        core::ArrivalTime(w, probe, now, ArrivalPolicy::kStrict);
    // Arrival exactly on each boundary, plus one-ulp misses on both sides:
    // the kernel must leave all of these to the oracle (or judge them the
    // same way), never flip them.
    for (double start : {arrival, std::nextafter(arrival, 2.0 * arrival),
                         std::nextafter(arrival, 0.0)}) {
      Task t = probe;
      t.start = start;
      t.end = start + 1.0;
      tasks.push_back(t);
      t.start = start - 1.0;
      t.end = start;
      tasks.push_back(t);
      t.start = start;
      t.end = start;  // zero-length period: valid iff arrival == start
      tasks.push_back(t);
    }
  }
  std::vector<Worker> workers = {w};
  Worker free = w;  // same geometry, full circle, so direction never blocks
  free.direction = geo::AngularInterval::FullCircle();
  workers.push_back(free);

  for (ArrivalPolicy policy :
       {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
    Instance instance(tasks, workers, now, policy);
    ExpectKernelMatchesOracle(instance);
    CertainFraction(instance);
  }
}

// Block sizes 0-33 put every pair count below, at and past the vector
// step of the classification loop (16 pairs under AVX2), so the scalar
// remainder and the vector body both run, alone and together. Per size,
// policy and cone kind: every certain verdict equals the oracle,
// ValidPairsRow equals the scalar IsValidPair loop, and neither writes
// past block.size() (a guard byte sits at cls[block.size()]).
TEST(KernelPropertyTest, SmallBlocksAndTailsMatchOracle) {
  constexpr uint8_t kGuard = 0xA5;
  constexpr size_t kMaxBlock = 33;
  constexpr size_t kVectorStep = 16;
  gen::WorkloadConfig config = SweepConfig(21, false, std::numbers::pi / 3);
  config.num_tasks = static_cast<int>(kMaxBlock);
  config.num_workers = 80;
  const Instance cones = gen::GenerateInstance(config);
  for (bool full_circle : {false, true}) {
    std::vector<Worker> workers = cones.workers();
    if (full_circle) {
      for (Worker& w : workers) {
        w.direction = geo::AngularInterval::FullCircle();
      }
    }
    const Instance base(cones.tasks(), workers, cones.now(), cones.policy());
    for (ArrivalPolicy policy :
         {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
      const Instance instance = WithPolicy(base, policy);
      // Certain verdicts seen in the vector body ([0]: slots below the
      // last multiple of kVectorStep) and in the remainder ([1]), so the
      // sweep is known to judge pairs in both.
      int64_t accepts[2] = {0, 0}, rejects[2] = {0, 0};
      for (size_t n = 0; n <= kMaxBlock; ++n) {
        core::TaskBlock block;
        for (size_t k = 0; k < n; ++k) {
          block.Add(static_cast<TaskId>(k),
                    instance.task(static_cast<TaskId>(k)));
        }
        std::vector<uint8_t> cls(n + 1);
        for (WorkerId j = 0; j < instance.num_workers(); ++j) {
          const Worker& w = instance.worker(j);
          const core::WorkerGeom geom =
              core::PrecomputeWorker(w, instance.now());
          ASSERT_FALSE(geom.scalar_only);
          ASSERT_EQ(geom.full_circle, full_circle);

          std::fill(cls.begin(), cls.end(), uint8_t{0x5A});
          cls[n] = kGuard;
          core::ClassifyRow(geom, policy, block, cls.data());
          ASSERT_EQ(cls[n], kGuard) << "n=" << n << " worker " << j;
          for (size_t k = 0; k < n; ++k) {
            ASSERT_LE(cls[k], uint8_t{core::kPairUncertain});
            if (cls[k] == core::kPairUncertain) continue;
            const bool valid = core::IsValidPair(block.oracle[k], w,
                                                 instance.now(), policy);
            ASSERT_EQ(cls[k] == core::kPairAccept, valid)
                << "n=" << n << " worker " << j << " slot " << k;
            const int tail = k >= n / kVectorStep * kVectorStep ? 1 : 0;
            ++(valid ? accepts : rejects)[tail];
          }

          std::vector<TaskId> want;
          for (size_t k = 0; k < n; ++k) {
            if (core::IsValidPair(block.oracle[k], w, instance.now(),
                                  policy)) {
              want.push_back(block.id[k]);
            }
          }
          std::vector<TaskId> got = {-1};  // appended to, never cleared
          cls[n] = kGuard;
          EXPECT_EQ(core::ValidPairsRow(geom, w, instance.now(), policy,
                                        block, cls.data(), &got),
                    want.size());
          ASSERT_EQ(cls[n], kGuard) << "n=" << n << " worker " << j;
          want.insert(want.begin(), -1);
          ASSERT_EQ(got, want) << "n=" << n << " worker " << j;
        }
      }
      for (int part : {0, 1}) {
        EXPECT_GT(accepts[part], 0) << "full " << full_circle << ", " << part;
        EXPECT_GT(rejects[part], 0) << "full " << full_circle << ", " << part;
      }
    }
  }
}

TEST(KernelPropertyTest, SoaViewIsCachedAndSharedAcrossCopies) {
  Instance instance = gen::GenerateInstance(SweepConfig(5, false, 1.0));
  const core::InstanceSoA* first = &instance.soa();
  EXPECT_EQ(first, &instance.soa());
  Instance copy = instance;
  EXPECT_EQ(first, &copy.soa());
  EXPECT_EQ(first->num_workers(), instance.num_workers());
  EXPECT_EQ(first->task_block().size(),
            static_cast<size_t>(instance.num_tasks()));
}

}  // namespace
}  // namespace rdbsc
