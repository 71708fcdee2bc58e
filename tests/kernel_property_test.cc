// Property tests for the batched geometry kernels (core/kernels.h).
//
// The kernels' contract is exact equality with the scalar IsValidPair
// oracle -- not approximate agreement -- so these tests sweep seeded
// uniform/skewed instances plus hand-built degenerate ones (zero-velocity
// workers, a worker standing on a task, full-circle vs. narrow vs.
// zero-width cones, arrivals landing exactly on t.start / t.end) and
// assert the kernel-built CandidateGraph rows and the grid retrieval are
// bit-identical to a brute-force oracle scan, at 1/2/8-way sharding.
//
// The block test that lets a row skip whole task blocks gets its own
// Release-run checks: no rejected (worker, block) may hold a pair the
// oracle accepts, on many-block instances and on inputs built to sit on
// the test's margins (pairs at the cone's tolerance edge and arrivals
// exactly at end_max, at small and large clock values), so removing the
// cone widening or the distance test's guards fails them.

#include "core/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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

// Kernel Build at 1/2/8-way sharding against the scalar oracle, element
// for element, with the same block-test counts at every width.
void ExpectGraphMatchesOracle(const Instance& instance) {
  const std::vector<std::vector<TaskId>> oracle = OracleRows(instance);
  int64_t oracle_edges = 0;
  for (const auto& row : oracle) {
    oracle_edges += static_cast<int64_t>(row.size());
  }
  int64_t serial_tested = 0, serial_skipped = 0;
  for (int threads : {1, 2, 8}) {
    core::CandidateGraph graph;
    if (threads == 1) {
      graph = core::CandidateGraph::Build(instance);
      serial_tested = graph.BlocksTested();
      serial_skipped = graph.BlocksSkipped();
    } else {
      // A pool of N-1 workers plus the calling thread = N-way sharding.
      util::ThreadPool pool(threads - 1);
      graph =
          core::CandidateGraph::Build(instance, &pool, util::Deadline())
              .value();
    }
    ASSERT_EQ(graph.NumEdges(), oracle_edges) << threads << " threads";
    for (WorkerId j = 0; j < instance.num_workers(); ++j) {
      // Element for element: a row left in block order fails here.
      ASSERT_TRUE(std::ranges::equal(graph.TasksOf(j), oracle[j]))
          << threads << " threads, worker " << j;
    }
    EXPECT_EQ(graph.BlocksTested(), serial_tested) << threads << " threads";
    EXPECT_EQ(graph.BlocksSkipped(), serial_skipped) << threads << " threads";
  }
  const core::InstanceSoA& soa = instance.soa();
  int64_t summarised_rows = 0;
  for (const core::WorkerGeom& geom : soa.worker_geoms()) {
    if (soa.num_blocks() > 0 && !geom.scalar_only) ++summarised_rows;
  }
  EXPECT_EQ(serial_tested,
            summarised_rows * static_cast<int64_t>(soa.num_blocks()));
  EXPECT_LE(serial_skipped, serial_tested);
}

// ExpectGraphMatchesOracle plus grid retrieval. Kernel rows and sorted
// grid rows are both ascending, so the comparison is element-exact.
void ExpectKernelMatchesOracle(const Instance& instance) {
  ExpectGraphMatchesOracle(instance);
  const std::vector<std::vector<TaskId>> oracle = OracleRows(instance);
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
                core::IsValidPair(block.TaskAt(k), instance.worker(j),
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
            const bool valid = core::IsValidPair(block.TaskAt(k), w,
                                                 instance.now(), policy);
            ASSERT_EQ(cls[k] == core::kPairAccept, valid)
                << "n=" << n << " worker " << j << " slot " << k;
            const int tail = k >= n / kVectorStep * kVectorStep ? 1 : 0;
            ++(valid ? accepts : rejects)[tail];
          }

          std::vector<TaskId> want;
          for (size_t k = 0; k < n; ++k) {
            if (core::IsValidPair(block.TaskAt(k), w, instance.now(),
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

// The block test against the oracle on every (worker, block) of
// `instance`: the dispatched loop (InstanceSoA::TestBlocks) agrees with
// BlockMayHoldPair, and no rejected block holds a valid pair. Returns the
// number of rejected (worker, block) tests.
int64_t ExpectBlockRejectSound(const Instance& instance) {
  const core::InstanceSoA& soa = instance.soa();
  const core::TaskBlock& block = soa.task_block();
  const size_t nb = soa.num_blocks();
  std::vector<uint8_t> survive(nb + 1);
  int64_t rejected = 0;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    const core::WorkerGeom& geom = soa.worker_geoms()[j];
    survive[nb] = 0xA5;
    soa.TestBlocks(geom, survive.data());
    EXPECT_EQ(survive[nb], 0xA5) << "worker " << j;
    for (size_t b = 0; b < nb; ++b) {
      const bool may = core::BlockMayHoldPair(geom, soa.block_summary(b));
      EXPECT_EQ(survive[b] != 0, may) << "worker " << j << ", block " << b;
      if (may) continue;
      ++rejected;
      const size_t hi = std::min(block.size(), (b + 1) * core::kBlockTasks);
      for (size_t k = b * core::kBlockTasks; k < hi; ++k) {
        EXPECT_FALSE(core::IsValidPair(block.TaskAt(k), instance.worker(j),
                                       instance.now(), instance.policy()))
            << "worker " << j << " block " << b << " task " << block.id[k];
      }
    }
  }
  return rejected;
}

// A worker of `base` with cone width `width` from a seeded start angle,
// or the full circle for width >= 2 pi.
std::vector<Worker> WithConeWidth(const Instance& base, double width) {
  std::vector<Worker> workers = base.workers();
  for (size_t j = 0; j < workers.size(); ++j) {
    if (width >= geo::kTwoPi) {
      workers[j].direction = geo::AngularInterval::FullCircle();
    } else {
      const double lo = 0.37 * static_cast<double>(j);
      workers[j].direction = geo::AngularInterval(lo, lo + width);
    }
  }
  return workers;
}

// Many-block instances (m = 2000, 63 blocks), uniform and skewed, both
// policies, at cone widths around the block test's regime changes: narrow,
// a quarter turn, either side of a half-turn (half-angle pi/2, where the
// cone stops being convex), three quarters, just under a full turn (the
// widened half-angle reaches pi and the direction test switches off) and
// the full circle.
TEST(KernelPropertyTest, BlockRejectIsSoundOnManyBlockInstances) {
  constexpr double kEps = 1e-9;
  const double kWidths[] = {std::numbers::pi / 24.0,
                            std::numbers::pi / 2.0 - kEps,
                            std::numbers::pi - kEps,
                            std::numbers::pi + kEps,
                            1.5 * std::numbers::pi,
                            geo::kTwoPi - kEps,
                            geo::kTwoPi};
  for (bool skewed : {false, true}) {
    gen::WorkloadConfig config = SweepConfig(31, skewed, 1.0);
    config.num_tasks = 2000;
    config.num_workers = 80;
    const Instance generated = gen::GenerateInstance(config);
    for (double width : kWidths) {
      const Instance base(generated.tasks(), WithConeWidth(generated, width),
                          generated.now(), generated.policy());
      for (ArrivalPolicy policy :
           {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
        const Instance instance = WithPolicy(base, policy);
        ASSERT_EQ(instance.soa().num_blocks(), 63u);
        const int64_t rejected = ExpectBlockRejectSound(instance);
        // The test must reject something to be worth running: the cone
        // rejects most blocks of a narrow cone, the reach some of the
        // full circle's.
        EXPECT_GT(rejected, 0) << "width " << width << " skewed " << skewed;
        if (width < std::numbers::pi) {
          EXPECT_GT(rejected, 80 * 63 / 4) << "width " << width;
        }
      }
    }
  }
}

// Inputs on the block test's margins, one zero-extent block of
// kBlockTasks tasks per site so a site's verdict is its block's:
//   - cone edge: sites just inside Contains' 1e-9 rad tolerance past
//     either edge of the cone, which the oracle accepts; without the
//     kAngleEps widening the block test rejects them;
//   - reach: each site's tasks end exactly at the oracle's arrival time
//     (end_max = depart + d/v), at clock 0 and at clock 1e6, where
//     end - depart cancels to a few ulps of 1e6; without the time guard
//     and the relative bands the reach test rejects some of them.
// Every such pair must be accepted by the oracle, so each case is live.
TEST(KernelPropertyTest, BlockRejectHoldsOnItsMargins) {
  const geo::Point origin{0.5, 0.5};
  constexpr int kSites = 24;
  auto site_tasks = [](std::vector<Task>* tasks, geo::Point at, double start,
                       double end) {
    for (size_t k = 0; k < core::kBlockTasks; ++k) {
      Task t;
      t.location = at;
      t.start = start;
      t.end = end;
      tasks->push_back(t);
    }
  };
  auto expect_all_valid = [](const Instance& instance) {
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      ASSERT_TRUE(core::IsValidPair(instance.task(i), instance.worker(0),
                                    instance.now(), instance.policy()))
          << "task " << i << " is not a live boundary case";
    }
  };

  // Cone edge, for a few cone orientations and widths.
  for (double lo : {0.3, 2.0, 4.4}) {
    for (double width : {0.05, 1.2, 3.0}) {
      Worker w;
      w.location = origin;
      w.velocity = 1.0;
      w.direction = geo::AngularInterval(lo, lo + width);
      std::vector<Task> tasks;
      for (int k = 0; k < kSites; ++k) {
        const double d = 0.05 + 0.015 * k;
        for (double angle : {lo + width + 0.5e-9, lo - 0.5e-9}) {
          site_tasks(&tasks,
                     {origin.x + d * std::cos(angle),
                      origin.y + d * std::sin(angle)},
                     0.0, 10.0);
        }
      }
      for (ArrivalPolicy policy :
           {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
        const Instance instance(tasks, {w}, 0.0, policy);
        expect_all_valid(instance);
        EXPECT_EQ(ExpectBlockRejectSound(instance), 0)
            << "lo " << lo << " width " << width;
        ExpectKernelMatchesOracle(instance);
      }
    }
  }

  // Reach: arrivals exactly at end_max.
  for (double now : {0.0, 1e6}) {
    Worker w;
    w.location = origin;
    w.velocity = now == 0.0 ? 0.5 : 1.0;
    std::vector<Task> tasks;
    for (int k = 0; k < 2 * kSites; ++k) {
      const double d = (now == 0.0 ? 0.05 : 0.002) * (1.0 + 0.31 * k);
      const double angle = 0.7 * k;
      Task probe;
      probe.location = {origin.x + d * std::cos(angle),
                        origin.y + d * std::sin(angle)};
      const double arrival =
          core::ArrivalTime(w, probe, now, ArrivalPolicy::kStrict);
      site_tasks(&tasks, probe.location, now, arrival);
    }
    for (ArrivalPolicy policy :
         {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
      const Instance instance(tasks, {w}, now, policy);
      expect_all_valid(instance);
      EXPECT_EQ(ExpectBlockRejectSound(instance), 0) << "now " << now;
      ExpectKernelMatchesOracle(instance);
    }
  }
}

// Degenerate blocks and workers: tasks tied at one site (zero-extent
// blocks), workers inside a block's box or on its edge, huge and
// non-finite coordinates and times. Blocks holding a non-finite or huge
// task carry infinite half extents and survive every worker; a worker
// with huge coordinates rejects nothing; a worker in or on a live block's
// box keeps it.
TEST(KernelPropertyTest, BlockRejectNeverRejectsDegenerateBlocks) {
  gen::WorkloadConfig config = SweepConfig(41, false, std::numbers::pi / 4);
  config.num_tasks = 300;
  config.num_workers = 40;
  const Instance generated = gen::GenerateInstance(config);
  std::vector<Task> base = generated.tasks();
  // 70 tasks tied at one site: at least one whole zero-extent block.
  for (int k = 0; k < 70; ++k) {
    Task t = base[static_cast<size_t>(k)];
    t.location = {0.625, 0.375};
    base.push_back(t);
  }
  // A denormal coordinate is not degenerate.
  Task tiny = base[2];
  tiny.location = {1e-300, 0.2};
  base.push_back(tiny);

  // Each odd task joins `base` alone, so its block is its own.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<Task> odd_tasks;
  for (geo::Point at : {geo::Point{1e120, 0.5}, geo::Point{0.5, -1e200},
                        geo::Point{kNan, 0.5}, geo::Point{0.5, kInf}}) {
    Task t = base[0];
    t.location = at;
    odd_tasks.push_back(t);
  }
  for (double end : {kInf, kNan}) {
    Task t = base[1];
    t.end = end;
    odd_tasks.push_back(t);
  }

  std::vector<Worker> workers = generated.workers();
  Worker tied = workers[0];  // on the tied site
  tied.location = {0.625, 0.375};
  workers.push_back(tied);
  Worker huge = workers[1];
  huge.location = {1e200, -1e200};
  workers.push_back(huge);
  Worker stopped = workers[2];  // scalar_only: oracle business
  stopped.velocity = 0.0;
  workers.push_back(stopped);
  const WorkerId huge_id = static_cast<WorkerId>(workers.size() - 2);

  for (size_t odd = 0; odd <= odd_tasks.size(); ++odd) {
    std::vector<Task> tasks = base;
    if (odd < odd_tasks.size()) tasks.push_back(odd_tasks[odd]);
    const TaskId odd_id = static_cast<TaskId>(base.size());
    for (ArrivalPolicy policy :
         {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
      const Instance instance(tasks, workers, generated.now(), policy);
      const core::InstanceSoA& soa = instance.soa();
      const core::TaskBlock& block = soa.task_block();
      ExpectBlockRejectSound(instance);
      // The grid index files a non-finite location in a fixed cell.
      ExpectKernelMatchesOracle(instance);

      // The odd task's block never rejects; nor does the huge worker.
      bool found = false;
      for (size_t b = 0; b < soa.num_blocks(); ++b) {
        const core::BlockSummary summary = soa.block_summary(b);
        EXPECT_TRUE(
            core::BlockMayHoldPair(soa.worker_geoms()[huge_id], summary))
            << "block " << b;
        const size_t hi = std::min(block.size(), (b + 1) * core::kBlockTasks);
        if (std::find(block.id.begin() + b * core::kBlockTasks,
                      block.id.begin() + hi, odd_id) == block.id.begin() + hi) {
          continue;
        }
        found = true;
        EXPECT_EQ(summary.half_w, kInf) << "odd task " << odd;
        EXPECT_EQ(summary.half_h, kInf) << "odd task " << odd;
        for (const core::WorkerGeom& geom : soa.worker_geoms()) {
          EXPECT_TRUE(core::BlockMayHoldPair(geom, summary))
              << "odd task " << odd;
        }
      }
      EXPECT_EQ(found, odd < odd_tasks.size());
    }
  }

  // A worker at a live block's center, on a corner or on an edge of its
  // box keeps the block whatever its cone: it may have a valid pair in it.
  const Instance instance(base, workers, generated.now());
  const core::InstanceSoA& soa = instance.soa();
  for (size_t b = 0; b < soa.num_blocks(); ++b) {
    const core::BlockSummary s = soa.block_summary(b);
    ASSERT_TRUE(std::isfinite(s.half_w) && std::isfinite(s.half_h));
    ASSERT_GT(s.end_max, 0.0);  // live at clock 0
    for (geo::Point at : {geo::Point{s.cx, s.cy},
                          geo::Point{s.cx + s.half_w, s.cy + s.half_h},
                          geo::Point{s.cx - s.half_w, s.cy - s.half_h},
                          geo::Point{s.cx - s.half_w, s.cy},
                          geo::Point{s.cx, s.cy + s.half_h}}) {
      for (double lo : {0.0, 1.6, 3.2, 4.8}) {
        Worker w = workers[3];
        w.location = at;
        w.velocity = 1.0;
        w.direction = geo::AngularInterval(lo, lo + 1e-3);
        w.available_from = 0.0;
        EXPECT_TRUE(core::BlockMayHoldPair(core::PrecomputeWorker(w, 0.0), s))
            << "block " << b << " lo " << lo;
      }
    }
  }
}

// Order-exact equality on many-block instances: rows come out of the
// Hilbert-ordered block yet must equal the ascending scalar scan element
// for element at 1/2/8-way sharding, with the same block-test counts.
TEST(KernelPropertyTest, ManyBlockRowsMatchAscendingOracle) {
  for (bool skewed : {false, true}) {
    for (double angle : {std::numbers::pi / 6.0, geo::kTwoPi}) {
      gen::WorkloadConfig config = SweepConfig(51, skewed, angle);
      config.num_tasks = 1200;
      config.num_workers = 120;
      const Instance base = gen::GenerateInstance(config);
      for (ArrivalPolicy policy :
           {ArrivalPolicy::kStrict, ArrivalPolicy::kAllowWait}) {
        const Instance instance = WithPolicy(base, policy);
        ASSERT_GT(instance.soa().num_blocks(), 1u);
        ExpectKernelMatchesOracle(instance);
        const core::CandidateGraph graph =
            core::CandidateGraph::Build(instance);
        EXPECT_GT(graph.NumEdges(), 0);
        EXPECT_GT(graph.BlocksSkipped(), 0);
      }
    }
  }
}

// At most two blocks: no spatial order, no summaries, no block tests.
TEST(KernelPropertyTest, SmallInstancesStayInIdOrder) {
  for (size_t m : {size_t{1}, core::kBlockTasks, core::kMaxUnorderedTasks}) {
    gen::WorkloadConfig config = SweepConfig(61, false, 1.0);
    config.num_tasks = static_cast<int>(m);
    config.num_workers = 20;
    const Instance instance = gen::GenerateInstance(config);
    const core::InstanceSoA& soa = instance.soa();
    EXPECT_EQ(soa.num_blocks(), 0u);
    for (size_t k = 0; k < soa.task_block().size(); ++k) {
      EXPECT_EQ(soa.task_block().id[k], static_cast<TaskId>(k));
    }
    const core::CandidateGraph graph = core::CandidateGraph::Build(instance);
    EXPECT_EQ(graph.BlocksTested(), 0);
    EXPECT_EQ(graph.BlocksSkipped(), 0);
  }
  gen::WorkloadConfig config = SweepConfig(61, false, 1.0);
  config.num_tasks = static_cast<int>(core::kMaxUnorderedTasks + 1);
  EXPECT_EQ(gen::GenerateInstance(config).soa().num_blocks(), 3u);
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
