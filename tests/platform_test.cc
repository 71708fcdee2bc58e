#include "sim/platform.h"

#include <cmath>
#include <set>
#include <string>

#include "core/registry.h"
#include "geo/angle.h"
#include "gtest/gtest.h"
#include "obs/registry.h"
#include "sim/aggregation.h"
#include "test_util.h"
#include "util/hash.h"
#include "util/rng.h"

namespace rdbsc::sim {
namespace {

PlatformConfig SmallPlatform(uint64_t seed,
                             const char* solver = "greedy") {
  PlatformConfig config;
  config.seed = seed;
  config.solver_name = solver;
  return config;
}

/// Small enough for every registered solver, including the EXACT oracle
/// (its population num_sites^num_workers stays under the cap).
PlatformConfig TinyPlatform(uint64_t seed, const char* solver) {
  PlatformConfig config = SmallPlatform(seed, solver);
  config.num_sites = 3;
  config.num_workers = 6;
  return config;
}

/// One digest of everything a run reports: every round, every answer, the
/// final objectives and the accuracy error.
util::Hash128 TrajectoryDigest(const PlatformResult& result) {
  util::Hasher hasher;
  hasher.Mix(static_cast<int64_t>(result.rounds.size()));
  for (const RoundRecord& round : result.rounds) {
    hasher.Mix(round.time)
        .Mix(round.newly_assigned)
        .Mix(round.objectives.min_reliability)
        .Mix(round.objectives.total_std);
  }
  hasher.Mix(static_cast<int64_t>(result.answers.size()));
  for (const Answer& answer : result.answers) {
    hasher.Mix(answer.task)
        .Mix(answer.worker)
        .Mix(answer.angle)
        .Mix(answer.time)
        .Mix(answer.quality);
  }
  hasher.Mix(result.final_objectives.min_reliability)
      .Mix(result.final_objectives.total_std)
      .Mix(result.assignments_made)
      .Mix(result.answers_received)
      .Mix(result.mean_accuracy_error);
  return hasher.Digest();
}

TEST(PlatformTest, RunsAndProducesAnswers) {
  Platform platform(SmallPlatform(1));
  PlatformResult result = platform.Run().value();
  EXPECT_GT(result.assignments_made, 0);
  EXPECT_GT(result.answers_received, 0);
  EXPECT_GE(result.assignments_made, result.answers_received);
  EXPECT_FALSE(result.rounds.empty());
}

TEST(PlatformTest, AnswersRespectTaskPeriods) {
  Platform platform(SmallPlatform(2));
  PlatformResult result = platform.Run().value();
  PlatformConfig config = SmallPlatform(2);
  for (const Answer& answer : result.answers) {
    EXPECT_GE(answer.time, 0.0);
    EXPECT_LE(answer.time, config.task_open_time + 1e-9);
    EXPECT_GE(answer.quality, 0.0);
    EXPECT_LE(answer.quality, 1.0);
    EXPECT_GE(answer.task, 0);
    EXPECT_LT(answer.task, config.num_sites);
  }
}

TEST(PlatformTest, AccuracyErrorInUnitRange) {
  Platform platform(SmallPlatform(3, "sampling"));
  PlatformResult result = platform.Run().value();
  EXPECT_GE(result.mean_accuracy_error, 0.0);
  EXPECT_LE(result.mean_accuracy_error, 1.0);
}

TEST(PlatformTest, SmallerIntervalMeansMoreRounds) {
  PlatformConfig fast = SmallPlatform(4);
  fast.t_interval = 1.0 / 60.0;
  PlatformConfig slow = SmallPlatform(4);
  slow.t_interval = 4.0 / 60.0;
  PlatformResult fast_result = Platform(fast).Run().value();
  PlatformResult slow_result = Platform(slow).Run().value();
  EXPECT_GT(fast_result.rounds.size(), slow_result.rounds.size());
}

TEST(PlatformTest, FinalObjectivesNonNegative) {
  Platform platform(SmallPlatform(5, "sampling"));
  PlatformResult result = platform.Run().value();
  EXPECT_GE(result.final_objectives.total_std, 0.0);
  EXPECT_GE(result.final_objectives.min_reliability, 0.0);
  EXPECT_LE(result.final_objectives.min_reliability, 1.0);
}

TEST(PlatformTest, DeterministicForSeed) {
  PlatformResult a = Platform(SmallPlatform(6)).Run().value();
  PlatformResult b = Platform(SmallPlatform(6)).Run().value();
  EXPECT_EQ(a.answers_received, b.answers_received);
  EXPECT_DOUBLE_EQ(a.final_objectives.total_std,
                   b.final_objectives.total_std);
}

TEST(PlatformTest, UnknownSolverNameSurfacesFromRun) {
  Platform platform(SmallPlatform(7, "no-such-solver"));
  util::StatusOr<PlatformResult> run = platform.Run();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kNotFound);
}

// Satellite requirement: the platform must run end-to-end with *every*
// registered solver name, including the EXACT oracle -- which is why this
// configuration is kept tiny (population <= num_sites^num_workers).
TEST(PlatformTest, RunsEndToEndWithEachRegisteredSolver) {
  for (const std::string& name : core::SolverRegistry::Global().Names()) {
    Platform platform(TinyPlatform(8, name.c_str()));
    util::StatusOr<PlatformResult> run = platform.Run();
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    EXPECT_GT(run.value().assignments_made, 0) << name;
    EXPECT_GE(run.value().final_objectives.total_std, 0.0) << name;
  }
}

// The round engine and the objective preview time exactly the rounds the
// platform records.
TEST(PlatformTest, RoundTimersCountRecordedRounds) {
  obs::Registry registry;
  PlatformConfig config = SmallPlatform(10);
  config.metrics = &registry;
  PlatformResult result = Platform(config).Run().value();
  const obs::Labels labels = {{"solver", "greedy"}};
  const int64_t rounds = registry.GetCounter("sim.rounds", labels).value();
  EXPECT_EQ(rounds, static_cast<int64_t>(result.rounds.size()));
  EXPECT_GT(rounds, 0);
  EXPECT_EQ(registry.GetHistogram("sim.round_build_seconds", labels, 1e-9)
                .Snapshot()
                .count(),
            rounds);
  EXPECT_EQ(registry.GetHistogram("sim.round_solve_seconds", labels, 1e-9)
                .Snapshot()
                .count(),
            rounds);
  EXPECT_EQ(
      registry.GetHistogram("sim.round_objectives_seconds", labels, 1e-9)
          .Snapshot()
          .count(),
      rounds);
}

// Pinned trajectories: every registered solver at two seeds. The digests
// were captured from the per-tick CandidateGraph::Build platform, so they
// also pin the round engine's planned builds to the full rebuild.
TEST(PlatformTest, TrajectoryGolden) {
  struct Golden {
    const char* solver;
    uint64_t seed;
    const char* digest;
  };
  constexpr Golden kGolden[] = {
      {"dc", 8, "fc4f4ecd016232da588a4c4902b1aabe"},
      {"dc", 9, "ff6a3aa5f867525afac2ce58499f3531"},
      {"exact", 8, "75d156f3210e48a3debfbedadeb1757d"},
      {"exact", 9, "b8baa16beda9b840f4bac627a40f1ac5"},
      {"greedy", 8, "c3ccf63353ab3e19d8256e77e14bd4b0"},
      {"greedy", 9, "5e26c14c5bc78bd304259bb07a12df18"},
      {"gtruth", 8, "04ea3905f5502f7a8ea5c38925fe76c8"},
      {"gtruth", 9, "f374a3db8e614b749d7c2d3bf63318f7"},
      {"sampling", 8, "914aab1e96c45d11128e78a07b546043"},
      {"sampling", 9, "10e1397053b868bf8f720417bcb3cb45"},
      {"worker-greedy", 8, "1d73f372634db7e3366a711c6caf300b"},
      {"worker-greedy", 9, "9d6f0a3680a87c0072e51c86fc7e0c14"},
  };
  std::set<std::string> pinned;
  for (const Golden& golden : kGolden) {
    util::StatusOr<PlatformResult> run =
        Platform(TinyPlatform(golden.seed, golden.solver)).Run();
    ASSERT_TRUE(run.ok()) << golden.solver << ": " << run.status().ToString();
    EXPECT_EQ(TrajectoryDigest(run.value()).ToHex(), golden.digest)
        << golden.solver << " seed " << golden.seed;
    pinned.insert(golden.solver);
  }
  for (const std::string& name : core::SolverRegistry::Global().Names()) {
    EXPECT_TRUE(pinned.contains(name)) << name << " has no golden trajectory";
  }
}

TEST(AggregationTest, PicksBestPerBucket) {
  core::Task task = rdbsc::test::MakeTask(0.5, 0.0, 1.0);
  std::vector<Answer> answers;
  // Two answers in the same angular/time bucket; the better quality wins.
  answers.push_back({.task = 0, .worker = 0, .angle = 0.1, .time = 0.1,
                     .quality = 0.5});
  answers.push_back({.task = 0, .worker = 1, .angle = 0.12, .time = 0.12,
                     .quality = 0.9});
  // One answer far away in angle.
  answers.push_back({.task = 0, .worker = 2, .angle = 3.2, .time = 0.1,
                     .quality = 0.4});
  std::vector<Answer> reps = AggregateAnswers(task, answers);
  ASSERT_EQ(reps.size(), 2u);
  bool found_best = false;
  for (const Answer& rep : reps) {
    if (rep.worker == 1) found_best = true;
    EXPECT_NE(rep.worker, 0);  // dominated by worker 1 in the same bucket
  }
  EXPECT_TRUE(found_best);
}

TEST(AggregationTest, EmptyInput) {
  core::Task task = rdbsc::test::MakeTask();
  EXPECT_TRUE(AggregateAnswers(task, {}).empty());
}

TEST(AggregationTest, BucketCountBoundsOutput) {
  core::Task task = rdbsc::test::MakeTask(0.5, 0.0, 1.0);
  std::vector<Answer> answers;
  util::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    answers.push_back({.task = 0,
                       .worker = i,
                       .angle = rng.Uniform(0, geo::kTwoPi),
                       .time = rng.Uniform(0, 1),
                       .quality = rng.Uniform(0, 1)});
  }
  AggregationConfig config;
  config.angle_buckets = 4;
  config.time_buckets = 2;
  std::vector<Answer> reps = AggregateAnswers(task, answers, config);
  EXPECT_LE(reps.size(), 8u);
  EXPECT_GT(reps.size(), 0u);
}

}  // namespace
}  // namespace rdbsc::sim
