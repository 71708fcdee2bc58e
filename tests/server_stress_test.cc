// Tentpole acceptance for the async admission server: a seeded, scripted
// arrival schedule (genny-style, see stress_util.h) replayed by real
// concurrent submitter threads must produce bit-identical per-ticket
// results across {1, 2, 8} dispatch workers and across reruns. Worker
// count and scheduling may only change wall-clock time, never answers --
// the PR-3 determinism contract extended to the async layer.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/server.h"
#include "gtest/gtest.h"
#include "stress_util.h"

namespace rdbsc {
namespace {

using test::MakeStressScript;
using test::ReplayScript;
using test::StressScript;

engine::ServerConfig StressConfig(const std::string& solver_name) {
  engine::ServerConfig config;
  config.engine.solver_name = solver_name;
  config.engine.solver_options.seed = 99;
  // Generated instances are valid by construction; skip re-validation.
  config.engine.validate_instances = false;
  // kBlock with ample depth: no request is ever rejected or shed, so the
  // outcome set is exactly the scripted set (shedding depends on timing
  // and would make the replay outcome scheduling-dependent).
  config.max_queue_depth = 256;
  config.overload_policy = engine::OverloadPolicy::kBlock;
  return config;
}

TEST(ServerStressTest, BitIdenticalAcrossWorkerCountsDC) {
  StressScript script = MakeStressScript(/*seed=*/2026, /*num_submitters=*/4,
                                         /*arrivals_per_submitter=*/6);
  std::vector<std::string> baseline =
      ReplayScript(script, StressConfig("dc"), /*num_workers=*/1);
  ASSERT_EQ(baseline.size(), 24u);
  for (const std::string& print : baseline) {
    EXPECT_EQ(print.rfind("code=0;", 0), 0u) << print;
  }
  for (int workers : {1, 2, 8}) {
    std::vector<std::string> replay =
        ReplayScript(script, StressConfig("dc"), workers);
    EXPECT_EQ(replay, baseline) << workers << " workers";
  }
}

TEST(ServerStressTest, BitIdenticalAcrossWorkerCountsSampling) {
  StressScript script = MakeStressScript(/*seed=*/515, /*num_submitters=*/3,
                                         /*arrivals_per_submitter=*/5);
  std::vector<std::string> baseline =
      ReplayScript(script, StressConfig("sampling"), /*num_workers=*/1);
  ASSERT_EQ(baseline.size(), 15u);
  for (int workers : {2, 8}) {
    std::vector<std::string> replay =
        ReplayScript(script, StressConfig("sampling"), workers);
    EXPECT_EQ(replay, baseline) << workers << " workers";
  }
}

TEST(ServerStressTest, RerunOfSameScriptIsBitIdentical) {
  StressScript script = MakeStressScript(/*seed=*/77, /*num_submitters=*/2,
                                         /*arrivals_per_submitter=*/8);
  std::vector<std::string> first =
      ReplayScript(script, StressConfig("greedy"), /*num_workers=*/8);
  std::vector<std::string> second =
      ReplayScript(script, StressConfig("greedy"), /*num_workers=*/8);
  EXPECT_EQ(first, second);
}

TEST(ServerStressTest, ScriptGenerationIsDeterministic) {
  StressScript a = MakeStressScript(11, 3, 4);
  StressScript b = MakeStressScript(11, 3, 4);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (size_t s = 0; s < a.arrivals.size(); ++s) {
    ASSERT_EQ(a.arrivals[s].size(), b.arrivals[s].size());
    for (size_t i = 0; i < a.arrivals[s].size(); ++i) {
      EXPECT_EQ(a.arrivals[s][i].instance_seed, b.arrivals[s][i].instance_seed);
      EXPECT_EQ(a.arrivals[s][i].num_tasks, b.arrivals[s][i].num_tasks);
      EXPECT_EQ(a.arrivals[s][i].num_workers, b.arrivals[s][i].num_workers);
      EXPECT_EQ(a.arrivals[s][i].priority, b.arrivals[s][i].priority);
    }
  }
  StressScript c = MakeStressScript(12, 3, 4);
  EXPECT_NE(a.arrivals[0][0].instance_seed, c.arrivals[0][0].instance_seed);
}

}  // namespace
}  // namespace rdbsc
