// Determinism gate over the checked-in declarative workloads: every
// workloads/*.wl scenario is compiled once and replayed at {1, 2, 8}
// dispatch workers x 2 reruns; all six fingerprint vectors must be
// bit-identical to the first. Runs flooded (time_dilation 0) so the
// whole sweep is fast, which is exactly the point -- fingerprints are
// pacing-independent by construction. Registered under the `stress` and
// `workload` ctest labels and runs under the TSan CI job.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "wl/compile.h"
#include "wl/runner.h"
#include "wl/spec.h"

#ifndef RDBSC_WORKLOADS_DIR
#define RDBSC_WORKLOADS_DIR "workloads"
#endif

namespace rdbsc::wl {
namespace {

std::vector<std::string> CheckedInWorkloads() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(RDBSC_WORKLOADS_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".wl") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string TestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string stem = std::filesystem::path(info.param).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

class WorkloadReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadReplay, FingerprintsBitIdenticalAcrossWorkersAndReruns) {
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadFile(GetParam());
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  util::StatusOr<CompiledWorkload> compiled = CompileWorkload(spec.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  ASSERT_GT(compiled.value().total_ops, 0);

  std::vector<std::string> reference;
  for (int workers : {1, 2, 8}) {
    for (int rerun = 0; rerun < 2; ++rerun) {
      ReplayOptions options;
      options.num_workers = workers;
      options.time_dilation = 0.0;
      util::StatusOr<ReplayReport> report =
          ReplayWorkload(compiled.value(), options);
      ASSERT_TRUE(report.ok())
          << "workers=" << workers << ": " << report.status().message();
      ASSERT_EQ(static_cast<int64_t>(report.value().fingerprints.size()),
                compiled.value().total_ops);
      if (reference.empty()) {
        reference = report.value().fingerprints;
      } else {
        EXPECT_EQ(report.value().fingerprints, reference)
            << GetParam() << " diverged at workers=" << workers
            << " rerun=" << rerun;
      }
    }
  }
  // The digest is a pure function of the vector; log it for cross-checks
  // against bench_workload_replay output.
  SCOPED_TRACE(FingerprintDigest(reference));
  EXPECT_FALSE(reference.empty());
}

INSTANTIATE_TEST_SUITE_P(CheckedIn, WorkloadReplay,
                         ::testing::ValuesIn(CheckedInWorkloads()), TestName);

TEST(WorkloadReplayContract, AllScenariosPresent) {
  // Guard against the suite silently shrinking: the repo ships (at least)
  // these scenarios, one per stress family named in the roadmap.
  std::vector<std::string> stems;
  for (const std::string& path : CheckedInWorkloads()) {
    stems.push_back(std::filesystem::path(path).stem().string());
  }
  for (const char* required :
       {"rush_hour", "hotspot_skew", "cache_storm", "overload_block",
        "overload_reject", "drain_restart", "sampling_mix"}) {
    EXPECT_NE(std::find(stems.begin(), stems.end(), required), stems.end())
        << "missing workloads/" << required << ".wl";
  }
}

TEST(WorkloadReplayContract, PacingDoesNotChangeFingerprints) {
  // Dilation scales open-loop sleeps only; replaying the same compiled
  // workload flooded vs. (mildly) paced must agree bit-for-bit.
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadFile(
      std::string(RDBSC_WORKLOADS_DIR) + "/cache_storm.wl");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  util::StatusOr<CompiledWorkload> compiled = CompileWorkload(spec.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();

  ReplayOptions flooded;
  flooded.num_workers = 2;
  flooded.time_dilation = 0.0;
  ReplayOptions paced = flooded;
  paced.time_dilation = 0.25;

  util::StatusOr<ReplayReport> a = ReplayWorkload(compiled.value(), flooded);
  util::StatusOr<ReplayReport> b = ReplayWorkload(compiled.value(), paced);
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(b.ok()) << b.status().message();
  EXPECT_EQ(a.value().fingerprints, b.value().fingerprints);
}

TEST(WorkloadReplayContract, CacheDoesNotChangeFingerprints) {
  // Cache hits replay the cold solve bit for bit, so the duplicate-heavy
  // cache_storm must answer the same with its cache as with none
  // (capacity 0: no cache). Its block policy keeps the cache-less server
  // from turning into rejections.
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadFile(
      std::string(RDBSC_WORKLOADS_DIR) + "/cache_storm.wl");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  WorkloadSpec uncached = spec.value();
  uncached.cache_result_entries = 0;
  util::StatusOr<CompiledWorkload> with_cache = CompileWorkload(spec.value());
  util::StatusOr<CompiledWorkload> without = CompileWorkload(uncached);
  ASSERT_TRUE(with_cache.ok()) << with_cache.status().message();
  ASSERT_TRUE(without.ok()) << without.status().message();

  for (int workers : {1, 2, 8}) {
    ReplayOptions options;
    options.num_workers = workers;
    options.time_dilation = 0.0;
    util::StatusOr<ReplayReport> a = ReplayWorkload(with_cache.value(), options);
    util::StatusOr<ReplayReport> b = ReplayWorkload(without.value(), options);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_TRUE(b.ok()) << b.status().message();
    EXPECT_GT(a.value().server.cache_hits, 0)
        << "cache_storm no longer exercises the cache";
    EXPECT_EQ(b.value().server.cache_hits, 0);
    EXPECT_EQ(a.value().fingerprints, b.value().fingerprints)
        << "workers=" << workers;
  }
}

TEST(WorkloadReplayContract, RestartPhasesSpawnFreshServerGenerations) {
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadFile(
      std::string(RDBSC_WORKLOADS_DIR) + "/drain_restart.wl");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  util::StatusOr<CompiledWorkload> compiled = CompileWorkload(spec.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();

  ReplayOptions options;
  options.num_workers = 2;
  options.time_dilation = 0.0;
  util::StatusOr<ReplayReport> report =
      ReplayWorkload(compiled.value(), options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  // warm | cold (restart) | wind_down (restart) => three generations.
  EXPECT_EQ(report.value().server_generations, 3);
  // Every op is accounted for in exactly one phase tally.
  int64_t total = 0;
  for (const PhaseReport& phase : report.value().phases) {
    EXPECT_EQ(phase.ops, phase.ok + phase.cancelled + phase.errors);
    total += phase.ops;
  }
  EXPECT_EQ(total, compiled.value().total_ops);
}

}  // namespace
}  // namespace rdbsc::wl
