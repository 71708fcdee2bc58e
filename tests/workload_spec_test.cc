// Parser-level tests of the declarative workload format (src/wl/spec.h):
// golden round-trips through the canonical printer, template/include
// composition, include-cycle detection, and a table of known-bad inputs
// asserting each error's exact file:line:col position and message.

#include "wl/spec.h"

#include <map>
#include <string>

#include "gtest/gtest.h"
#include "wl/compile.h"

namespace rdbsc::wl {
namespace {

/// In-memory file set standing in for the filesystem loader.
FileLoader MapLoader(std::map<std::string, std::string> files) {
  return [files = std::move(files)](
             const std::string& path) -> util::StatusOr<std::string> {
    auto it = files.find(path);
    if (it == files.end()) {
      return util::Status::NotFound("no such file '" + path + "'");
    }
    return it->second;
  };
}

constexpr char kFullSpec[] = R"(# every construct in one document
workload full
seed 9
solver greedy
policy shed
queue_depth 40
cache rw
cache_entries 128

template base {
  mode closed
  submitters 3
  tasks 4 9
  workers 8 16
  mix submit 2 urgent 1
}

phase first extends base {
  iterations 5
  priority 1 4
  seed_pool 100
  dist skewed
  cache ro
}

phase second {
  mode open
  submitters 2
  rate 25.5
  duration 0.75
  arrival poisson
  restart on
  mix cached 3 uncached 1 cancel 1
}
)";

TEST(WorkloadSpec, ParsesEveryConstruct) {
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(kFullSpec, "full.wl");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  const WorkloadSpec& s = spec.value();
  EXPECT_EQ(s.name, "full");
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.solver, "greedy");
  EXPECT_EQ(s.policy, engine::OverloadPolicy::kShedOldest);
  // 40 covers the open phase's worst case (2 submitters x 19 ops) under
  // the shed policy's capacity guard.
  EXPECT_EQ(s.queue_depth, 40);
  EXPECT_EQ(s.cache_mode, engine::CacheMode::kReadWrite);
  EXPECT_EQ(s.cache_result_entries, 128);
  ASSERT_EQ(s.phases.size(), 2u);

  const PhaseSpec& first = s.phases[0];
  EXPECT_EQ(first.name, "first");
  EXPECT_EQ(first.mode, PhaseMode::kClosed);
  EXPECT_EQ(first.submitters, 3);  // inherited from `base`
  EXPECT_EQ(first.iterations, 5);  // overridden
  EXPECT_EQ(first.tasks_min, 4);
  EXPECT_EQ(first.tasks_max, 9);
  EXPECT_EQ(first.priority_min, 1);
  EXPECT_EQ(first.priority_max, 4);
  EXPECT_EQ(first.seed_pool, 100);
  EXPECT_TRUE(first.skewed);
  EXPECT_EQ(first.cache, engine::CacheMode::kReadOnly);
  EXPECT_FALSE(first.restart);
  ASSERT_EQ(first.mix.size(), 2u);  // inherited mix
  EXPECT_EQ(first.mix[0].op, OpKind::kSubmit);
  EXPECT_EQ(first.mix[0].weight, 2);
  EXPECT_EQ(first.mix[1].op, OpKind::kUrgent);

  const PhaseSpec& second = s.phases[1];
  EXPECT_EQ(second.mode, PhaseMode::kOpen);
  EXPECT_DOUBLE_EQ(second.rate_per_second, 25.5);
  EXPECT_DOUBLE_EQ(second.duration_seconds, 0.75);
  EXPECT_EQ(second.arrival, ArrivalProcess::kPoisson);
  EXPECT_TRUE(second.restart);
  ASSERT_EQ(second.mix.size(), 3u);
  EXPECT_EQ(second.mix[0].op, OpKind::kCached);
  EXPECT_EQ(second.mix[1].op, OpKind::kUncached);
  EXPECT_EQ(second.mix[2].op, OpKind::kCancel);
}

TEST(WorkloadSpec, DumpRoundTripsToAFixedPoint) {
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(kFullSpec, "full.wl");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  std::string dump = DumpSpec(spec.value());

  util::StatusOr<WorkloadSpec> reparsed = ParseWorkloadText(dump, "dump.wl");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(DumpSpec(reparsed.value()), dump);
}

TEST(WorkloadSpec, DefaultsAreAppliedAndRoundTrip) {
  util::StatusOr<WorkloadSpec> spec =
      ParseWorkloadText("phase only {\n}\n", "tiny.wl");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  const WorkloadSpec& s = spec.value();
  EXPECT_EQ(s.name, "tiny");  // falls back to the source stem
  EXPECT_EQ(s.solver, "dc");
  EXPECT_EQ(s.policy, engine::OverloadPolicy::kBlock);
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].mode, PhaseMode::kClosed);
  EXPECT_EQ(s.phases[0].submitters, 2);
  ASSERT_EQ(s.phases[0].mix.size(), 1u);
  EXPECT_EQ(s.phases[0].mix[0].op, OpKind::kSubmit);

  std::string dump = DumpSpec(s);
  util::StatusOr<WorkloadSpec> reparsed = ParseWorkloadText(dump, "tiny.wl");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(DumpSpec(reparsed.value()), dump);
}

TEST(WorkloadSpec, IncludeSplicesTemplatesAndSettings) {
  FileLoader loader = MapLoader({
      {"lib/common.wl", "solver greedy\ntemplate base {\n  submitters 7\n}\n"},
  });
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(
      "include \"lib/common.wl\"\nphase p extends base {\n}\n", "main.wl",
      loader);
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec.value().solver, "greedy");
  ASSERT_EQ(spec.value().phases.size(), 1u);
  EXPECT_EQ(spec.value().phases[0].submitters, 7);
}

TEST(WorkloadSpec, IncludePathsResolveRelativeToIncluder) {
  FileLoader loader = MapLoader({
      {"dir/a.wl", "include \"b.wl\"\n"},
      {"dir/b.wl", "seed 77\n"},
  });
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(
      "include \"dir/a.wl\"\nphase p {\n}\n", "main.wl", loader);
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec.value().seed, 77u);
}

TEST(WorkloadSpec, PhaseMayExtendEarlierPhase) {
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(
      "phase a {\n  submitters 5\n}\nphase b extends a {\n  iterations 9\n}\n",
      "x.wl");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  ASSERT_EQ(spec.value().phases.size(), 2u);
  EXPECT_EQ(spec.value().phases[1].submitters, 5);
  EXPECT_EQ(spec.value().phases[1].iterations, 9);
}

TEST(WorkloadSpec, IncludeCycleIsDetected) {
  FileLoader loader = MapLoader({
      {"a.wl", "include \"b.wl\"\n"},
      {"b.wl", "include \"a.wl\"\n"},
  });
  util::StatusOr<WorkloadSpec> spec =
      ParseWorkloadText("include \"a.wl\"\n", "main.wl", loader);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("include cycle"), std::string::npos)
      << spec.status().message();
  EXPECT_NE(spec.status().message().find("a.wl -> b.wl -> a.wl"),
            std::string::npos)
      << spec.status().message();
}

TEST(WorkloadSpec, SelfIncludeIsACycle) {
  FileLoader loader = MapLoader({{"a.wl", "include \"a.wl\"\n"}});
  util::StatusOr<WorkloadSpec> spec =
      ParseWorkloadText("include \"a.wl\"\n", "main.wl", loader);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("include cycle"), std::string::npos);
}

TEST(WorkloadSpec, MissingIncludeReportsTheLoaderError) {
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(
      "include \"nope.wl\"\n", "main.wl", MapLoader({}));
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("main.wl:1:9"), std::string::npos)
      << spec.status().message();
  EXPECT_NE(spec.status().message().find("nope.wl"), std::string::npos);
}

/// Known-bad inputs: each must fail with the expected positioned message.
struct BadCase {
  const char* name;
  const char* text;
  const char* expect;  ///< substring of the error, starting "file:line:col"
};

TEST(WorkloadSpecErrors, PositionsAndMessagesAreExact) {
  const BadCase cases[] = {
      {"unknown statement", "wibble 3\n", "bad.wl:1:1: unknown statement 'wibble'"},
      {"unknown policy", "policy blok\n",
       "bad.wl:1:8: unknown admission policy 'blok' (expected "
       "block|reject|shed)"},
      {"unknown mode", "phase p {\n  mode sideways\n}\n",
       "bad.wl:2:8: unknown mode 'sideways' (expected closed|open)"},
      {"unknown phase key", "phase p {\n  colour red\n}\n",
       "bad.wl:2:3: unknown phase key 'colour'"},
      {"bad weight", "phase p {\n  mix submit -1\n}\n",
       "bad.wl:2:14: expected a non-negative integer, got '-1'"},
      {"non-numeric weight", "phase p {\n  mix submit lots\n}\n",
       "bad.wl:2:14: expected an integer, got 'lots'"},
      {"unknown op kind", "phase p {\n  mix teleport 1\n}\n",
       "bad.wl:2:7: unknown op kind 'teleport' (expected "
       "submit|urgent|cached|uncached|cancel)"},
      {"odd mix tokens", "phase p {\n  mix submit\n}\n",
       "bad.wl:2:3: 'mix' expects op/weight pairs"},
      {"zero mix total", "phase p {\n  mix submit 0 cancel 0\n}\n",
       "bad.wl:2:3: mix weights must sum to > 0"},
      {"duplicate mix op", "phase p {\n  mix submit 1 submit 2\n}\n",
       "bad.wl:2:16: duplicate op kind 'submit' in mix"},
      {"empty range", "phase p {\n  tasks 9 3\n}\n",
       "bad.wl:2:9: empty range: 9 > 3"},
      {"missing argument", "seed\n", "bad.wl:1:1: 'seed' expects 1 argument"},
      {"trailing token", "seed 1 2\n",
       "bad.wl:1:8: unexpected token '2' after 'seed'"},
      {"two cache_entries arguments", "cache_entries 128 32\n",
       "bad.wl:1:19: unexpected token '32' after 'cache_entries'"},
      {"bad integer", "queue_depth many\n",
       "bad.wl:1:13: expected an integer, got 'many'"},
      {"zero queue depth", "queue_depth 0\n",
       "bad.wl:1:13: queue_depth must be >= 1"},
      {"unknown cache mode", "cache sideways\n",
       "bad.wl:1:7: unknown cache mode 'sideways' (expected off|ro|wo|rw)"},
      {"top-level cache default", "cache default\n",
       "bad.wl:1:7: unknown cache mode 'default'"},
      {"unknown template", "phase p extends nope {\n}\n",
       "bad.wl:1:17: unknown template 'nope'"},
      {"duplicate phase", "phase p {\n}\nphase p {\n}\n",
       "bad.wl:3:7: duplicate phase name 'p'"},
      {"unmatched close", "}\n", "bad.wl:1:1: unmatched '}'"},
      {"unterminated block", "phase p {\n  mode open\n",
       "bad.wl:2:1: unterminated block for 'p' (missing '}')"},
      {"unterminated string", "include \"x\n",
       "bad.wl:1:9: unterminated string literal"},
      {"unquoted include", "include x.wl\n",
       "bad.wl:1:9: include path must be a \"quoted\" string"},
      {"include without loader", "include \"x.wl\"\n",
       "bad.wl:1:1: includes are not available here"},
      {"bad block header", "phase p extends {\n}\n",
       "bad.wl:1:1: expected 'phase NAME [extends BASE] {'"},
      {"invalid phase name", "phase 9lives {\n}\n",
       "bad.wl:1:7: invalid phase name '9lives'"},
      {"statement inside nothing", "mode open\n",
       "bad.wl:1:1: unknown statement 'mode'"},
  };
  for (const BadCase& test_case : cases) {
    util::StatusOr<WorkloadSpec> spec =
        ParseWorkloadText(test_case.text, "bad.wl");
    ASSERT_FALSE(spec.ok()) << test_case.name;
    EXPECT_NE(spec.status().message().find(test_case.expect),
              std::string::npos)
        << test_case.name << ": got \"" << spec.status().message() << "\"";
  }
}

TEST(WorkloadCompile, OpenPhaseDerivesOpCountFromRateTimesDuration) {
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(
      "phase p {\n  mode open\n  submitters 2\n  rate 10\n  duration 0.5\n}\n",
      "x.wl");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  util::StatusOr<CompiledWorkload> compiled = CompileWorkload(spec.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  ASSERT_EQ(compiled.value().phases.size(), 1u);
  EXPECT_EQ(compiled.value().phases[0].total_ops, 10);  // 2 x floor(10*0.5)
  // Fixed arrivals are evenly spaced at 1/rate.
  const CompiledSubmitter& submitter =
      compiled.value().phases[0].submitters[0];
  ASSERT_EQ(submitter.ops.size(), 5u);
  EXPECT_DOUBLE_EQ(submitter.ops[0].arrival_offset_seconds, 0.0);
  EXPECT_DOUBLE_EQ(submitter.ops[3].arrival_offset_seconds, 0.3);
}

TEST(WorkloadCompile, RejectsOpenPhaseWithoutRate) {
  util::StatusOr<WorkloadSpec> spec =
      ParseWorkloadText("phase p {\n  mode open\n}\n", "x.wl");
  ASSERT_TRUE(spec.ok());
  util::StatusOr<CompiledWorkload> compiled = CompileWorkload(spec.value());
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("open mode requires rate > 0"),
            std::string::npos);
}

TEST(WorkloadCompile, RejectsUnknownSolver) {
  util::StatusOr<WorkloadSpec> spec =
      ParseWorkloadText("solver quantum\nphase p {\n}\n", "x.wl");
  ASSERT_TRUE(spec.ok());
  util::StatusOr<CompiledWorkload> compiled = CompileWorkload(spec.value());
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("unknown solver 'quantum'"),
            std::string::npos);
}

TEST(WorkloadCompile, CapacityGuardRejectsTimingDependentAdmission) {
  // 9 closed-loop submitters against an 8-deep queue under kReject: the
  // 9th outstanding submission *may* be rejected depending on dispatch
  // timing, so the compiler must refuse.
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(
      "policy reject\nqueue_depth 8\nphase p {\n  submitters 9\n}\n", "x.wl");
  ASSERT_TRUE(spec.ok());
  util::StatusOr<CompiledWorkload> compiled = CompileWorkload(spec.value());
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("timing-dependent"),
            std::string::npos)
      << compiled.status().message();

  // Exactly at capacity is provably safe and accepted.
  spec = ParseWorkloadText(
      "policy reject\nqueue_depth 8\nphase p {\n  submitters 8\n}\n", "x.wl");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(CompileWorkload(spec.value()).ok());

  // Blocking admission never rejects, so any load is fine.
  spec = ParseWorkloadText(
      "policy block\nqueue_depth 8\nphase p {\n  submitters 9\n}\n", "x.wl");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(CompileWorkload(spec.value()).ok());
}

TEST(WorkloadCompile, EnforcesCaps) {
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(
      "phase p {\n  iterations 100000\n}\n", "x.wl");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(CompileWorkload(spec.value()).ok());

  spec = ParseWorkloadText("phase p {\n  tasks 1 9999\n}\n", "x.wl");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(CompileWorkload(spec.value()).ok());

  spec = ParseWorkloadText("", "x.wl");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(CompileWorkload(spec.value()).ok());  // no phases
}

TEST(WorkloadCompile, DoubleCompileIsByteIdentical) {
  util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(kFullSpec, "full.wl");
  ASSERT_TRUE(spec.ok());
  util::StatusOr<CompiledWorkload> first = CompileWorkload(spec.value());
  util::StatusOr<CompiledWorkload> second = CompileWorkload(spec.value());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(CompiledDebugString(first.value()),
            CompiledDebugString(second.value()));
}

TEST(WorkloadCompile, StreamsAreKeyedByPhaseNameNotPosition) {
  // Renaming (or resizing) one phase must not disturb another phase's
  // schedule: streams are derived from (seed, phase name, submitter).
  auto compile = [](const char* text) {
    util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(text, "x.wl");
    EXPECT_TRUE(spec.ok());
    util::StatusOr<CompiledWorkload> compiled = CompileWorkload(spec.value());
    EXPECT_TRUE(compiled.ok());
    return std::move(compiled.value());
  };
  CompiledWorkload a =
      compile("phase keep {\n}\nphase other {\n  submitters 1\n}\n");
  CompiledWorkload b =
      compile("phase renamed {\n  submitters 6\n}\nphase keep {\n}\n");
  const CompiledPhase* keep_a = &a.phases[0];
  const CompiledPhase* keep_b = &b.phases[1];
  ASSERT_EQ(keep_a->name, "keep");
  ASSERT_EQ(keep_b->name, "keep");
  ASSERT_EQ(keep_a->submitters.size(), keep_b->submitters.size());
  for (size_t s = 0; s < keep_a->submitters.size(); ++s) {
    ASSERT_EQ(keep_a->submitters[s].ops.size(),
              keep_b->submitters[s].ops.size());
    for (size_t i = 0; i < keep_a->submitters[s].ops.size(); ++i) {
      EXPECT_EQ(keep_a->submitters[s].ops[i].instance_seed,
                keep_b->submitters[s].ops[i].instance_seed);
    }
  }
}

}  // namespace
}  // namespace rdbsc::wl
