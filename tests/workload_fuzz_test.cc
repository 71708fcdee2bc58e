// Fuzz-lite property test for the workload pipeline: seeded mutations of
// valid spec texts are thrown at the parser and compiler. Every mutant
// must land in one of three buckets -- parse error with a positioned
// message, compile error, or a schedule that two independent Compile
// calls render byte-identically. Nothing may crash, hang, or produce a
// diverging schedule; the compile caps in wl/compile.h are what bound
// runtime for adversarial-but-parseable inputs.

#include <cctype>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"
#include "wl/compile.h"
#include "wl/spec.h"

namespace rdbsc::wl {
namespace {

const char* const kSeedTexts[] = {
    // A broad closed/open mix exercising most keys.
    "workload fuzz\n"
    "seed 3\n"
    "solver dc\n"
    "policy block\n"
    "queue_depth 16\n"
    "cache rw\n"
    "cache_entries 64\n"
    "template base {\n"
    "  submitters 2\n"
    "  tasks 4 8\n"
    "  workers 8 12\n"
    "  mix submit 2 urgent 1\n"
    "}\n"
    "phase a extends base {\n"
    "  iterations 3\n"
    "  priority 0 4\n"
    "  dist skewed\n"
    "}\n"
    "phase b {\n"
    "  mode open\n"
    "  rate 40\n"
    "  duration 0.2\n"
    "  arrival poisson\n"
    "  mix cached 1 cancel 1\n"
    "}\n",
    // Minimal.
    "phase only {\n  iterations 2\n}\n",
    // Reject policy at the capacity edge plus a restart phase.
    "policy reject\n"
    "queue_depth 4\n"
    "phase edge {\n"
    "  submitters 4\n"
    "  iterations 2\n"
    "  mix submit 3 cancel 1\n"
    "}\n"
    "phase again extends edge {\n"
    "  restart on\n"
    "}\n",
};

// Tokens the inserter splices in: valid keywords, numbers, and junk.
const char* const kVocabulary[] = {
    "phase",  "template", "extends", "mix",     "submit",   "cancel",
    "urgent", "cached",   "mode",    "open",    "closed",   "rate",
    "{",      "}",        "#",       "\"x\"",   "include",  "seed",
    "0",      "1",        "99999",   "-3",      "1e9",      "nan",
    "policy", "reject",   "tasks",   "workers", "duration", "zzz",
};

std::string Mutate(const std::string& base, util::Rng& rng) {
  std::string text = base;
  int edits = static_cast<int>(rng.UniformInt(1, 4));
  for (int edit = 0; edit < edits && !text.empty(); ++edit) {
    switch (rng.UniformInt(0, 4)) {
      case 0: {  // flip one byte to a random printable (or newline)
        size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
        text[at] = static_cast<char>(
            rng.Bernoulli(0.1) ? '\n' : rng.UniformInt(' ', '~'));
        break;
      }
      case 1: {  // insert a vocabulary token at a random position
        size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size())));
        const char* token = kVocabulary[rng.UniformInt(
            0, static_cast<int64_t>(std::size(kVocabulary)) - 1)];
        text.insert(at, std::string(" ") + token + " ");
        break;
      }
      case 2: {  // delete a random span
        size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
        size_t len = static_cast<size_t>(rng.UniformInt(1, 12));
        text.erase(at, len);
        break;
      }
      case 3: {  // duplicate a random line
        std::vector<std::string> lines;
        size_t start = 0;
        while (start <= text.size()) {
          size_t end = text.find('\n', start);
          if (end == std::string::npos) end = text.size();
          lines.push_back(text.substr(start, end - start));
          start = end + 1;
        }
        size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(lines.size()) - 1));
        lines.insert(lines.begin() + pick, lines[pick]);
        text.clear();
        for (const std::string& line : lines) text += line + "\n";
        break;
      }
      default: {  // truncate
        text.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size()))));
        break;
      }
    }
  }
  return text;
}

TEST(WorkloadFuzz, MutantsParseErrorCleanlyOrCompileDeterministically) {
  int parsed = 0;
  int compiled_ok = 0;
  int rejected = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    util::Rng rng(0x5eed0000 + seed);
    const std::string base =
        kSeedTexts[seed % std::size(kSeedTexts)];
    std::string text = Mutate(base, rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + text);

    util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(text, "fuzz.wl");
    if (!spec.ok()) {
      // Errors must be positioned and non-empty -- "fuzz.wl:LINE:COL: ..."
      // (include errors carry the includer's position the same way).
      EXPECT_NE(spec.status().message().find("fuzz.wl:"), std::string::npos)
          << spec.status().message();
      ++rejected;
      continue;
    }
    ++parsed;

    util::StatusOr<CompiledWorkload> first = CompileWorkload(spec.value());
    util::StatusOr<CompiledWorkload> second = CompileWorkload(spec.value());
    ASSERT_EQ(first.ok(), second.ok());
    if (!first.ok()) {
      EXPECT_FALSE(first.status().message().empty());
      EXPECT_EQ(first.status().message(), second.status().message());
      continue;
    }
    ++compiled_ok;
    EXPECT_LE(first.value().total_ops, kMaxTotalOps);
    EXPECT_EQ(CompiledDebugString(first.value()),
              CompiledDebugString(second.value()));
  }
  // The mutator must actually exercise both sides of the contract; if one
  // of these trips, the corpus or mutation rates need rebalancing.
  EXPECT_GT(parsed, 20) << "mutator too destructive";
  EXPECT_GT(rejected, 20) << "mutator too gentle";
  EXPECT_GT(compiled_ok, 5);
}

TEST(WorkloadFuzz, ParsedSpecsRoundTripThroughDump) {
  // Any mutant that parses must also survive the canonical printer:
  // parse(dump(spec)) succeeds and dumps identically (dump is a fixed
  // point), even for specs the compiler rejects.
  for (uint64_t seed = 0; seed < 150; ++seed) {
    util::Rng rng(0xd00d0000 + seed);
    std::string text = Mutate(kSeedTexts[seed % std::size(kSeedTexts)], rng);
    util::StatusOr<WorkloadSpec> spec = ParseWorkloadText(text, "fuzz.wl");
    if (!spec.ok()) continue;
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + text);
    std::string dump = DumpSpec(spec.value());
    util::StatusOr<WorkloadSpec> reparsed =
        ParseWorkloadText(dump, "fuzz.wl");
    ASSERT_TRUE(reparsed.ok())
        << "dump of a parsed spec failed to reparse: "
        << reparsed.status().message() << "\n"
        << dump;
    EXPECT_EQ(DumpSpec(reparsed.value()), dump);
  }
}

}  // namespace
}  // namespace rdbsc::wl
