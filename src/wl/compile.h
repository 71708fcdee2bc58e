#ifndef RDBSC_WL_COMPILE_H_
#define RDBSC_WL_COMPILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "wl/spec.h"

namespace rdbsc::wl {

/// Compilation caps: a parseable spec may still describe an absurd
/// schedule; these bound what Compile accepts so the fuzz contract
/// ("every compiled schedule is replayable") holds -- a compiled workload
/// can always be replayed to completion in bounded time and memory.
inline constexpr int64_t kMaxPhases = 64;
inline constexpr int64_t kMaxSubmitters = 64;
inline constexpr int64_t kMaxOpsPerSubmitter = 10'000;
inline constexpr int64_t kMaxTotalOps = 200'000;
inline constexpr int64_t kMaxInstanceSize = 500;  ///< tasks or workers
inline constexpr int64_t kMaxPriority = 10'000;
inline constexpr double kMaxDurationSeconds = 3'600.0;
inline constexpr double kMaxRatePerSecond = 1e6;

/// One fully resolved submission: every field the runner needs, with all
/// randomness (mix roll, instance seed/size, priority, arrival offset)
/// already drawn at compile time -- replay draws nothing, which is what
/// makes two replays of one compiled workload submit identical requests.
struct CompiledOp {
  OpKind op = OpKind::kSubmit;
  uint64_t instance_seed = 0;
  int num_tasks = 0;
  int num_workers = 0;
  int priority = 0;
  engine::CacheMode cache = engine::CacheMode::kDefault;
  bool skewed = false;
  /// Seconds after phase start (open phases; 0.0 in closed phases).
  double arrival_offset_seconds = 0.0;
};

/// The ordered schedule of one scripted submitter thread.
struct CompiledSubmitter {
  std::vector<CompiledOp> ops;
};

struct CompiledPhase {
  std::string name;
  PhaseMode mode = PhaseMode::kClosed;
  bool restart = false;
  std::vector<CompiledSubmitter> submitters;
  int64_t total_ops = 0;
};

/// A lowered workload: server settings plus per-phase, per-submitter op
/// schedules. Pure data -- identical for every Compile of one spec.
struct CompiledWorkload {
  std::string name;
  std::string solver;
  uint64_t seed = 1;
  engine::OverloadPolicy policy = engine::OverloadPolicy::kBlock;
  int64_t queue_depth = 256;
  engine::CacheMode cache_mode = engine::CacheMode::kOff;
  int64_t cache_result_entries = 4096;
  std::vector<CompiledPhase> phases;
  int64_t total_ops = 0;
};

/// Lowers `spec` into scripted schedules. Each (phase, submitter) pair
/// gets an independent RNG stream derived from the root seed with
/// util::Hasher, so schedules are stable under reordering of unrelated
/// phases and under submitter-count changes elsewhere.
///
/// Rejects (kInvalidArgument) anything outside the caps above, an open
/// phase without a positive rate, a solver name missing from the
/// registry, and -- the determinism guard -- a reject/shed admission
/// policy whose worst-case outstanding submissions exceed queue_depth:
/// whether a given request gets rejected/shed depends on dispatch timing,
/// so a checked-in scenario must either block under overload or stay
/// within provable queue capacity.
util::StatusOr<CompiledWorkload> CompileWorkload(const WorkloadSpec& spec);

/// Deterministic full dump of a compiled workload (every op of every
/// schedule). The fuzz test's double-compile oracle: two Compile calls on
/// one spec must produce byte-identical debug strings.
std::string CompiledDebugString(const CompiledWorkload& compiled);

}  // namespace rdbsc::wl

#endif  // RDBSC_WL_COMPILE_H_
