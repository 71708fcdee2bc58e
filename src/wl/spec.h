#ifndef RDBSC_WL_SPEC_H_
#define RDBSC_WL_SPEC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "engine/server.h"
#include "util/status.h"

namespace rdbsc::wl {

/// Declarative workload specs (genny-style: a workload is *data*, checked
/// into `workloads/*.wl`, not a hand-written bench binary). A spec names
/// an admission-server configuration plus an ordered list of phases; the
/// compiler (wl/compile.h) lowers it into fully scripted per-submitter
/// schedules, and the runner (wl/runner.h) replays those against
/// engine::Server with bit-identical per-ticket results across worker
/// counts and reruns.
///
/// Format (line oriented; `#` starts a comment; one statement per line;
/// a block opens with `{` as the last token of its line and closes with
/// `}` alone on a line; blocks do not nest):
///
///   workload rush_hour          # document name (optional)
///   seed 42                     # root seed of every derived RNG stream
///   solver dc                   # engine solver registry name
///   policy block                # block | reject | shed
///   queue_depth 64
///   cache rw                    # off | ro | wo | rw (server default)
///   cache_entries 4096          # result cache entries (0 = no cache)
///
///   include "fragments/common.wl"   # relative to the including file
///
///   template base {             # reusable phase fragment
///     submitters 4
///     tasks 6 12
///   }
///
///   phase ramp extends base {   # start from `base`, then override
///     mode open                 # closed | open
///     rate 40                   # arrivals / second / submitter (open)
///     duration 1.5              # seconds; op count = floor(rate*duration)
///     arrival poisson           # fixed | poisson | burst
///     iterations 8              # ops / submitter (closed, or open
///                               # without a duration)
///     workers 10 24             # instance worker count range
///     priority 0 3              # priority range (urgent ops use the max)
///     seed_pool 1000000         # distinct instance seeds (repeat rate)
///     dist uniform              # uniform | skewed task/worker locations
///     cache default             # off | ro | wo | rw | default
///     restart on                # drain + fresh server before this phase
///     mix submit 3 cached 1 cancel 1   # weighted op mix
///   }
///
/// Op kinds in a `mix`: `submit` (plain request), `urgent` (priority
/// pinned to the phase maximum), `cached` (CacheMode::kReadWrite),
/// `uncached` (CacheMode::kOff), `cancel` (admitted, then completed as
/// kCancelled at dispatch -- SubmitControls::cancel_at_dispatch, the
/// replay-deterministic cancel).
///
/// Composition: `include "file"` splices another file's statements
/// (templates, settings, phases) into the current document; includes may
/// nest and cycles are detected. `phase NAME extends OTHER` starts from a
/// template's (or earlier phase's) resolved settings and overrides.
///
/// Every parse error is positioned: "file:line:col: message".

/// How a phase issues its ops.
enum class PhaseMode {
  /// Fixed concurrency: each submitter submits, waits for the result,
  /// then submits its next op.
  kClosed,
  /// Deterministic arrival process: each submitter submits its whole
  /// schedule at compiled arrival offsets without waiting, then waits for
  /// every ticket.
  kOpen,
};

/// Arrival-offset shape of an open phase (offsets are *compiled into*
/// the schedule, so replays see identical schedules whatever the wall
/// clock does).
enum class ArrivalProcess {
  kFixed,    ///< evenly spaced: offset_i = i / rate
  kPoisson,  ///< exponential gaps drawn from the phase stream
  kBurst,    ///< groups of 8 back-to-back, groups spaced 8 / rate apart
};

/// One weighted entry of a phase's op mix.
enum class OpKind { kSubmit, kUrgent, kCached, kUncached, kCancel };

struct MixEntry {
  OpKind op = OpKind::kSubmit;
  int64_t weight = 1;
};

/// One named phase, fully resolved (template inheritance is applied at
/// parse time; a PhaseSpec never references another).
struct PhaseSpec {
  std::string name;
  PhaseMode mode = PhaseMode::kClosed;
  int64_t submitters = 2;
  /// Ops per submitter. Open phases with duration > 0 ignore this and
  /// derive floor(rate * duration) instead.
  int64_t iterations = 4;
  double duration_seconds = 0.0;
  double rate_per_second = 0.0;  ///< open phases only; must be > 0 there
  ArrivalProcess arrival = ArrivalProcess::kFixed;
  int64_t tasks_min = 6, tasks_max = 12;
  int64_t workers_min = 10, workers_max = 24;
  int64_t priority_min = 0, priority_max = 0;
  /// Instance seeds are drawn from [1, seed_pool]; a small pool yields
  /// repeats (cache hits).
  int64_t seed_pool = 1'000'000;
  bool skewed = false;  ///< gen::SpatialDistribution of tasks and workers
  engine::CacheMode cache = engine::CacheMode::kDefault;
  /// Drain and replace the server before this phase starts.
  bool restart = false;
  std::vector<MixEntry> mix = {{OpKind::kSubmit, 1}};
};

/// A parsed workload document: server settings plus its phases, with all
/// includes spliced and templates resolved.
struct WorkloadSpec {
  std::string name;  ///< `workload NAME`, or the source name's stem
  uint64_t seed = 1;
  std::string solver = "dc";
  engine::OverloadPolicy policy = engine::OverloadPolicy::kBlock;
  int64_t queue_depth = 256;
  engine::CacheMode cache_mode = engine::CacheMode::kOff;
  int64_t cache_result_entries = 4096;
  std::vector<PhaseSpec> phases;
};

/// Resolves an `include` path to file contents; kNotFound (or any error)
/// fails the parse with the include statement's position attached. Tests
/// inject in-memory file sets through this seam.
using FileLoader =
    std::function<util::StatusOr<std::string>(const std::string& path)>;

/// Parses `text` as a workload document named `source_name` (used in
/// error positions and include resolution: relative include paths join
/// onto source_name's directory). `loader` serves include targets; with
/// no loader any `include` is an error.
util::StatusOr<WorkloadSpec> ParseWorkloadText(
    std::string_view text, const std::string& source_name,
    const FileLoader& loader = nullptr);

/// Parses the file at `path`, serving includes from the filesystem
/// relative to the including file.
util::StatusOr<WorkloadSpec> ParseWorkloadFile(const std::string& path);

/// Canonical printer: every field of every phase, explicitly, in
/// declaration order -- no includes, templates, defaults, or comments
/// survive. Fixed point of parse ∘ dump: DumpSpec(parse(DumpSpec(s)))
/// == DumpSpec(s) for every parseable s (the round-trip test surface).
std::string DumpSpec(const WorkloadSpec& spec);

/// Enum <-> keyword names shared by the parser, the printer, and the
/// runner's metric labels.
std::string_view OpKindName(OpKind kind);
std::string_view PhaseModeName(PhaseMode mode);
std::string_view ArrivalName(ArrivalProcess arrival);
std::string_view CacheModeKeyword(engine::CacheMode mode);
std::string_view PolicyKeyword(engine::OverloadPolicy policy);

}  // namespace rdbsc::wl

#endif  // RDBSC_WL_SPEC_H_
