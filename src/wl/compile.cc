#include "wl/compile.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "core/registry.h"
#include "util/hash.h"
#include "util/rng.h"

namespace rdbsc::wl {
namespace {

util::Status CompileError(const std::string& phase, const std::string& msg) {
  if (phase.empty()) {
    return util::Status::InvalidArgument("workload: " + msg);
  }
  return util::Status::InvalidArgument("phase '" + phase + "': " + msg);
}

/// Ops per submitter of `phase`: closed phases run `iterations`; open
/// phases with a duration derive floor(rate * duration) -- resolved here,
/// at compile time, so the schedule *length* never depends on the wall
/// clock -- and fall back to `iterations` without one.
int64_t OpsPerSubmitter(const PhaseSpec& phase) {
  if (phase.mode == PhaseMode::kOpen && phase.duration_seconds > 0.0) {
    return static_cast<int64_t>(
        std::floor(phase.rate_per_second * phase.duration_seconds + 1e-9));
  }
  return phase.iterations;
}

util::Status ValidatePhase(const PhaseSpec& phase) {
  if (phase.submitters < 1 || phase.submitters > kMaxSubmitters) {
    return CompileError(phase.name,
                        "submitters must be in [1, " +
                            std::to_string(kMaxSubmitters) + "], got " +
                            std::to_string(phase.submitters));
  }
  if (phase.mode == PhaseMode::kOpen) {
    if (phase.rate_per_second <= 0.0) {
      return CompileError(phase.name, "open mode requires rate > 0");
    }
    if (phase.rate_per_second > kMaxRatePerSecond) {
      return CompileError(phase.name, "rate exceeds the cap");
    }
    if (phase.duration_seconds > kMaxDurationSeconds) {
      return CompileError(phase.name, "duration exceeds the cap");
    }
  }
  int64_t ops = OpsPerSubmitter(phase);
  if (ops < 1 || ops > kMaxOpsPerSubmitter) {
    return CompileError(
        phase.name, "ops per submitter must be in [1, " +
                        std::to_string(kMaxOpsPerSubmitter) + "], got " +
                        std::to_string(ops));
  }
  if (phase.tasks_min > phase.tasks_max ||
      phase.workers_min > phase.workers_max ||
      phase.priority_min > phase.priority_max || phase.seed_pool < 1) {
    return CompileError(phase.name, "empty range");
  }
  if (phase.tasks_min < 1 || phase.tasks_max > kMaxInstanceSize) {
    return CompileError(phase.name, "tasks range must be within [1, " +
                                        std::to_string(kMaxInstanceSize) +
                                        "]");
  }
  if (phase.workers_min < 1 || phase.workers_max > kMaxInstanceSize) {
    return CompileError(phase.name, "workers range must be within [1, " +
                                        std::to_string(kMaxInstanceSize) +
                                        "]");
  }
  if (phase.priority_max > kMaxPriority) {
    return CompileError(phase.name, "priority exceeds the cap");
  }
  if (phase.mix.empty()) {
    return CompileError(phase.name, "empty op mix");
  }
  int64_t total_weight = 0;
  for (const MixEntry& entry : phase.mix) {
    if (entry.weight < 0) {
      return CompileError(phase.name, "negative mix weight");
    }
    total_weight += entry.weight;
  }
  if (total_weight <= 0) {
    return CompileError(phase.name, "mix weights must sum to > 0");
  }
  return util::Status::OK();
}

/// The determinism guard for non-blocking admission: whether a concrete
/// request gets rejected (kReject) or shed (kShedOldest) depends on how
/// fast workers drain the queue -- pure dispatch timing. The guard admits
/// such policies only when the worst case provably fits: with at most S
/// requests outstanding at once, the queue never holds more than S - 1
/// when the S-th Submit arrives, so S <= queue_depth means no admission
/// decision is ever forced. Closed phases bound S by the submitter count
/// (each waits before its next op); open phases submit their whole
/// schedule without waiting, so S is the phase's total op count.
util::Status CheckCapacity(const WorkloadSpec& spec, const PhaseSpec& phase) {
  if (spec.policy == engine::OverloadPolicy::kBlock) {
    return util::Status::OK();
  }
  int64_t outstanding = phase.mode == PhaseMode::kClosed
                            ? phase.submitters
                            : phase.submitters * OpsPerSubmitter(phase);
  if (outstanding > spec.queue_depth) {
    return CompileError(
        phase.name,
        "up to " + std::to_string(outstanding) +
            " outstanding requests exceed queue_depth " +
            std::to_string(spec.queue_depth) +
            " under a reject/shed policy; rejections are timing-dependent "
            "and would break replay determinism -- use 'policy block', "
            "raise queue_depth, or shrink the phase");
  }
  return util::Status::OK();
}

engine::CacheMode OpCacheMode(OpKind op, engine::CacheMode phase_cache) {
  switch (op) {
    case OpKind::kCached: return engine::CacheMode::kReadWrite;
    case OpKind::kUncached: return engine::CacheMode::kOff;
    default: return phase_cache;
  }
}

/// Draws one submitter's schedule from its private stream. Draw order is
/// fixed (mix roll, seed, tasks, workers, priority, arrival gap) and
/// identical for every op kind, so the stream stays aligned whatever the
/// rolls produce.
CompiledSubmitter CompileSubmitter(const PhaseSpec& phase, int64_t ops,
                                   uint64_t stream_seed) {
  util::Rng rng(stream_seed);
  int64_t total_weight = 0;
  for (const MixEntry& entry : phase.mix) total_weight += entry.weight;

  CompiledSubmitter submitter;
  submitter.ops.reserve(static_cast<size_t>(ops));
  double offset = 0.0;
  for (int64_t i = 0; i < ops; ++i) {
    CompiledOp op;
    int64_t roll = rng.UniformInt(0, total_weight - 1);
    for (const MixEntry& entry : phase.mix) {
      roll -= entry.weight;
      if (roll < 0) {
        op.op = entry.op;
        break;
      }
    }
    op.instance_seed =
        static_cast<uint64_t>(rng.UniformInt(1, phase.seed_pool));
    op.num_tasks =
        static_cast<int>(rng.UniformInt(phase.tasks_min, phase.tasks_max));
    op.num_workers =
        static_cast<int>(rng.UniformInt(phase.workers_min, phase.workers_max));
    int64_t priority =
        rng.UniformInt(phase.priority_min, phase.priority_max);
    op.priority = static_cast<int>(
        op.op == OpKind::kUrgent ? phase.priority_max : priority);
    op.cache = OpCacheMode(op.op, phase.cache);
    op.skewed = phase.skewed;

    if (phase.mode == PhaseMode::kOpen) {
      switch (phase.arrival) {
        case ArrivalProcess::kFixed:
          op.arrival_offset_seconds = offset;
          offset += 1.0 / phase.rate_per_second;
          break;
        case ArrivalProcess::kPoisson: {
          op.arrival_offset_seconds = offset;
          double u = rng.Uniform(0.0, 1.0);
          offset += -std::log1p(-u) / phase.rate_per_second;
          break;
        }
        case ArrivalProcess::kBurst:
          op.arrival_offset_seconds =
              static_cast<double>(i / 8) * (8.0 / phase.rate_per_second);
          break;
      }
    }
    submitter.ops.push_back(op);
  }
  return submitter;
}

}  // namespace

util::StatusOr<CompiledWorkload> CompileWorkload(const WorkloadSpec& spec) {
  if (spec.phases.empty()) {
    return CompileError("", "a workload needs at least one phase");
  }
  if (static_cast<int64_t>(spec.phases.size()) > kMaxPhases) {
    return CompileError("", "too many phases (cap " +
                                std::to_string(kMaxPhases) + ")");
  }
  if (!core::SolverRegistry::Global().Contains(spec.solver)) {
    return CompileError("", "unknown solver '" + spec.solver + "'");
  }
  if (spec.queue_depth < 1) {
    return CompileError("", "queue_depth must be >= 1");
  }
  if (spec.queue_depth > 1'000'000 || spec.cache_result_entries > 1'000'000) {
    return CompileError("",
                        "queue_depth/cache_entries capped at 1000000");
  }
  if (spec.cache_result_entries < 0) {
    return CompileError("", "cache_entries must be >= 0");
  }

  CompiledWorkload compiled;
  compiled.name = spec.name;
  compiled.solver = spec.solver;
  compiled.seed = spec.seed;
  compiled.policy = spec.policy;
  compiled.queue_depth = spec.queue_depth;
  compiled.cache_mode = spec.cache_mode;
  compiled.cache_result_entries = spec.cache_result_entries;

  for (size_t phase_index = 0; phase_index < spec.phases.size();
       ++phase_index) {
    const PhaseSpec& phase = spec.phases[phase_index];
    util::Status status = ValidatePhase(phase);
    if (!status.ok()) return status;
    status = CheckCapacity(spec, phase);
    if (!status.ok()) return status;

    int64_t ops = OpsPerSubmitter(phase);
    CompiledPhase out;
    out.name = phase.name;
    out.mode = phase.mode;
    out.restart = phase.restart;
    out.submitters.reserve(static_cast<size_t>(phase.submitters));
    for (int64_t s = 0; s < phase.submitters; ++s) {
      // Streams keyed by (root seed, phase *name*, submitter index):
      // renaming or reordering other phases leaves this one's schedule
      // untouched.
      uint64_t stream_seed = util::Hasher()
                                 .Mix(spec.seed)
                                 .Mix(std::string_view(phase.name))
                                 .Mix(s)
                                 .Digest()
                                 .lo;
      out.submitters.push_back(CompileSubmitter(phase, ops, stream_seed));
      out.total_ops += ops;
    }
    compiled.total_ops += out.total_ops;
    if (compiled.total_ops > kMaxTotalOps) {
      return CompileError(phase.name,
                          "workload exceeds the total op cap of " +
                              std::to_string(kMaxTotalOps));
    }
    compiled.phases.push_back(std::move(out));
  }
  return compiled;
}

std::string CompiledDebugString(const CompiledWorkload& compiled) {
  std::string out;
  out += "workload " + compiled.name + " solver=" + compiled.solver +
         " seed=" + std::to_string(compiled.seed) +
         " policy=" + std::string(PolicyKeyword(compiled.policy)) +
         " queue_depth=" + std::to_string(compiled.queue_depth) +
         " cache=" + std::string(CacheModeKeyword(compiled.cache_mode)) +
         " entries=" + std::to_string(compiled.cache_result_entries) +
         " total_ops=" + std::to_string(compiled.total_ops) + "\n";
  char buffer[64];
  for (const CompiledPhase& phase : compiled.phases) {
    out += "phase " + phase.name + " mode=" +
           std::string(PhaseModeName(phase.mode)) +
           " restart=" + (phase.restart ? "1" : "0") +
           " ops=" + std::to_string(phase.total_ops) + "\n";
    for (size_t s = 0; s < phase.submitters.size(); ++s) {
      for (size_t i = 0; i < phase.submitters[s].ops.size(); ++i) {
        const CompiledOp& op = phase.submitters[s].ops[i];
        std::snprintf(buffer, sizeof(buffer), " off=%.17g",
                      op.arrival_offset_seconds);
        out += "  s" + std::to_string(s) + "#" + std::to_string(i) + " " +
               std::string(OpKindName(op.op)) +
               " seed=" + std::to_string(op.instance_seed) +
               " t=" + std::to_string(op.num_tasks) +
               " w=" + std::to_string(op.num_workers) +
               " pr=" + std::to_string(op.priority) + " cache=" +
               std::string(CacheModeKeyword(op.cache)) +
               " skew=" + (op.skewed ? "1" : "0") + buffer + "\n";
      }
    }
  }
  return out;
}

}  // namespace rdbsc::wl
