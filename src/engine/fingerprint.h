#ifndef RDBSC_ENGINE_FINGERPRINT_H_
#define RDBSC_ENGINE_FINGERPRINT_H_

#include <string>

#include "core/instance.h"
#include "engine/engine.h"
#include "util/hash.h"
#include "util/status.h"

namespace rdbsc::engine {

/// Key of the result cache (engine::SolveCache): the instance content plus the
/// solver identity (registry name + every SolverOptions knob). Deliberately
/// excludes budgets, thread counts, and validation flags -- none of them
/// change a successful result (the determinism contract), so keying on them
/// would only fragment the cache. Field order: instance
/// (core::MixInstance), solver name, options (core::MixSolverOptions).
util::Hash128 ResultCacheKey(const core::Instance& instance,
                             const EngineConfig& config);

/// Canonical string encoding of one run outcome: status code, then (on
/// success) the full assignment, the objective bit patterns, and the
/// graph plan. Timing fields and cache-provenance flags are deliberately
/// excluded -- they are the only parts of a result allowed to vary
/// between runs, so two fingerprints compare equal iff the results are
/// bit-identical where it counts. This is the `.wl` replay fingerprint
/// (wl/runner.h) and the cache tests' hit-vs-cold identity check.
std::string ResultFingerprint(const util::StatusOr<EngineResult>& result);

}  // namespace rdbsc::engine

#endif  // RDBSC_ENGINE_FINGERPRINT_H_
