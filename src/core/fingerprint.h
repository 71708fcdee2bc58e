#ifndef RDBSC_CORE_FINGERPRINT_H_
#define RDBSC_CORE_FINGERPRINT_H_

#include "core/instance.h"
#include "core/solver.h"
#include "util/hash.h"

namespace rdbsc::core {

/// Mixes every field of `instance` that can influence a solve into
/// `hasher`, in a fixed documented order: task count, each task
/// (location, period, beta), worker count, each worker (location,
/// velocity, direction cone, confidence, available_from), `now`, and the
/// arrival policy. Two instances mix equal streams iff they are
/// bit-identical content-wise, independent of how they were produced.
void MixInstance(util::Hasher& hasher, const Instance& instance);

/// Mixes every SolverOptions knob (all of them feed some solver's
/// decisions; hashing the superset keeps the fingerprint solver-agnostic).
void MixSolverOptions(util::Hasher& hasher, const SolverOptions& options);

/// The stable 128-bit content identity of one instance snapshot. This is
/// the base every cache key builds on: the engine layers solver name /
/// options / graph strategy on top (engine/fingerprint.h).
util::Hash128 InstanceFingerprint(const Instance& instance);

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_FINGERPRINT_H_
