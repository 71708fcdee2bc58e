#include "core/fingerprint.h"

namespace rdbsc::core {

void MixInstance(util::Hasher& hasher, const Instance& instance) {
  hasher.Mix(static_cast<uint64_t>(instance.num_tasks()));
  for (const Task& t : instance.tasks()) {
    hasher.Mix(t.location.x)
        .Mix(t.location.y)
        .Mix(t.start)
        .Mix(t.end)
        .Mix(t.beta);
  }
  hasher.Mix(static_cast<uint64_t>(instance.num_workers()));
  for (const Worker& w : instance.workers()) {
    hasher.Mix(w.location.x)
        .Mix(w.location.y)
        .Mix(w.velocity)
        .Mix(w.direction.lo())
        .Mix(w.direction.width())
        .Mix(w.confidence)
        .Mix(w.available_from);
  }
  hasher.Mix(instance.now());
  hasher.Mix(static_cast<uint64_t>(instance.policy()));
}

void MixSolverOptions(util::Hasher& hasher, const SolverOptions& options) {
  hasher.Mix(options.seed)
      .Mix(options.epsilon)
      .Mix(options.delta)
      .Mix(options.fixed_sample_size)
      .Mix(options.min_sample_size)
      .Mix(options.max_sample_size)
      .Mix(options.sample_multiplier)
      .Mix(options.use_pruning)
      .Mix(static_cast<uint64_t>(options.greedy_increment))
      .Mix(options.gamma)
      .Mix(options.max_dcw_group);
}

util::Hash128 InstanceFingerprint(const Instance& instance) {
  util::Hasher hasher;
  MixInstance(hasher, instance);
  return hasher.Digest();
}

}  // namespace rdbsc::core
