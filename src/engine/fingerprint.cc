#include "engine/fingerprint.h"

#include <bit>
#include <cstdio>

#include "core/fingerprint.h"

namespace rdbsc::engine {
namespace {

// Hex bit-pattern of a double: bit-identical results produce identical
// strings, and nothing is lost to decimal formatting.
std::string HexBits(double value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(value)));
  return buffer;
}

}  // namespace

util::Hash128 ResultCacheKey(const core::Instance& instance,
                             const EngineConfig& config) {
  util::Hasher hasher;
  core::MixInstance(hasher, instance);
  hasher.Mix(std::string_view(config.solver_name));
  core::MixSolverOptions(hasher, config.solver_options);
  return hasher.Digest();
}

std::string ResultFingerprint(const util::StatusOr<EngineResult>& result) {
  std::string out =
      "code=" + std::to_string(static_cast<int>(result.status().code()));
  if (!result.ok()) return out;
  const EngineResult& r = result.value();
  out += ";assign=";
  for (core::WorkerId j = 0; j < r.solve.assignment.num_workers(); ++j) {
    out += std::to_string(r.solve.assignment.TaskOf(j));
    out += ',';
  }
  out += ";std=" + HexBits(r.solve.objectives.total_std);
  out += ";rel=" + HexBits(r.solve.objectives.min_reliability);
  out += ";edges=" + std::to_string(r.plan.edges);
  // Always 0; kept because the frozen benchmark's digests hash it.
  out += ";grid=" + std::to_string(r.plan.used_grid_index ? 1 : 0);
  return out;
}

}  // namespace rdbsc::engine
