#ifndef RDBSC_CORE_REGISTRY_H_
#define RDBSC_CORE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.h"
#include "util/status.h"

namespace rdbsc::core {

/// Name -> factory table for every solver the library (or an application)
/// provides. The single construction point for solvers: examples, benches,
/// the platform simulator and the Engine facade all create solvers here,
/// so wiring a new approach in means registering one factory -- not
/// touching N call sites.
///
/// Global() comes pre-loaded with the six built-in approaches:
///
///   "greedy"         round-based GREEDY (Figure 3, global pair selection)
///   "worker-greedy"  the paper's experimental per-worker GREEDY (Sec 8.1)
///   "sampling"       SAMPLING with the (epsilon, delta) bound (Figure 5)
///   "dc"             divide-and-conquer (Figures 6-9)
///   "gtruth"         G-TRUTH, D&C with a 10x sampling budget (Sec 8.1)
///   "exact"          exhaustive enumeration oracle (tiny instances only)
class SolverRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Solver>(const SolverOptions&)>;

  /// The process-wide registry, with the built-in solvers registered.
  static SolverRegistry& Global();

  /// Adds a factory under `name`; kAlreadyExists on a duplicate name.
  util::Status Register(std::string name, Factory factory);

  /// Instantiates the solver registered under `name` with `options`.
  /// kNotFound (listing the registered names) for unknown names.
  util::StatusOr<std::unique_ptr<Solver>> Create(
      std::string_view name, const SolverOptions& options = {}) const;

  bool Contains(std::string_view name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

/// Registry keys of the four approaches compared head-to-head in the
/// paper's Section 8.1 experiments (EXACT and the per-worker greedy are
/// excluded there). The single source for benches and integration tests,
/// so the swept approach set cannot drift between them.
inline constexpr std::string_view kSection81Approaches[] = {
    "greedy", "sampling", "dc", "gtruth"};

namespace internal {

/// Self-registration hooks, each defined in its solver's .cc file so the
/// name/factory wiring lives with the implementation. Global() calls them
/// once on first use; the explicit calls also anchor the solver objects
/// into registry-only binaries (a static-archive linker drops translation
/// units nothing references, which would silently empty the registry).
void RegisterGreedySolver(SolverRegistry& registry);
void RegisterWorkerGreedySolver(SolverRegistry& registry);
void RegisterSamplingSolver(SolverRegistry& registry);
void RegisterDivideConquerSolvers(SolverRegistry& registry);
void RegisterExactSolver(SolverRegistry& registry);

/// Registers one built-in solver. A failure (duplicate or empty name, null
/// factory) is a programming error that would leave the registry silently
/// short, so it aborts with the status message instead.
void RegisterBuiltin(SolverRegistry& registry, std::string name,
                     SolverRegistry::Factory factory);

}  // namespace internal

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_REGISTRY_H_
