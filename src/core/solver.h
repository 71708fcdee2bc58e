#ifndef RDBSC_CORE_SOLVER_H_
#define RDBSC_CORE_SOLVER_H_

#include <cstdint>
#include <string_view>

#include "core/assignment.h"
#include "core/instance.h"
#include "util/deadline.h"
#include "util/executor.h"
#include "util/status.h"

namespace rdbsc::core {

/// Knobs shared by the RDB-SC solvers. Defaults follow the paper where it
/// states values and otherwise pick conservative laptop-scale settings.
struct SolverOptions {
  /// Seed for every random choice a solver makes.
  uint64_t seed = 42;

  // --- Sampling (Section 5) ---
  /// Rank-error tolerance of the (epsilon, delta)-bound.
  double epsilon = 0.1;
  /// Confidence of the (epsilon, delta)-bound.
  double delta = 0.9;
  /// When positive, overrides the computed sample size K-hat.
  int fixed_sample_size = 0;
  /// Floor/ceiling applied to the computed K-hat. A sampling, D&C or
  /// G-TRUTH solve fails with InvalidArgument when max_sample_size < 1.
  int min_sample_size = 8;
  int max_sample_size = 512;
  /// Multiplies the sample size; the paper's G-TRUTH uses 10.
  int sample_multiplier = 1;

  // --- Greedy (Section 4) ---
  /// Enables the Lemma 4.3 bound-based candidate pruning.
  bool use_pruning = true;
  /// How the greedy ranks the diversity increase of candidate pairs.
  /// The paper's Section 4.3 replaces exact Delta-E[STD] computation by
  /// the lower/upper bound estimates ("instead of computing the exact
  /// diversity values for all task-and-worker pairs with high cost");
  /// ranking by the optimistic bound reproduces the published GREEDY
  /// curves, including its start-up herding onto non-empty tasks.
  /// kExact computes true increments instead (slower, stronger -- see the
  /// greedy-increments ablation bench).
  enum class GreedyIncrement { kBounds, kExact };
  GreedyIncrement greedy_increment = GreedyIncrement::kBounds;

  // --- Divide-and-conquer (Section 6) ---
  /// Leaf threshold: subproblems with at most `gamma` tasks are solved
  /// directly, by sampling with the knobs above.
  int gamma = 24;
  /// Largest DCW group enumerated exhaustively (2^k combinations); larger
  /// groups fall back to per-worker greedy resolution. At most 31: D&C and
  /// G-TRUTH solves fail with InvalidArgument above it.
  int max_dcw_group = 12;
};

/// Counters and timings reported by a solve call.
struct SolveStats {
  /// SolveImpl's wall time, measured by Solver::Solve (also into the
  /// partial stats of a budget failure).
  double wall_seconds = 0.0;
  /// Number of exact E[STD] evaluations performed. Sampling counts the
  /// ExpectedStd calls it makes: one per drawn edge (its one-worker memo)
  /// plus one per roster prefix of two or more workers in each scored
  /// sample, so the count is the same at every executor width. D&C sums
  /// its leaves'.
  int64_t exact_std_evals = 0;
  /// Candidate pairs eliminated by the Lemma 4.3 pruning (greedy only).
  int64_t pruned_pairs = 0;
  /// SA_Merge work (D&C only): conflicting-worker groups resolved, keep-side
  /// combinations scored by the 2^k enumeration, and E[STD] evaluations
  /// made while resolving groups.
  int64_t merge_groups = 0;
  int64_t merge_combos = 0;
  int64_t merge_std_evals = 0;
  /// Sample size used (sampling only).
  int sample_size = 0;
  /// Where a D&C solve's time went (D&C only): BG_Partition's descent,
  /// the leaf solves and SA_Merge. Their sum is at most wall_seconds; the
  /// rest is setup and the final evaluation. Timing only, like
  /// wall_seconds: no fingerprint or cache key reads them. float because
  /// every EngineResult embeds these stats and callers keep many results.
  float partition_seconds = 0.0f;
  float leaf_seconds = 0.0f;
  float merge_seconds = 0.0f;
  /// True when the solve was cut short by its wall-clock budget or
  /// cancellation token (set on the partial stats of a failed solve).
  bool budget_exhausted = false;
};

/// Output of a solver: the strategy S plus its objectives and stats.
struct SolveResult {
  Assignment assignment;
  ObjectiveValue objectives;
  SolveStats stats;
};

/// One solve call: the instance, its candidate graph, and the admission
/// controls. Solvers poll the deadline cooperatively and fail with
/// kDeadlineExceeded / kCancelled instead of overrunning.
struct SolveRequest {
  const Instance* instance = nullptr;
  const CandidateGraph* graph = nullptr;
  /// The caller's budget and cancellation, as one deadline (unowned);
  /// nullptr = unlimited.
  const util::Deadline* deadline = nullptr;
  /// When non-null, receives the counters accumulated up to the point a
  /// solve failed (budget_exhausted set on kDeadlineExceeded/kCancelled).
  SolveStats* partial_stats = nullptr;
  /// Optional executor (unowned) the solver may shard independent work
  /// over (D&C leaves, sampling batches); nullptr = serial. Solvers that
  /// use it are bit-identical to their serial runs for a fixed seed.
  util::Executor* executor = nullptr;
};

/// Common interface of GREEDY, SAMPLING, D&C, G-TRUTH and EXACT.
///
/// Construct solvers through core::SolverRegistry (or the rdbsc::Engine
/// facade) rather than naming concrete types; only a solver's own unit
/// test should instantiate it directly.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Display name used by benches and examples ("GREEDY", ...).
  virtual std::string_view name() const = 0;

  /// Computes an assignment for the request's instance, whose valid pairs
  /// are the request's graph. Deterministic for a fixed options.seed.
  /// Fails with kInvalidArgument on a malformed request (or, for EXACT, an
  /// over-cap population) and kDeadlineExceeded/kCancelled when the budget
  /// or token trips mid-solve (partial stats via request.partial_stats).
  util::StatusOr<SolveResult> Solve(const SolveRequest& request);

  /// Convenience overload: no budget, no cancellation.
  util::StatusOr<SolveResult> Solve(const Instance& instance,
                                    const CandidateGraph& graph);

 protected:
  /// Implementation hook. `deadline` is the request's (unlimited when it
  /// has none); implementations poll it at their natural iteration
  /// granularity and bail out via BudgetError() once it is exhausted.
  /// `executor` resolves the request's executor (SerialExec() when none
  /// was supplied); implementations without parallel structure simply
  /// ignore it. Solve times the call and fills stats.wall_seconds.
  virtual util::StatusOr<SolveResult> SolveImpl(
      const Instance& instance, const CandidateGraph& graph,
      const util::Deadline& deadline, util::Executor& executor,
      SolveStats* partial_stats) = 0;

  /// Standard failure path for an exhausted deadline: flags and publishes
  /// the partial `stats` (when the caller asked for them) and returns the
  /// deadline's non-OK status.
  static util::Status BudgetError(const util::Deadline& deadline,
                                  SolveStats stats,
                                  SolveStats* partial_stats);
};

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_SOLVER_H_
