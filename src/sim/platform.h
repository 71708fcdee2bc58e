#ifndef RDBSC_SIM_PLATFORM_H_
#define RDBSC_SIM_PLATFORM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/assignment.h"
#include "core/solver.h"
#include "obs/registry.h"
#include "util/status.h"

namespace rdbsc::sim {

/// Configuration of the gMission-substitute platform experiment
/// (Section 8.4): a handful of nearby task sites, a small pool of mobile
/// users, and a periodic incremental assignment loop with period
/// `t_interval`. Times are hours to match the rest of the library
/// (the paper's 1-4 minute intervals are 1/60 .. 4/60).
struct PlatformConfig {
  int num_sites = 5;
  int num_workers = 10;
  /// Every site's task opens at time 0 and stays open this long (the
  /// paper's "15 minutes opening time").
  double task_open_time = 0.25;
  /// Total simulated time.
  double horizon = 0.25;
  /// Incremental update period (Figure 10 / Figure 18 x-axis).
  double t_interval = 1.0 / 60.0;
  /// Sites are scattered within this radius around the campus center, so
  /// "a user can walk from one site to another one within 2 minutes".
  double site_spread = 0.003;
  double worker_speed_min = 0.08;
  double worker_speed_max = 0.15;
  /// Peer-rating reliabilities of the users.
  double p_min = 0.8;
  double p_max = 1.0;
  double beta_min = 0.4;
  double beta_max = 0.6;
  uint64_t seed = 23;
  /// Registry name of the solver re-invoked every round, plus its options
  /// (resolved through core::SolverRegistry; the platform owns the solver).
  std::string solver_name = "dc";
  core::SolverOptions solver_options;
  /// Optional metrics sink (unowned; must outlive Run()). Records the
  /// counters sim.rounds / sim.assignments / sim.answers, the
  /// sim.round_objectives_seconds histogram (each round's objective
  /// preview: min reliability and the Eq. 7 E[STD] total over all sites),
  /// plus the round engine's sim.round_build_seconds /
  /// sim.round_solve_seconds histograms, both labelled {solver}, and its
  /// unlabelled sim.delta.* counters (see IncrementalAssigner::set_metrics).
  /// Purely observational: the simulated trajectory is bit-identical with
  /// or without it.
  obs::Registry* metrics = nullptr;
};

/// One answer produced by a worker reaching a task site.
struct Answer {
  core::TaskId task = core::kNoTask;
  core::WorkerId worker = core::kNoWorker;
  double angle = 0.0;    ///< achieved shooting direction at the site
  double time = 0.0;     ///< timestamp of the answer
  double quality = 0.0;  ///< photo quality proxy in [0, 1]
};

/// Snapshot of the platform objectives after one update round.
struct RoundRecord {
  double time = 0.0;
  int newly_assigned = 0;
  core::ObjectiveValue objectives;
};

/// Outcome of a full platform run.
struct PlatformResult {
  core::ObjectiveValue final_objectives;
  std::vector<RoundRecord> rounds;
  std::vector<Answer> answers;
  int assignments_made = 0;
  int answers_received = 0;
  /// Mean of the paper's answer accuracy measure
  /// beta*dtheta/pi + (1-beta)*dt/(e-s); lower is better.
  double mean_accuracy_error = 0.0;
};

/// Discrete-time platform simulator around the incremental updating
/// strategy of Figure 10. The platform simulates the world -- travel,
/// answers, their accuracy, and each round's objective preview -- and
/// leaves the assignment rounds to one IncrementalAssigner per Run():
/// every `t_interval` it reports the workers that reached their sites as
/// completions, and the assigner re-assigns the available workers to the
/// open tasks with the configured solver.
class Platform {
 public:
  /// Resolves `config.solver_name` through the global SolverRegistry and
  /// owns the resulting solver. An unknown name is not fatal here -- it
  /// surfaces from Run() as kNotFound.
  explicit Platform(PlatformConfig config);

  /// Runs the full horizon and reports the final objectives, computed from
  /// received answers plus still-pending assignments (Section 8.1's
  /// "considering A and S_c"). Propagates solver-construction and
  /// per-round solve failures.
  util::StatusOr<PlatformResult> Run();

 private:
  PlatformConfig config_;
  util::Status init_status_;
  std::unique_ptr<core::Solver> solver_;
};

}  // namespace rdbsc::sim

#endif  // RDBSC_SIM_PLATFORM_H_
