#ifndef RDBSC_SIM_STREAMING_H_
#define RDBSC_SIM_STREAMING_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/model.h"
#include "core/solver.h"
#include "engine/engine.h"
#include "sim/events.h"
#include "sim/incremental.h"
#include "util/status.h"

namespace rdbsc::sim {

/// The engine-layer streaming entry point: a long-lived session that
/// consumes typed event batches and runs one assignment round per batch
/// (`ApplyEvents -> Update`). Each round builds its candidate graph from
/// the round snapshot the way Engine::Run does (CandidateGraph::Build).
///
/// Configured like a one-shot engine (solver name/options and metrics
/// come from engine::EngineConfig) so callers can switch an existing
/// engine::Engine::Run loop to streaming without a second config type.
/// Each round commits exactly what a per-round CandidateGraph::Build of
/// the same world state, solved by the same solver, would commit.
class StreamingSession {
 public:
  /// Resolves the solver through the global registry; fails with its
  /// kNotFound on unknown names. `config.metrics`, when set, receives the
  /// per-round sim.delta.* build counters and the sim.round_{prepare,
  /// build,solve,commit}_seconds histograms, labelled
  /// {solver=config.solver_name}.
  static util::StatusOr<std::unique_ptr<StreamingSession>> Create(
      const rdbsc::EngineConfig& config,
      core::ArrivalPolicy policy = core::ArrivalPolicy::kAllowWait);

  /// One streaming round: applies `batch` (canonical type-major order,
  /// clock advanced to batch.now) and assigns the now-available workers
  /// to the now-open tasks. Returns the newly committed pairs.
  util::StatusOr<std::vector<std::pair<core::TaskId, core::WorkerId>>>
  Round(const EventBatch& batch);

  /// The underlying assigner, for direct AddTask/AddWorker bootstrap,
  /// objectives, and stats inspection.
  IncrementalAssigner& assigner() { return *assigner_; }
  const IncrementalAssigner& assigner() const { return *assigner_; }

 private:
  StreamingSession(std::unique_ptr<core::Solver> solver,
                   core::ArrivalPolicy policy);

  std::unique_ptr<core::Solver> solver_;
  std::unique_ptr<IncrementalAssigner> assigner_;
};

}  // namespace rdbsc::sim

#endif  // RDBSC_SIM_STREAMING_H_
