#include "sim/streaming.h"

#include <memory>
#include <utility>

#include "core/registry.h"

namespace rdbsc::sim {

util::StatusOr<std::unique_ptr<StreamingSession>> StreamingSession::Create(
    const rdbsc::EngineConfig& config, core::ArrivalPolicy policy) {
  util::StatusOr<std::unique_ptr<core::Solver>> solver =
      core::SolverRegistry::Global().Create(config.solver_name,
                                            config.solver_options);
  if (!solver.ok()) return solver.status();
  std::unique_ptr<StreamingSession> session(
      new StreamingSession(std::move(solver).value(), config.eta, policy));
  session->assigner_->set_metrics(config.metrics, config.solver_name);
  return session;
}

StreamingSession::StreamingSession(std::unique_ptr<core::Solver> solver,
                                   double eta, core::ArrivalPolicy policy)
    : solver_(std::move(solver)),
      assigner_(std::make_unique<IncrementalAssigner>(solver_.get(), eta,
                                                      policy)) {}

util::StatusOr<std::vector<std::pair<core::TaskId, core::WorkerId>>>
StreamingSession::Round(const EventBatch& batch) {
  if (util::Status applied = assigner_->ApplyEvents(batch); !applied.ok()) {
    return applied;
  }
  return assigner_->Update(batch.now);
}

}  // namespace rdbsc::sim
