#ifndef RDBSC_SIM_INCREMENTAL_H_
#define RDBSC_SIM_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/assignment.h"
#include "core/diversity.h"
#include "core/model.h"
#include "core/solver.h"
#include "index/grid_index.h"
#include "obs/registry.h"
#include "sim/events.h"
#include "util/status.h"

namespace rdbsc::sim {

/// The incremental updating strategy of Figure 10 -- the library's one
/// round engine (sim::Platform and sim::StreamingSession both drive it):
/// tasks and workers arrive and leave dynamically, and each Update(now)
/// round assigns the currently available workers to the currently open
/// tasks with the supplied solver, *keeping* earlier commitments (line 7,
/// S = S u S_c).
///
/// Events only update the registries. Each round builds a compact
/// snapshot instance of the open tasks and available workers and its
/// candidate graph with CandidateGraph::Build, exactly as Engine::Run
/// does, so a round commits exactly what a from-scratch build of the same
/// snapshot, solved by the same solver, would commit
/// (tests/delta_index_test.cc checks it in every build type).
///
/// External ids are caller-chosen and stable; the snapshot's local ids are
/// ranks in the ascending global id lists.
///
/// Storage: the open tasks, the workers and the ledger are columns kept in
/// ascending id order, found by binary search. Callers' ids arrive nearly
/// ascending, so a registration is usually an append; an out-of-order id
/// is an insert. A round finds its expired tasks in one pass over the open
/// tasks and its available workers in one pass over the `committed`
/// column, and both snapshot lists come out already in id order. A
/// round's removals are compacted in one pass. Every outcome, Objectives'
/// float sums included, depends only on the registered contents, never on
/// the order they were registered in.
///
/// Thread safety: single-threaded by design -- one owner drives the
/// AddTask/AddWorker/Update/Complete lifecycle (parallelism lives inside
/// the solver, behind this facade), so the registries are unguarded.
class IncrementalAssigner {
 public:
  /// `solver` must outlive the assigner. `policy` is applied to every
  /// validity test.
  explicit IncrementalAssigner(core::Solver* solver,
                               core::ArrivalPolicy policy =
                                   core::ArrivalPolicy::kAllowWait);

  /// The mutators below reject bad input first, in every build type, with
  /// the kInvalidArgument of core::ValidateTask / core::ValidateWorker (a
  /// moved or completing worker is checked at its new position) and leave
  /// the assigner untouched.

  /// Registers a new open task; fails on duplicate id, and with
  /// kInvalidArgument on id kNoTask (-1), which CommittedTask returns for
  /// a worker with no task.
  util::Status AddTask(core::TaskId id, const core::Task& task);
  /// Removes a task (completed or expired); its workers become available.
  util::Status RemoveTask(core::TaskId id);
  /// Registers an available worker; fails on duplicate id.
  util::Status AddWorker(core::WorkerId id, const core::Worker& worker);
  /// Deregisters a worker (left the system); any commitment is dropped.
  util::Status RemoveWorker(core::WorkerId id);

  /// Marks a committed worker as done with its task (answer received or
  /// rejected): the commitment is kept for objective accounting but the
  /// worker becomes assignable again from `position`.
  util::Status CompleteWorker(core::WorkerId id, geo::Point position);

  /// Moves an *available* worker to `to`. Fails with kNotFound for
  /// unknown ids, kFailedPrecondition for busy (committed) workers.
  util::Status MoveWorker(core::WorkerId id, geo::Point to);

  /// Applies one round's event batch in the canonical type-major order
  /// (expired, completed, arrived, moved; ascending id within each group
  /// -- the batch is canonicalized internally) after advancing the clock
  /// to `batch.now`. Stops at the first failing event; already-applied
  /// events stay applied. A NaN or infinite `batch.now`, or one earlier
  /// than now(), fails with kInvalidArgument before any state changes.
  /// The usual streaming round is `ApplyEvents(batch)` then
  /// `Update(batch.now)`.
  util::Status ApplyEvents(const EventBatch& batch);

  /// Optional metrics sink (unowned; must outlive the assigner). Each
  /// Update reports that round's build counters as sim.delta.* counter
  /// increments (edges_repaired, rows_recomputed, bulk_refills; see
  /// index::DeltaStats) and what the kernel's block test did as
  /// sim.build.blocks_tested / sim.build.blocks_skipped (the round
  /// graph's CandidateGraph::BlocksTested / BlocksSkipped), and every
  /// round observes sim.round_prepare_seconds (expiry and snapshot), and
  /// every round that builds a graph also observes sim.round_build_seconds
  /// (the build), sim.round_solve_seconds (the solve alone) and
  /// sim.round_commit_seconds (recording the commitments), all labelled
  /// {solver=`solver_name`} -- the registry name the owner resolved the
  /// solver by.
  void set_metrics(obs::Registry* metrics, std::string solver_name);

  /// Cumulative per-round graph-build counters.
  const index::DeltaStats& delta_stats() const { return delta_stats_; }

  /// The round clock: the latest `now` accepted by ApplyEvents or Update
  /// (0 before the first).
  double now() const { return now_; }

  /// One round of Figure 10: assigns available workers to open tasks that
  /// are still live at `now` (expired tasks are dropped first). Returns
  /// the pairs newly committed this round as global (task, worker) ids, in
  /// ascending worker order. Fails with the solver's status (no
  /// commitments are made then). A NaN or infinite `now`, or one earlier
  /// than now(), fails with kInvalidArgument before any state changes.
  util::StatusOr<std::vector<std::pair<core::TaskId, core::WorkerId>>>
  Update(double now);

  /// Current task of a worker, or kNoTask.
  core::TaskId CommittedTask(core::WorkerId id) const;

  /// Objectives of the cumulative commitments (per-task contributions of
  /// all committed workers, pending and completed).
  core::ObjectiveValue Objectives() const;

  int num_open_tasks() const { return static_cast<int>(task_ids_.size()); }
  int num_workers() const { return static_cast<int>(worker_ids_.size()); }

 private:
  /// A task's lifetime record: the task itself plus every committed
  /// contribution (kept after the task closes, for objective accounting).
  struct LedgerEntry {
    core::Task task;
    std::vector<std::pair<core::WorkerId, core::Observation>> contributions;
  };

  /// Sends the per-round diff of delta_stats_ to the metrics sink.
  void ReportDeltaMetrics();

  /// Rejects a non-finite clock or one earlier than now_.
  util::Status CheckClock(const char* field, double now) const;

  /// Voids the pending commitments to open task `id`: its committed
  /// workers become available and their contributions leave its ledger.
  void VoidCommitments(core::TaskId id);
  /// Drops the open tasks at the ascending, distinct column positions
  /// `removed`, in one pass.
  void EraseOpenTasks(const std::vector<size_t>& removed);
  /// The ledger entry of a registered task (every task ever added has
  /// one).
  LedgerEntry& LedgerOf(core::TaskId id);

  core::Solver* solver_;
  core::ArrivalPolicy policy_;
  double now_ = 0.0;
  index::DeltaStats delta_stats_;
  /// delta_stats_ at the last ReportDeltaMetrics call.
  index::DeltaStats reported_delta_;
  obs::Registry* metrics_ = nullptr;
  /// The round timers, resolved by set_metrics; null without a registry.
  obs::Histogram* round_prepare_ = nullptr;
  obs::Histogram* round_build_ = nullptr;
  obs::Histogram* round_solve_ = nullptr;
  obs::Histogram* round_commit_ = nullptr;

  /// The open tasks, in ascending id: ids and the tasks themselves.
  std::vector<core::TaskId> task_ids_;
  std::vector<core::Task> tasks_;
  /// The registered workers, in ascending id: ids, current profiles and
  /// the task each is committed to (kNoTask = available).
  std::vector<core::WorkerId> worker_ids_;
  std::vector<core::Worker> workers_;
  std::vector<core::TaskId> committed_;
  /// Every task ever added, in ascending id. A re-added id keeps its
  /// first entry, task included.
  std::vector<core::TaskId> ledger_ids_;
  std::vector<LedgerEntry> ledger_;

  /// Per-round scratch: open-task positions to drop, and the column
  /// positions of the round's available workers (snapshot order).
  std::vector<size_t> removed_;
  std::vector<size_t> available_;
  /// ApplyEvents' scratch: a non-canonical batch, sorted.
  EventBatch canonical_;
  /// VoidCommitments' scratch: the workers it freed.
  std::vector<core::WorkerId> voided_;
};

}  // namespace rdbsc::sim

#endif  // RDBSC_SIM_INCREMENTAL_H_
