#ifndef RDBSC_SIM_EVENTS_H_
#define RDBSC_SIM_EVENTS_H_

#include <algorithm>
#include <vector>

#include "core/model.h"
#include "geo/point.h"

namespace rdbsc::sim {

/// The typed event vocabulary of the streaming round engine: everything
/// that can change the RDB-SC world between two assignment rounds. Events
/// are applied in batches (IncrementalAssigner::ApplyEvents) to the
/// assigner's registries; the next round builds its graph from them.

/// An available worker changed position (e.g. drifted while idle).
struct WorkerMoved {
  core::WorkerId id = 0;
  geo::Point to;
};

/// A new task entered the system under a caller-chosen stable id.
struct TaskArrived {
  core::TaskId id = 0;
  core::Task task;
};

/// A task left the system before completion (deadline passed or it was
/// withdrawn); pending commitments to it are voided.
struct TaskExpired {
  core::TaskId id = 0;
};

/// A committed worker finished (answered or gave up) and is assignable
/// again from `position`.
struct WorkerCompleted {
  core::WorkerId id = 0;
  geo::Point position;
};

/// One round's worth of world changes, grouped by type. Application order
/// is canonical and type-major -- expirations, then completions, then
/// arrivals, then moves, each group in ascending id order -- so any two
/// producers that collect the same logical events yield bit-identical
/// registries and rounds regardless of the order they appended them in.
/// (Expire-before-arrive also lets a batch retire and re-register the
/// same task id in one round.)
struct EventBatch {
  /// The clock the batch is applied at (must be >= the assigner's clock;
  /// an earlier one is rejected).
  double now = 0.0;

  std::vector<TaskExpired> expired;
  std::vector<WorkerCompleted> completed;
  std::vector<TaskArrived> arrived;
  std::vector<WorkerMoved> moved;

  bool empty() const {
    return expired.empty() && completed.empty() && arrived.empty() &&
           moved.empty();
  }

  /// Whether every group is already in strictly ascending id order.
  bool IsCanonical() const {
    auto ascending = [](const auto& group) {
      return std::adjacent_find(group.begin(), group.end(),
                                [](const auto& a, const auto& b) {
                                  return !(a.id < b.id);
                                }) == group.end();
    };
    return ascending(expired) && ascending(completed) && ascending(arrived) &&
           ascending(moved);
  }

  /// Sorts every group by id, establishing the canonical order. Ids must
  /// be unique within each group.
  void Canonicalize() {
    auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };
    std::sort(expired.begin(), expired.end(), by_id);
    std::sort(completed.begin(), completed.end(), by_id);
    std::sort(arrived.begin(), arrived.end(), by_id);
    std::sort(moved.begin(), moved.end(), by_id);
  }
};

}  // namespace rdbsc::sim

#endif  // RDBSC_SIM_EVENTS_H_
