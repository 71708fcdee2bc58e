#ifndef RDBSC_CORE_INSTANCE_H_
#define RDBSC_CORE_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/model.h"
#include "util/deadline.h"
#include "util/executor.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rdbsc::core {

class InstanceSoA;  // core/kernels.h
struct EdgeRow;     // core/kernels.h

/// A snapshot of the crowdsourcing system: the current task set T, worker
/// set W, the wall-clock time `now`, and the arrival policy. Solvers operate
/// on instances; the dynamic platform (src/sim) produces a fresh instance at
/// every incremental update round.
class Instance {
 public:
  Instance() = default;
  Instance(std::vector<Task> tasks, std::vector<Worker> workers,
           double now = 0.0, ArrivalPolicy policy = ArrivalPolicy::kStrict)
      : tasks_(std::move(tasks)),
        workers_(std::move(workers)),
        now_(now),
        policy_(policy) {}

  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<Worker>& workers() const { return workers_; }
  double now() const { return now_; }
  ArrivalPolicy policy() const { return policy_; }

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  const Task& task(TaskId id) const { return tasks_[id]; }
  const Worker& worker(WorkerId id) const { return workers_[id]; }

  /// The columnar companion (task columns + per-worker kernel geometry;
  /// see core/kernels.h), built on first use and cached for the lifetime
  /// of the instance. Thread-safe; the returned view is immutable, so
  /// solver shards share it freely. Copies of the instance share the
  /// cache (the underlying data cannot diverge -- instances are
  /// immutable after construction).
  const InstanceSoA& soa() const;

  /// Validates every task and worker (ValidateTask / ValidateWorker, with
  /// the index as the id). Solvers assume a valid instance.
  util::Status Validate() const;

 private:
  /// Lazily built SoA view, built once under its own mutex.
  /// Heap-allocated and shared so the instance stays cheaply copyable.
  struct SoaCache {
    mutable util::Mutex mu;
    std::shared_ptr<const InstanceSoA> value GUARDED_BY(mu);
  };

  std::vector<Task> tasks_;
  std::vector<Worker> workers_;
  double now_ = 0.0;
  ArrivalPolicy policy_ = ArrivalPolicy::kStrict;
  std::shared_ptr<SoaCache> soa_cache_ = std::make_shared<SoaCache>();
};

/// The per-record input checks, shared by Instance::Validate and the
/// incremental round engine (sim::IncrementalAssigner) so that bad input
/// gets the same clear error in every build type instead of reaching
/// Debug-only asserts. A task needs a finite location, a finite valid
/// period of positive length and beta in [0,1]; a worker needs a finite
/// location, a finite positive velocity, a finite direction cone, a
/// confidence in [0,1] and a finite check-in time. NaN fails every check.
/// Errors are kInvalidArgument and name the record, its id, the field and
/// its value, e.g. "task 3: beta = nan outside [0,1]".
util::Status ValidateTask(TaskId id, const Task& task);
util::Status ValidateWorker(WorkerId id, const Worker& worker);

/// The bipartite validity graph of Figure 4: for every worker the list of
/// tasks it can validly serve and the transpose. Built once per solve by
/// Build, the one builder every engine and streaming path uses. Build runs
/// the batched pair kernel (core/kernels.h) over the instance's SoA view,
/// which brings the grid index's cell pruning into the vector scan: each
/// worker row first tests one summary per block of 32 spatially ordered
/// tasks and classifies only the blocks that may hold a pair; rows still
/// come out in ascending task id. The grid
/// index's retrieval (src/index) yields the same edges but was measured
/// slower on every shape the repo produces; only benches and tests use it.
///
/// Storage is CSR (one flat id array plus offsets per side): rows come out
/// of the build kernels as exact-size arena spans, so assembly is two flat
/// copies instead of per-worker vector growth, and row accessors return
/// std::span views into contiguous memory.
class CandidateGraph {
 public:
  /// Builds the graph by testing every (task, worker) pair; O(m*n).
  static CandidateGraph Build(const Instance& instance);

  /// Same construction with interruption points and optional sharding:
  /// worker rows are partitioned across `executor` (nullptr = serial) and
  /// `deadline` is polled between row blocks, so a wall-clock budget or
  /// cancellation cuts the O(m*n) scan short with kDeadlineExceeded /
  /// kCancelled. The edge set is identical to the serial Build for every
  /// executor width (rows are independent; merge is by worker id), and to
  /// a scalar IsValidPair scan (the batched kernel's exact-equality
  /// contract, core/kernels.h).
  static util::StatusOr<CandidateGraph> Build(const Instance& instance,
                                              util::Executor* executor,
                                              const util::Deadline& deadline);

  /// Builds the graph from precomputed edges (as retrieved from the grid
  /// index); `edges[j]` lists the valid tasks of worker j.
  static CandidateGraph FromEdges(const Instance& instance,
                                  std::vector<std::vector<TaskId>> edges);

  /// The same from flat CSR rows: worker j's valid tasks are
  /// edges[offsets[j], offsets[j + 1]), ascending. `offsets` has one entry
  /// per worker of `instance` plus one.
  static CandidateGraph FromEdges(const Instance& instance,
                                  std::span<const TaskId> edges,
                                  std::span<const int64_t> offsets);

  /// Valid tasks of worker `j` (the edges incident to the worker node),
  /// ascending.
  std::span<const TaskId> TasksOf(WorkerId j) const {
    const auto a = static_cast<size_t>(worker_offsets_[j]);
    const auto b = static_cast<size_t>(worker_offsets_[j + 1]);
    return {worker_edges_.data() + a, b - a};
  }
  /// Valid workers of task `i`, ascending.
  std::span<const WorkerId> WorkersOf(TaskId i) const {
    const auto a = static_cast<size_t>(task_offsets_[i]);
    const auto b = static_cast<size_t>(task_offsets_[i + 1]);
    return {task_edges_.data() + a, b - a};
  }

  /// deg(w_j) in the paper's sampling analysis.
  int Degree(WorkerId j) const {
    return static_cast<int>(worker_offsets_[j + 1] - worker_offsets_[j]);
  }

  /// Total number of valid task-worker pairs.
  int64_t NumEdges() const { return num_edges_; }

  /// (worker row, task block) tests Build ran, and how many of them
  /// rejected the block unclassified; summed over shards, so they equal
  /// the serial build's at any executor width. Both are 0 for an instance
  /// of at most kMaxUnorderedTasks tasks (core/kernels.h) and for graphs
  /// made by FromEdges.
  int64_t BlocksTested() const { return blocks_tested_; }
  int64_t BlocksSkipped() const { return blocks_skipped_; }

  /// ln of the population size N = prod_j max(deg(w_j), 1) (Section 5.2).
  /// Workers with no valid task contribute factor 1.
  double LogPopulation() const;

  int num_tasks() const {
    return task_offsets_.empty() ? 0
                                 : static_cast<int>(task_offsets_.size()) - 1;
  }
  int num_workers() const {
    return worker_offsets_.empty()
               ? 0
               : static_cast<int>(worker_offsets_.size()) - 1;
  }

 private:
  /// Flat assembly from per-worker rows (arena spans or vector views):
  /// prefix-sum offsets, one bulk copy per row, then the transpose in
  /// ascending worker order.
  static CandidateGraph FromRows(int num_tasks, int num_workers,
                                 const EdgeRow* rows);

  std::vector<int64_t> worker_offsets_;  // n + 1 entries (empty when n == 0)
  std::vector<TaskId> worker_edges_;
  std::vector<int64_t> task_offsets_;    // m + 1 entries (empty when m == 0)
  std::vector<WorkerId> task_edges_;
  int64_t num_edges_ = 0;
  int64_t blocks_tested_ = 0;
  int64_t blocks_skipped_ = 0;
};

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_INSTANCE_H_
