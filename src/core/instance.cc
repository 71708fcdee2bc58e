#include "core/instance.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "core/kernels.h"
#include "util/arena.h"

namespace rdbsc::core {

namespace {

// "<kind> <id>: <field> = <value> <problem>", the one error shape of the
// per-record checks below.
util::Status BadField(const char* kind, int32_t id, const char* field,
                      double value, const char* problem) {
  char text[160];
  std::snprintf(text, sizeof(text), "%s %d: %s = %g %s", kind,
                static_cast<int>(id), field, value, problem);
  return util::Status::InvalidArgument(text);
}

// The first of `fields` that is NaN or infinite, as a BadField error.
util::Status CheckFinite(
    const char* kind, int32_t id,
    std::initializer_list<std::pair<const char*, double>> fields) {
  for (const auto& [field, value] : fields) {
    if (!std::isfinite(value)) {
      return BadField(kind, id, field, value, "not finite");
    }
  }
  return util::Status::OK();
}

}  // namespace

util::Status ValidateTask(TaskId id, const Task& task) {
  if (util::Status s = CheckFinite("task", id,
                                   {{"location.x", task.location.x},
                                    {"location.y", task.location.y},
                                    {"start", task.start},
                                    {"end", task.end}});
      !s.ok()) {
    return s;
  }
  if (!(task.Duration() > 0.0) || !std::isfinite(task.Duration())) {
    return BadField("task", id, "end - start", task.Duration(),
                    "not a finite positive length");
  }
  if (!(task.beta >= 0.0 && task.beta <= 1.0)) {
    return BadField("task", id, "beta", task.beta, "outside [0,1]");
  }
  return util::Status::OK();
}

util::Status ValidateWorker(WorkerId id, const Worker& worker) {
  if (util::Status s =
          CheckFinite("worker", id,
                      {{"location.x", worker.location.x},
                       {"location.y", worker.location.y},
                       {"velocity", worker.velocity},
                       {"direction.lo", worker.direction.lo()},
                       {"direction.width", worker.direction.width()},
                       {"available_from", worker.available_from}});
      !s.ok()) {
    return s;
  }
  if (!(worker.velocity > 0.0)) {
    return BadField("worker", id, "velocity", worker.velocity,
                    "not positive");
  }
  if (!(worker.confidence >= 0.0 && worker.confidence <= 1.0)) {
    return BadField("worker", id, "confidence", worker.confidence,
                    "outside [0,1]");
  }
  return util::Status::OK();
}

util::Status Instance::Validate() const {
  for (TaskId i = 0; i < num_tasks(); ++i) {
    if (util::Status s = ValidateTask(i, tasks_[i]); !s.ok()) return s;
  }
  for (WorkerId j = 0; j < num_workers(); ++j) {
    if (util::Status s = ValidateWorker(j, workers_[j]); !s.ok()) return s;
  }
  return util::Status::OK();
}

const InstanceSoA& Instance::soa() const {
  assert(soa_cache_ != nullptr && "soa() called on a moved-from instance");
  util::MutexLock lock(soa_cache_->mu);
  if (soa_cache_->value == nullptr) {
    soa_cache_->value =
        std::make_shared<const InstanceSoA>(InstanceSoA::Build(*this));
  }
  // The pointee is immutable and the pointer is only ever set once, so the
  // reference stays valid for the lifetime of the cache (shared by all
  // copies of the instance).
  return *soa_cache_->value;
}

CandidateGraph CandidateGraph::Build(const Instance& instance) {
  // Unlimited deadline: the sharded path cannot fail.
  return Build(instance, nullptr, util::Deadline()).value();
}

util::StatusOr<CandidateGraph> CandidateGraph::Build(
    const Instance& instance, util::Executor* executor,
    const util::Deadline& deadline) {
  const int num_workers = instance.num_workers();

  // Shards run the batched kernel row driver over disjoint worker ranges,
  // parking each row in a per-shard arena (no per-worker vector growth;
  // the assembly below does one bulk copy per row). The deadline is polled
  // inside the driver every kKernelRowsPerPoll rows.
  std::vector<EdgeRow> rows(static_cast<size_t>(num_workers));
  util::Executor& exec = util::OrSerial(executor);
  std::vector<util::Arena> arenas(static_cast<size_t>(exec.width()));
  std::vector<BlockTestCounts> counts(arenas.size());
  std::atomic<bool> interrupted{false};
  exec.ShardedFor(num_workers, [&](int shard, int64_t begin, int64_t end) {
    const bool completed = ValidPairsRows(instance, begin, end, deadline,
                                          &arenas[shard], rows.data(),
                                          &counts[shard]);
    if (!completed) interrupted.store(true, std::memory_order_relaxed);
  });
  if (interrupted.load(std::memory_order_relaxed)) {
    return util::InterruptedStatus(deadline, "graph build interrupted");
  }
  CandidateGraph graph =
      FromRows(instance.num_tasks(), num_workers, rows.data());
  for (const BlockTestCounts& shard : counts) {
    graph.blocks_tested_ += shard.tested;
    graph.blocks_skipped_ += shard.skipped;
  }
  return graph;
}

CandidateGraph CandidateGraph::FromEdges(
    const Instance& instance, std::vector<std::vector<TaskId>> edges) {
  edges.resize(static_cast<size_t>(instance.num_workers()));
  std::vector<EdgeRow> rows(edges.size());
  for (size_t j = 0; j < edges.size(); ++j) {
    rows[j] = {edges[j].data(), static_cast<int32_t>(edges[j].size())};
  }
  return FromRows(instance.num_tasks(), instance.num_workers(), rows.data());
}

CandidateGraph CandidateGraph::FromRows(int num_tasks, int num_workers,
                                        const EdgeRow* rows) {
  CandidateGraph graph;
  graph.num_tasks_ = num_tasks;
  graph.worker_offsets_.assign(static_cast<size_t>(num_workers) + 1, 0);
  for (int j = 0; j < num_workers; ++j) {
    graph.worker_offsets_[j + 1] = graph.worker_offsets_[j] + rows[j].count;
  }
  graph.num_edges_ = graph.worker_offsets_[num_workers];
  graph.worker_edges_.resize(static_cast<size_t>(graph.num_edges_));
  for (int j = 0; j < num_workers; ++j) {
    if (rows[j].count > 0) {
      std::memcpy(graph.worker_edges_.data() + graph.worker_offsets_[j],
                  rows[j].data,
                  static_cast<size_t>(rows[j].count) * sizeof(TaskId));
    }
  }
  return graph;
}

double CandidateGraph::LogPopulation() const {
  double log_n = 0.0;
  for (int j = 0; j < num_workers(); ++j) {
    const int deg = Degree(j);
    if (deg > 0) log_n += std::log(static_cast<double>(deg));
  }
  return log_n;
}

}  // namespace rdbsc::core
