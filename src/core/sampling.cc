#include "core/sampling.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/dominance.h"
#include "core/registry.h"
#include "core/sample_size.h"
#include "util/math.h"
#include "util/rng.h"

namespace rdbsc::core {

int SamplingSolver::EffectiveSampleSize(const CandidateGraph& graph) const {
  int64_t k;
  if (options_.fixed_sample_size > 0) {
    k = options_.fixed_sample_size;
  } else {
    SampleSizeParams params;
    params.epsilon = options_.epsilon;
    params.delta = options_.delta;
    params.log_population = graph.LogPopulation();
    k = DetermineSampleSize(params, options_.max_sample_size);
  }
  k *= std::max(1, options_.sample_multiplier);
  k = std::max<int64_t>(k, options_.min_sample_size);
  k = std::min<int64_t>(k, options_.max_sample_size);
  return static_cast<int>(k);
}

util::StatusOr<SolveResult> SamplingSolver::SolveImpl(
    const Instance& instance, const CandidateGraph& graph,
    const util::Deadline& deadline, util::Executor& executor,
    SolveStats* partial_stats) {
  const int k = EffectiveSampleSize(graph);
  internal::SampleScorer scorer(instance, graph, k);
  const int drawing = scorer.num_drawing();

  // Lines 4-7 of Fig. 5: pick, for every worker, one incident edge
  // uniformly at random. Sample h draws from its own stream, forked in
  // sample order (the Rng(seed) construction is exactly what Fork() does),
  // and row h of `slots` holds the memo slots of its picks. The draw is
  // serial, so every memo is filled, and counted, before any shard scores;
  // a sample's score depends only on its row, so the scores are the same
  // on any executor width.
  util::Rng rng(options_.seed);
  std::vector<uint32_t> slots(static_cast<size_t>(k) *
                              static_cast<size_t>(drawing));
  auto sample = [&](int64_t h) {
    return std::span<uint32_t>(slots.data() + h * drawing,
                               static_cast<size_t>(drawing));
  };
  int64_t memo_evals = 0;
  for (int h = 0; h < k; ++h) {
    util::Rng sample_rng(rng.NextU64());
    const std::span<uint32_t> row = sample(h);
    for (int d = 0; d < drawing; ++d) {
      const auto degree = static_cast<int64_t>(scorer.TasksOf(d).size());
      const auto pick =
          static_cast<uint32_t>(sample_rng.UniformInt(0, degree - 1));
      row[d] = scorer.MemoSlot(d, pick, &memo_evals);
    }
  }

  std::vector<ObjectiveValue> values(k);
  std::atomic<int> completed{0};
  std::atomic<int64_t> score_evals{0};
  std::atomic<bool> interrupted{false};
  executor.ShardedFor(k, [&](int /*shard*/, int64_t begin, int64_t end) {
    internal::SampleScorer::Scratch scratch(scorer);
    int64_t evals = 0;
    for (int64_t h = begin; h < end; ++h) {
      if (interrupted.load(std::memory_order_relaxed) ||
          deadline.Exhausted()) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      values[h] = scorer.Score(sample(h), scratch, &evals);
      completed.fetch_add(1, std::memory_order_relaxed);
    }
    score_evals.fetch_add(evals, std::memory_order_relaxed);
  });

  SolveResult result;
  result.stats.exact_std_evals = memo_evals + score_evals.load();
  if (interrupted.load(std::memory_order_relaxed)) {
    result.stats.sample_size = completed.load();
    return BudgetError(deadline, result.stats, partial_stats);
  }

  // Line 8: rank samples by how many other samples they dominate.
  std::vector<BiPoint> sample_points(k);
  for (int h = 0; h < k; ++h) {
    sample_points[h] = {values[h].min_reliability, values[h].total_std};
  }
  const size_t best = TopDominating(sample_points);

  result.assignment = Assignment(instance.num_workers());
  const std::span<const uint32_t> winner =
      sample(static_cast<int64_t>(best));
  for (int d = 0; d < drawing; ++d) {
    result.assignment.Assign(scorer.DrawingWorker(d),
                             scorer.SlotTask(winner[d]));
  }
  result.objectives = values[best];
  result.stats.sample_size = k;
  return result;
}

namespace internal {

SampleScorer::Scratch::Scratch(const SampleScorer& scorer)
    : slot_of_task_(static_cast<size_t>(scorer.instance_->num_tasks()), -1),
      next_(scorer.rows_.size()),
      delta_(scorer.rows_.size()) {
  task_.reserve(scorer.rows_.size());
  first_.reserve(scorer.rows_.size());
  last_.reserve(scorer.rows_.size());
  roster_.reserve(scorer.rows_.size());
}

SampleScorer::SampleScorer(const Instance& instance,
                           const CandidateGraph& graph, int max_samples)
    : instance_(&instance), single_(1) {
  int64_t edges = 0;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    const std::span<const TaskId> tasks = graph.TasksOf(j);
    if (tasks.empty()) continue;
    rows_.push_back(Row{j,
                        util::ReliabilityWeight(instance.worker(j).confidence),
                        edges, tasks});
    edges += static_cast<int64_t>(tasks.size());
  }
  edge_slot_.assign(static_cast<size_t>(edges), -1);
  memos_.reserve(static_cast<size_t>(std::min<int64_t>(
      edges, int64_t{std::max(max_samples, 0)} *
                 static_cast<int64_t>(rows_.size()))));
}

uint32_t SampleScorer::MemoSlot(int d, uint32_t pick, int64_t* std_evals) {
  const Row& row = rows_[d];
  assert(pick < row.tasks.size());
  int32_t& slot = edge_slot_[static_cast<size_t>(row.first_edge + pick)];
  if (slot < 0) {
    slot = static_cast<int32_t>(memos_.size());
    const TaskId i = row.tasks[pick];
    const Task& task = instance_->task(i);
    // The observation AssignmentState::ObservationFor makes.
    single_[0] = MakeObservation(task, instance_->worker(row.worker),
                                 instance_->now(), instance_->policy());
    memos_.push_back(Memo{single_[0], ExpectedStd(task, single_), i});
    ++*std_evals;
  }
  return static_cast<uint32_t>(slot);
}

ObjectiveValue SampleScorer::Score(std::span<const uint32_t> slots,
                                   Scratch& scratch,
                                   int64_t* std_evals) const {
  assert(slots.size() == rows_.size());
  // Group the picks by task, stably in worker order: one chain through
  // next_ per touched task.
  scratch.task_.clear();
  scratch.first_.clear();
  scratch.last_.clear();
  const int drawing = num_drawing();
  for (int d = 0; d < drawing; ++d) {
    const TaskId i = memos_[slots[d]].task;
    int& s = scratch.slot_of_task_[i];
    if (s < 0) {
      s = static_cast<int>(scratch.task_.size());
      scratch.task_.push_back(i);
      scratch.first_.push_back(d);
      scratch.last_.push_back(d);
    } else {
      scratch.next_[scratch.last_[s]] = d;
      scratch.last_[s] = d;
    }
    scratch.next_[d] = -1;
  }

  ObjectiveValue value;
  if (scratch.task_.empty()) return value;  // no worker draws
  // Per task, Reset's steps for each of its workers in turn: Attach adds
  // the weight to R, SetTaskStd moves the total by fresh - previous. The
  // moves are summed below in worker order, as the replay sums them.
  double min_r = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < scratch.task_.size(); ++s) {
    const TaskId i = scratch.task_[s];
    scratch.slot_of_task_[i] = -1;
    scratch.roster_.clear();
    double r = 0.0;
    double previous = 0.0;
    for (int d = scratch.first_[s]; d >= 0; d = scratch.next_[d]) {
      const Memo& memo = memos_[slots[d]];
      scratch.roster_.push_back(memo.obs);
      double fresh = memo.e1;
      if (scratch.roster_.size() > 1) {
        fresh = ExpectedStd(instance_->task(i), scratch.roster_);
        ++*std_evals;
      }
      scratch.delta_[d] = fresh - previous;
      previous = fresh;
      r += rows_[d].weight;
    }
    min_r = std::min(min_r, r);
  }
  double total = 0.0;
  for (int d = 0; d < drawing; ++d) total += scratch.delta_[d];
  value.total_std = total;
  value.min_reliability = util::ReducedToProbability(min_r);
  return value;
}

void RegisterSamplingSolver(SolverRegistry& registry) {
  RegisterBuiltin(registry, "sampling", [](const SolverOptions& options) {
    return std::make_unique<SamplingSolver>(options);
  });
}

}  // namespace internal

}  // namespace rdbsc::core
