#include "core/sampling.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/dominance.h"
#include "core/registry.h"
#include "core/sample_size.h"
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
  auto t0 = std::chrono::steady_clock::now();

  const int k = EffectiveSampleSize(graph);

  // One independent child stream per sample, seeded in sample order (the
  // in-shard Rng(seed) construction is exactly what Fork() does). Each
  // sample depends only on its own stream, so batches can be evaluated on
  // any executor width and still reproduce the serial run bit for bit.
  util::Rng rng(options_.seed);
  std::vector<uint64_t> sample_seeds(k);
  for (int h = 0; h < k; ++h) sample_seeds[h] = rng.engine()();

  std::vector<Assignment> samples(k);
  std::vector<ObjectiveValue> values(k);
  std::atomic<int> completed{0};
  std::atomic<bool> interrupted{false};
  executor.ShardedFor(k, [&](int /*shard*/, int64_t begin, int64_t end) {
    for (int64_t h = begin; h < end; ++h) {
      if (interrupted.load(std::memory_order_relaxed) ||
          deadline.Exhausted()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      // Lines 4-7 of Fig. 5: pick, for every worker, one incident edge
      // uniformly at random.
      Assignment sample(instance.num_workers());
      util::Rng sample_rng(sample_seeds[h]);
      for (WorkerId j = 0; j < instance.num_workers(); ++j) {
        const auto& tasks = graph.TasksOf(j);
        if (tasks.empty()) continue;
        size_t pick = static_cast<size_t>(sample_rng.UniformInt(
            0, static_cast<int64_t>(tasks.size()) - 1));
        sample.Assign(j, tasks[pick]);
      }
      values[h] = EvaluateAssignment(instance, sample);
      samples[h] = std::move(sample);
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  SolveResult result;
  result.stats.exact_std_evals =
      static_cast<int64_t>(completed.load()) * instance.num_tasks();
  if (interrupted.load(std::memory_order_relaxed)) {
    result.stats.sample_size = completed.load();
    result.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return BudgetError(deadline, result.stats, partial_stats);
  }

  // Line 8: rank samples by how many other samples they dominate.
  std::vector<BiPoint> sample_points(k);
  for (int h = 0; h < k; ++h) {
    sample_points[h] = {values[h].min_reliability, values[h].total_std};
  }
  size_t best = TopDominating(sample_points);

  result.assignment = std::move(samples[best]);
  result.objectives = values[best];
  result.stats.sample_size = k;
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

namespace internal {

void RegisterSamplingSolver(SolverRegistry& registry) {
  RegisterBuiltin(registry, "sampling", [](const SolverOptions& options) {
    return std::make_unique<SamplingSolver>(options);
  });
}

}  // namespace internal

}  // namespace rdbsc::core
