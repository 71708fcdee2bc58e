// Ablation: dynamic maintenance of the RDB-SC-Grid (Section 7.2). Workers
// and tasks churn in and out of the system; the index must absorb inserts
// and removals cheaply (lazy summary repair) while retrieval stays exact.
// Reports insert/remove throughput and the retrieval cost after churn.
//
// The second section measures small-delta rounds (a few percent of
// workers move between assignments): each round applies the moves to the
// index and retrieves the full edge set with one RetrievePairs pass --
// what every sim::IncrementalAssigner round pays for its candidate edges.
//
// The trade: a cache of candidate rows above the index that re-derives
// only the moved workers' rows reads 0.05-0.10 ms (1% moved) and
// 0.19-0.29 ms (5% moved) a round here, against 0.9-1.6 ms for the full
// retrieval (--base=300 --seeds=3, shared 4-core Xeon VM, GCC 12, -O3).
// That regime -- a frozen clock, a few moved workers, no task churn, no
// solve -- is produced by no library caller: every sim::Platform tick and
// sim::StreamingSession round advances the clock, and such a cache must
// then recompute every row anyway, so the library keeps one retrieval
// path. The checked-in BENCH_ablation_index_dynamic.{before,after}.json
// pair is gated by tools/bench_trend.py in CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/params.h"
#include "index/grid_index.h"
#include "obs/registry.h"
#include "util/rng.h"
#include "util/status.h"

namespace rdbsc::bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A failed maintenance call leaves the index out of step with the moves,
// so every number after it would be meaningless.
void OrDie(const util::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "bench_ablation_index_dynamic: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

int Run(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  BenchReport report("ablation_index_dynamic", options);
  std::printf("== Ablation: RDB-SC-Grid dynamic maintenance ==\n");
  std::printf("scale: base=%d, seeds=%d\n", options.base, options.num_seeds);

  std::vector<std::string> rows;
  std::vector<std::vector<double>> cells;
  for (double churn_fraction : {0.1, 0.3, 0.5}) {
    // Per-row metrics: each timed phase as a histogram, one sample per
    // seed.
    const obs::Labels churn = {{"churn", std::to_string(churn_fraction)}};
    obs::Histogram& remove_hist = report.metrics().GetHistogram(
        "index.churn.remove_seconds", churn, 1e-9);
    obs::Histogram& insert_hist = report.metrics().GetHistogram(
        "index.churn.insert_seconds", churn, 1e-9);
    obs::Histogram& retrieve_hist = report.metrics().GetHistogram(
        "index.churn.retrieve_seconds", churn, 1e-9);
    double insert_rate = 0.0, remove_rate = 0.0, retrieve_s = 0.0;
    int64_t edges_index = 0, edges_brute = 0;
    for (int seed_index = 0; seed_index < options.num_seeds; ++seed_index) {
      gen::WorkloadConfig config =
          DefaultSynthetic(options, options.seed0 + seed_index);
      core::Instance instance = gen::GenerateInstance(config);
      index::GridIndex index = index::GridIndex::Build(instance, 0.05);
      util::Rng rng(options.seed0 + seed_index);

      // Remove a churn_fraction of workers and tasks...
      int removals = static_cast<int>(instance.num_workers() *
                                      churn_fraction);
      std::vector<core::WorkerId> removed_workers;
      std::vector<core::TaskId> removed_tasks;
      auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < removals; ++r) {
        core::WorkerId j = static_cast<core::WorkerId>(
            rng.UniformInt(0, instance.num_workers() - 1));
        if (index.RemoveWorker(j).ok()) removed_workers.push_back(j);
        core::TaskId i = static_cast<core::TaskId>(
            rng.UniformInt(0, instance.num_tasks() - 1));
        if (index.RemoveTask(i).ok()) removed_tasks.push_back(i);
      }
      double remove_elapsed = Seconds(t0);
      remove_hist.Observe(remove_elapsed);
      remove_rate += (removed_workers.size() + removed_tasks.size()) /
                     std::max(remove_elapsed, 1e-9);

      // ... and re-insert them (arrival of "new" workers/tasks).
      t0 = std::chrono::steady_clock::now();
      for (core::WorkerId j : removed_workers) {
        OrDie(index.InsertWorker(j, instance.worker(j)),
              "GridIndex::InsertWorker");
      }
      for (core::TaskId i : removed_tasks) {
        OrDie(index.InsertTask(i, instance.task(i)), "GridIndex::InsertTask");
      }
      double insert_elapsed = Seconds(t0);
      insert_hist.Observe(insert_elapsed);
      insert_rate += (removed_workers.size() + removed_tasks.size()) /
                     std::max(insert_elapsed, 1e-9);

      // Retrieval after churn must match brute force exactly.
      t0 = std::chrono::steady_clock::now();
      auto edges = index.RetrieveEdges(instance.num_workers()).value();
      const double retrieve_elapsed = Seconds(t0);
      retrieve_s += retrieve_elapsed;
      retrieve_hist.Observe(retrieve_elapsed);
      for (const auto& list : edges) {
        edges_index += static_cast<int64_t>(list.size());
      }
      edges_brute += core::CandidateGraph::Build(instance).NumEdges();
    }
    if (edges_index != edges_brute) {
      std::printf("ERROR: churned index disagrees with brute force\n");
      return 1;
    }
    rows.push_back(std::to_string(churn_fraction));
    cells.push_back({remove_rate / options.num_seeds,
                     insert_rate / options.num_seeds,
                     retrieve_s / options.num_seeds});
  }
  PrintTable("dynamic maintenance", "churn", rows,
             {"removes/s", "inserts/s", "retrieve(s)"}, cells, 1);
  report.AddTable("dynamic maintenance", "churn", rows,
                  {"removes/s", "inserts/s", "retrieve(s)"}, cells);
  std::printf("\n");

  // --- Small-delta rounds: moves plus the round's full retrieval. ---
  constexpr int kRounds = 10;
  std::vector<std::string> delta_rows;
  std::vector<std::vector<double>> delta_cells;
  for (double moved_fraction : {0.01, 0.05}) {
    obs::Histogram& round_hist = report.metrics().GetHistogram(
        "index.delta.round_seconds",
        {{"moved_frac", std::to_string(moved_fraction)}}, 1e-9);
    double round_s = 0.0;
    double edges_per_round = 0.0;
    for (int seed_index = 0; seed_index < options.num_seeds; ++seed_index) {
      gen::WorkloadConfig config =
          DefaultSynthetic(options, options.seed0 + 31 * seed_index);
      core::Instance instance = gen::GenerateInstance(config);
      index::GridIndex index = index::GridIndex::Build(instance, 0.05);
      util::Rng rng(options.seed0 + 31 * seed_index);
      std::vector<geo::Point> position(instance.num_workers());
      for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
        position[j] = instance.worker(j).location;
      }

      const int moved = std::max(
          1, static_cast<int>(instance.num_workers() * moved_fraction));
      int64_t edges = 0;
      const int64_t tcell_rebuilds = index.reachability_rebuilds();
      const int64_t tcell_patches = index.reachability_patches();
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::pair<core::WorkerId, geo::Point>> moves;
        moves.reserve(static_cast<size_t>(moved));
        for (int k = 0; k < moved; ++k) {
          core::WorkerId j = static_cast<core::WorkerId>(
              rng.UniformInt(0, instance.num_workers() - 1));
          geo::Point to = position[j];
          to.x += rng.Uniform(-0.02, 0.02);
          to.y += rng.Uniform(-0.02, 0.02);
          moves.emplace_back(j, to);
        }

        auto t0 = std::chrono::steady_clock::now();
        for (const auto& [j, to] : moves) {
          OrDie(index.MoveWorker(j, to), "GridIndex::MoveWorker");
          position[j] = to;
        }
        edges += static_cast<int64_t>(index.RetrievePairs().value().size());
        const double round_elapsed = Seconds(t0);
        round_s += round_elapsed;
        round_hist.Observe(round_elapsed);
      }
      edges_per_round +=
          static_cast<double>(edges) / static_cast<double>(kRounds);
      // The same tcell counters IncrementalAssigner reports per round.
      const obs::Labels labels = {{"moved_frac",
                                   std::to_string(moved_fraction)}};
      report.metrics()
          .GetCounter("sim.delta.tcell_rebuilds", labels)
          .Increment(index.reachability_rebuilds() - tcell_rebuilds);
      report.metrics()
          .GetCounter("sim.delta.tcell_patches", labels)
          .Increment(index.reachability_patches() - tcell_patches);
    }
    delta_rows.push_back(std::to_string(moved_fraction));
    delta_cells.push_back(
        {round_s / (options.num_seeds * kRounds),
         edges_per_round / options.num_seeds});
  }
  PrintTable("small-delta rounds", "moved frac", delta_rows,
             {"round (s)", "edges"}, delta_cells, 6);
  report.AddTable("small-delta rounds", "moved frac", delta_rows,
                  {"round (s)", "edges"}, delta_cells);
  std::printf("\n");
  report.Write();
  return 0;
}

}  // namespace
}  // namespace rdbsc::bench

int main(int argc, char** argv) { return rdbsc::bench::Run(argc, argv); }
