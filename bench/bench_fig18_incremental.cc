// Figure 18: effect of the incremental-update interval t_interval on the
// platform simulator (the gMission substitute; 10 users, 5 sites, 15-minute
// task opening time, exactly the Section 8.4 configuration).
// Paper shape: larger t_interval lowers total_STD for every approach and
// makes GREEDY's minimum reliability unstable.
//
// Every platform tick runs through the round engine
// (sim::IncrementalAssigner), which builds each tick's graph from the
// tick's snapshot with CandidateGraph::Build; the scaled-up "platform wall
// time" section splits each run into its graph and objective-preview
// shares. The checked-in BENCH_fig18_incremental.{before,after}.json pair
// is two earlier captures of this campus on one machine with the same
// instrumentation (--base=300 --seeds=2), before vs after each tick's
// graph moved from a grid index maintained across ticks to a per-tick
// build that chose between brute force and a fresh grid (their metrics
// still hold the per-path round counter that choice kept, which no longer
// exists). The quality tables are bit-identical between the two and with
// today's single builder; CI trend-gates the time columns.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "obs/registry.h"
#include "sim/platform.h"

namespace rdbsc::bench {
namespace {

int Run(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  BenchReport report("fig18_incremental", options);
  std::printf(
      "== Figure 18: Effect of the Updating Time Interval t_interval ==\n");
  std::printf("platform: 10 users, 5 sites, 15 min opening; seeds=%d\n",
              options.num_seeds);

  std::vector<std::string> solver_names;
  for (const Engine& engine : MakeEngines(0)) {
    solver_names.emplace_back(engine.solver_display_name());
  }

  std::vector<std::string> rows;
  std::vector<std::vector<double>> rel_cells, std_cells;
  for (int minutes = 1; minutes <= 4; ++minutes) {
    rows.push_back(std::to_string(minutes) + " min");
    std::vector<double> rel_row(solver_names.size(), 0.0);
    std::vector<double> std_row(solver_names.size(), 0.0);
    for (int seed_index = 0; seed_index < options.num_seeds; ++seed_index) {
      uint64_t seed = options.seed0 + 13 * seed_index;
      for (size_t s = 0; s < ApproachNames().size(); ++s) {
        sim::PlatformConfig config;
        config.t_interval = minutes / 60.0;
        config.seed = seed;
        config.solver_name = ApproachNames()[s];
        config.solver_options.seed = seed;
        sim::Platform platform(config);
        sim::PlatformResult result = platform.Run().value();
        rel_row[s] += result.final_objectives.min_reliability;
        std_row[s] += result.final_objectives.total_std;
      }
    }
    for (double& v : rel_row) v /= options.num_seeds;
    for (double& v : std_row) v /= options.num_seeds;
    rel_cells.push_back(rel_row);
    std_cells.push_back(std_row);
  }
  PrintTable("Minimum Reliability", "t_interval", rows, solver_names,
             rel_cells, 4);
  PrintTable("total_STD", "t_interval", rows, solver_names, std_cells, 2);
  report.AddTable("Minimum Reliability", "t_interval", rows, solver_names,
                  rel_cells);
  report.AddTable("total_STD", "t_interval", rows, solver_names, std_cells);
  std::printf("\n");

  // --- Wall time at a scaled-up campus, where the per-tick work actually
  // matters. Per run: "run (s)" is the whole Platform::Run, "graph (s)" the
  // sim.round_build_seconds total (building each round's graph) and
  // "preview (s)" the sim.round_objectives_seconds total (each round's
  // min-reliability / E[STD] preview over all sites);
  // the solver and the world step make up the rest. Each row's registry,
  // shared by its seeds, lands in the report's metrics section labelled
  // {t_interval}.
  const int wall_sites = std::max(40, options.base);
  const int wall_workers = 2 * wall_sites;
  const obs::Labels greedy = {{"solver", "greedy"}};
  std::vector<std::string> wall_rows;
  std::vector<std::vector<double>> wall_cells;
  for (int minutes = 1; minutes <= 4; ++minutes) {
    wall_rows.push_back(std::to_string(minutes) + " min");
    obs::Registry registry;
    double wall = 0.0;
    for (int seed_index = 0; seed_index < options.num_seeds; ++seed_index) {
      sim::PlatformConfig config;
      config.num_sites = wall_sites;
      config.num_workers = wall_workers;
      config.t_interval = minutes / 60.0;
      config.seed = options.seed0 + 13 * seed_index;
      config.solver_name = "greedy";
      config.solver_options.seed = config.seed;
      config.metrics = &registry;
      const auto t0 = std::chrono::steady_clock::now();
      sim::Platform(config).Run().value();
      wall += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    }
    auto total = [&](const char* histogram) {
      return registry.GetHistogram(histogram, greedy, 1e-9).Snapshot().sum();
    };
    wall_cells.push_back({wall / options.num_seeds,
                          total("sim.round_build_seconds") / options.num_seeds,
                          total("sim.round_objectives_seconds") /
                              options.num_seeds});
    report.AddMetrics(registry.Snapshot(), {{"t_interval", wall_rows.back()}});
  }
  const std::vector<std::string> wall_columns = {"run (s)", "graph (s)",
                                                 "preview (s)"};
  PrintTable("platform wall time", "t_interval", wall_rows, wall_columns,
             wall_cells, 4);
  report.AddTable("platform wall time", "t_interval", wall_rows, wall_columns,
                  wall_cells);
  std::printf("\n");
  report.Write();
  return 0;
}

}  // namespace
}  // namespace rdbsc::bench

int main(int argc, char** argv) { return rdbsc::bench::Run(argc, argv); }
