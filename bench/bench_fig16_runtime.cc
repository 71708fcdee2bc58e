// Figure 16: CPU time of the four approaches as m and n grow (UNIFORM).
// Paper shape: GREEDY (and at large m also D&C / G-TRUTH) grow quickly,
// SAMPLING stays nearly flat thanks to the small (epsilon, delta)-bounded
// sample size.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/harness.h"
#include "bench/sweeps.h"

namespace rdbsc::bench {
namespace {

void RunAxis(const char* axis, const std::vector<SweepPoint>& points,
             const BenchOptions& options, BenchReport& report) {
  std::vector<std::string> solver_names;
  for (const Engine& engine : MakeEngines(0)) {
    solver_names.emplace_back(engine.solver_display_name());
  }
  std::vector<std::string> row_labels;
  std::vector<std::vector<double>> cells;
  std::vector<std::vector<double>> build_cells;
  // D&C's own phases (SolveStats): BG_Partition, leaf solves, SA_Merge.
  const size_t dc = static_cast<size_t>(
      std::find(solver_names.begin(), solver_names.end(), "D&C") -
      solver_names.begin());
  std::vector<std::vector<double>> phase_cells;
  for (const SweepPoint& point : points) {
    row_labels.push_back(point.label);
    std::vector<double> row(solver_names.size(), 0.0);
    std::vector<double> phases(3, 0.0);
    double build_seconds = 0.0;
    for (int seed_index = 0; seed_index < options.num_seeds; ++seed_index) {
      uint64_t seed = options.seed0 + 17 * seed_index;
      core::Instance instance = point.make(seed);
      // Engines report into the shared bench registry, so the JSON
      // document carries per-solver stage histograms next to the table.
      std::vector<Engine> engines =
          MakeEngines(seed, options.num_threads, &report.metrics());
      auto t0 = std::chrono::steady_clock::now();
      core::CandidateGraph graph =
          engines.front().BuildGraph(instance).value();
      build_seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      for (size_t s = 0; s < engines.size(); ++s) {
        t0 = std::chrono::steady_clock::now();
        const core::SolveStats stats =
            engines[s].SolveOn(instance, graph).value().stats;
        row[s] += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        if (s == dc) {
          phases[0] += stats.partition_seconds;
          phases[1] += stats.leaf_seconds;
          phases[2] += stats.merge_seconds;
        }
      }
    }
    for (double& v : row) v /= options.num_seeds;
    for (double& v : phases) v /= options.num_seeds;
    cells.push_back(row);
    phase_cells.push_back(phases);
    build_cells.push_back({build_seconds / options.num_seeds});
  }
  const std::string title = std::string("CPU time (s) vs ") + axis;
  PrintTable(title, axis, row_labels, solver_names, cells, 4);
  report.AddTable(title, axis, row_labels, solver_names, cells);
  if (dc < solver_names.size()) {
    const std::string phase_title = std::string("D&C phases (s) vs ") + axis;
    const std::vector<std::string> phase_names = {"partition", "leaves",
                                                  "merge"};
    PrintTable(phase_title, axis, row_labels, phase_names, phase_cells, 4);
    report.AddTable(phase_title, axis, row_labels, phase_names, phase_cells);
  }
  // The shared candidate-graph construction, timed separately: this is the
  // O(m*n) pair-validation hot path the SoA kernels accelerate.
  const std::string build_title = std::string("graph build (s) vs ") + axis;
  PrintTable(build_title, axis, row_labels, {"build"}, build_cells, 4);
  report.AddTable(build_title, axis, row_labels, {"build"}, build_cells);
}

int Run(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  BenchReport report("fig16_runtime", options);
  std::printf("== Figure 16: Running Time Comparisons (UNIFORM) ==\n");
  std::printf("scale: base=%d (paper 10K), seeds=%d\n", options.base,
              options.num_seeds);
  RunAxis("m", TaskCountSweep(options, gen::SpatialDistribution::kUniform),
          options, report);
  RunAxis("n", WorkerCountSweep(options, gen::SpatialDistribution::kUniform),
          options, report);
  std::printf("\n");
  report.Write();
  return 0;
}

}  // namespace
}  // namespace rdbsc::bench

int main(int argc, char** argv) { return rdbsc::bench::Run(argc, argv); }
