// Figure 17: efficiency of the RDB-SC-Grid index (UNIFORM, m = 10K,
// n varying 5K..30K at paper scale): (a) index construction time,
// (b) valid W-T pair retrieval time with vs without the index.
// Paper shape: construction < 1s; indexed retrieval far cheaper than the
// no-index scan (up to ~67% reduction reported).
//
// Reproduction note: the retrieval claim does not reproduce against the
// vectorised pair kernel. On a shared 4-core x86-64 VM, two runs each,
// "with idx (s)" read 2.4-3.4x "no idx (s)" at every n for --base=300
// --seeds=3, and 2.0-3.1x for --base=3000 --seeds=1 (0.061-0.470 s against
// 0.031-0.200 s). No solving path builds the grid for that reason (see
// README); this bench keeps measuring it.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/params.h"
#include "index/cost_model.h"
#include "index/grid_index.h"
#include "obs/registry.h"
#include "util/fractal.h"

namespace rdbsc::bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int Run(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  BenchReport report("fig17_grid_index", options);
  std::printf("== Figure 17: Efficiency of the RDB-SC-Grid Index ==\n");
  std::printf("scale: base=%d (paper 10K), seeds=%d\n", options.base,
              options.num_seeds);

  std::vector<std::string> rows;
  std::vector<std::vector<double>> cells;
  for (int paper_n : {5'000, 8'000, 10'000, 20'000, 30'000}) {
    // Per-row metrics: the three timed phases as histograms (one sample
    // per seed) and the indexed retrieval's work counters.
    const std::string n_label = std::to_string(Scaled(options, paper_n));
    obs::Registry& metrics = report.metrics();
    obs::Histogram& build_hist = metrics.GetHistogram(
        "index.build_seconds", {{"n", n_label}}, 1e-9);
    obs::Histogram& grid_hist = metrics.GetHistogram(
        "index.retrieve_seconds", {{"n", n_label}, {"path", "grid"}}, 1e-9);
    obs::Histogram& scan_hist = metrics.GetHistogram(
        "index.retrieve_seconds", {{"n", n_label}, {"path", "scan"}}, 1e-9);
    double build_s = 0.0, with_s = 0.0, without_s = 0.0;
    double pruned_frac = 0.0;
    int64_t edges_with = 0, edges_without = 0;
    for (int seed_index = 0; seed_index < options.num_seeds; ++seed_index) {
      gen::WorkloadConfig config =
          DefaultSynthetic(options, options.seed0 + seed_index);
      config.num_workers = Scaled(options, paper_n);
      core::Instance instance = gen::GenerateInstance(config);

      // Cell side from the cost model (Appendix I): L_max from the fastest
      // worker over the longest open period, D2 estimated from the tasks.
      std::vector<util::KmPoint> pts;
      for (int i = 0; i < instance.num_tasks(); ++i) {
        pts.push_back({instance.task(i).location.x,
                       instance.task(i).location.y});
      }
      index::CostModelParams cm;
      cm.l_max = 0.9;  // v_max * longest deadline, clamped to the space
      cm.d2 = util::EstimateCorrelationDimension(pts);
      cm.num_points = instance.num_tasks();
      double eta = index::OptimalEta(cm);

      auto t0 = std::chrono::steady_clock::now();
      index::GridIndex index = index::GridIndex::Build(instance, eta);
      const double build_seed_s = Seconds(t0);
      build_s += build_seed_s;
      build_hist.Observe(build_seed_s);

      index::RetrievalStats stats;
      t0 = std::chrono::steady_clock::now();
      auto edges = index.RetrieveEdges(&stats).value();
      const double with_seed_s = Seconds(t0);
      with_s += with_seed_s;
      grid_hist.Observe(with_seed_s);
      edges_with += stats.edges;
      for (const auto& [name, value] :
           {std::pair{"index.retrieval.cell_pairs_examined",
                      stats.cell_pairs_examined},
            std::pair{"index.retrieval.cell_pairs_pruned",
                      stats.cell_pairs_pruned},
            std::pair{"index.retrieval.pair_tests", stats.pair_tests},
            std::pair{"index.retrieval.edges", stats.edges}}) {
        metrics.GetCounter(name, {{"n", n_label}}).Increment(value);
      }
      pruned_frac += stats.cell_pairs_examined > 0
                         ? static_cast<double>(stats.cell_pairs_pruned) /
                               stats.cell_pairs_examined
                         : 0.0;

      t0 = std::chrono::steady_clock::now();
      core::CandidateGraph brute = core::CandidateGraph::Build(instance);
      const double without_seed_s = Seconds(t0);
      without_s += without_seed_s;
      scan_hist.Observe(without_seed_s);
      edges_without += brute.NumEdges();
    }
    if (edges_with != edges_without) {
      std::printf("ERROR: index returned %lld edges, brute force %lld\n",
                  static_cast<long long>(edges_with),
                  static_cast<long long>(edges_without));
      return 1;
    }
    rows.push_back(std::to_string(Scaled(options, paper_n)));
    cells.push_back({build_s / options.num_seeds,
                     with_s / options.num_seeds,
                     without_s / options.num_seeds,
                     pruned_frac / options.num_seeds});
  }
  const std::vector<std::string> columns = {"build (s)", "with idx (s)",
                                            "no idx (s)", "pruned frac"};
  PrintTable("RDB-SC-Grid timings", "n", rows, columns, cells, 4);
  report.AddTable("RDB-SC-Grid timings", "n", rows, columns, cells);
  std::printf("\n");
  report.Write();
  return 0;
}

}  // namespace
}  // namespace rdbsc::bench

int main(int argc, char** argv) { return rdbsc::bench::Run(argc, argv); }
