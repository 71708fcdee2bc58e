// Ablation: the Appendix I cost model's cell side eta. Sweeps multiples of
// the model's optimum and reports actual retrieval cost, validating that
// the analytic optimum sits near the empirical minimum.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "bench/params.h"
#include "index/cost_model.h"
#include "index/grid_index.h"
#include "util/fractal.h"

namespace rdbsc::bench {
namespace {

int Run(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  BenchReport report("ablation_grid_eta", options);
  std::printf("== Ablation: grid cell side eta vs the cost-model optimum ==\n");
  std::printf("scale: base=%d, seeds=%d\n", options.base, options.num_seeds);

  gen::WorkloadConfig config = DefaultSynthetic(options, options.seed0);
  core::Instance instance = gen::GenerateInstance(config);

  std::vector<util::KmPoint> pts;
  for (int i = 0; i < instance.num_tasks(); ++i) {
    pts.push_back({instance.task(i).location.x,
                   instance.task(i).location.y});
  }
  index::CostModelParams cm;
  cm.l_max = 0.9;
  cm.d2 = util::EstimateCorrelationDimension(pts);
  cm.num_points = instance.num_tasks();
  double eta_star = index::OptimalEta(cm);
  std::printf("estimated D2=%.2f, cost-model eta*=%.4f\n", cm.d2, eta_star);

  std::vector<std::string> rows;
  std::vector<std::vector<double>> cells;
  for (double factor : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    double eta = eta_star * factor;
    double build_s = 0.0, retrieve_s = 0.0, model_cost = 0.0;
    index::RetrievalStats stats;
    for (int rep = 0; rep < options.num_seeds; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      index::GridIndex index = index::GridIndex::Build(instance, eta);
      build_s += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
      t0 = std::chrono::steady_clock::now();
      index.RetrieveEdges(&stats).value();
      retrieve_s += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    }
    model_cost = index::EstimateUpdateCost(eta, cm);
    rows.push_back(std::to_string(factor) + " x eta*");
    cells.push_back({eta, build_s / options.num_seeds,
                     retrieve_s / options.num_seeds,
                     static_cast<double>(stats.pair_tests), model_cost});
  }
  PrintTable("grid eta ablation", "eta", rows,
             {"eta", "build (s)", "retrieve(s)", "pair tests", "model cost"},
             cells, 4);
  report.AddTable("grid eta ablation", "eta", rows,
                  {"eta", "build (s)", "retrieve(s)", "pair tests",
                   "model cost"},
                  cells);
  std::printf("\n");
  report.Write();
  return 0;
}

}  // namespace
}  // namespace rdbsc::bench

int main(int argc, char** argv) { return rdbsc::bench::Run(argc, argv); }
