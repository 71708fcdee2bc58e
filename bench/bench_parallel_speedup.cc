// Parallel-speedup sweep over the Figure 16 runtime workload (UNIFORM,
// paper defaults scaled by --base): graph construction (brute force and
// grid index) plus the two parallelizable solvers (SAMPLING, D&C), timed
// at 1..hardware_concurrency threads. Results are bit-identical at every
// thread count (verified by tests/parallel_determinism_test.cc); this
// bench reports the wall-clock side of that contract as speedups over the
// 1-thread run.
//
//   $ ./bench/bench_parallel_speedup --base=600 --seeds=3
//
// Extra flag: --max-threads=N caps the sweep (default: hardware
// concurrency).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bench/params.h"
#include "core/divide_conquer.h"
#include "core/sampling.h"
#include "core/solver.h"
#include "index/grid_index.h"
#include "util/thread_pool.h"

namespace rdbsc::bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Timings {
  double brute_build = 0.0;
  double grid_retrieve = 0.0;
  double sampling = 0.0;
  double dc = 0.0;
};

Timings Measure(const core::Instance& instance, util::Executor* executor,
                const BenchOptions& options) {
  Timings timing;
  for (int rep = 0; rep < options.num_seeds; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    core::CandidateGraph graph =
        core::CandidateGraph::Build(instance, executor, util::Deadline())
            .value();
    timing.brute_build += Seconds(t0);

    index::GridIndex index = index::GridIndex::Build(instance, 0.05);
    t0 = std::chrono::steady_clock::now();
    index.RetrieveEdges(nullptr, executor).value();
    timing.grid_retrieve += Seconds(t0);

    core::SolverOptions solver_options;
    solver_options.seed = options.seed0 + rep;
    core::SolveRequest request;
    request.instance = &instance;
    request.graph = &graph;
    request.executor = executor;

    core::SamplingSolver sampling(solver_options);
    t0 = std::chrono::steady_clock::now();
    sampling.Solve(request).value();
    timing.sampling += Seconds(t0);

    core::DivideConquerSolver dc(solver_options);
    t0 = std::chrono::steady_clock::now();
    dc.Solve(request).value();
    timing.dc += Seconds(t0);
  }
  return timing;
}

int Run(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  BenchReport report("parallel_speedup", options);
  int max_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--max-threads=", 14) == 0) {
      max_threads = std::max(1, std::atoi(argv[a] + 14));
    }
  }

  gen::WorkloadConfig config = DefaultSynthetic(options, options.seed0);
  core::Instance instance = gen::GenerateInstance(config);

  std::printf("== Parallel speedup (fig16 workload, UNIFORM) ==\n");
  std::printf(
      "scale: base=%d (paper 10K), m=%d tasks, n=%d workers, seeds=%d, "
      "hardware_concurrency=%u\n",
      options.base, instance.num_tasks(), instance.num_workers(),
      options.num_seeds, std::thread::hardware_concurrency());

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) {
    thread_counts.push_back(max_threads);
  }

  std::vector<std::string> rows;
  std::vector<std::vector<double>> time_cells, speedup_cells;
  Timings base{};
  for (int threads : thread_counts) {
    Timings timing;
    if (threads == 1) {
      timing = Measure(instance, nullptr, options);
      base = timing;
    } else {
      // The calling thread participates in ShardedFor, so a pool of N-1
      // workers gives exactly N-way parallelism -- the row label is the
      // true concurrency level.
      util::ThreadPool pool(threads - 1);
      timing = Measure(instance, &pool, options);
    }
    rows.push_back(std::to_string(threads));
    time_cells.push_back({timing.brute_build, timing.grid_retrieve,
                          timing.sampling, timing.dc});
    auto speedup = [](double serial, double parallel) {
      return parallel > 0.0 ? serial / parallel : 0.0;
    };
    speedup_cells.push_back({speedup(base.brute_build, timing.brute_build),
                             speedup(base.grid_retrieve, timing.grid_retrieve),
                             speedup(base.sampling, timing.sampling),
                             speedup(base.dc, timing.dc)});
  }

  const std::vector<std::string> columns = {"build", "grid-ret", "SAMPLING",
                                            "D&C"};
  PrintTable("wall time (s)", "threads", rows, columns, time_cells, 4);
  PrintTable("speedup vs 1 thread", "threads", rows, columns, speedup_cells,
             2);
  report.AddTable("wall time (s)", "threads", rows, columns, time_cells);
  report.AddTable("speedup vs 1 thread", "threads", rows, columns,
                  speedup_cells);
  std::printf("\n");
  report.Write();
  return 0;
}

}  // namespace
}  // namespace rdbsc::bench

int main(int argc, char** argv) { return rdbsc::bench::Run(argc, argv); }
