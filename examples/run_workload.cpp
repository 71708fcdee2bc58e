// Command-line workload runner: generate (or load) an RDB-SC instance, run
// one of the registered approaches through the Engine facade, print the
// objectives plus structural metrics, and optionally persist everything as
// CSV.
//
//   $ ./examples/run_workload --m=200 --n=300 --dist=skewed --solver=dc
//   $ ./examples/run_workload --tasks=t.csv --workers=w.csv --solver=greedy
//   $ ./examples/run_workload --m=100 --n=100 --out-dir=/tmp/run1
//   $ ./examples/run_workload --server --submitters=8 --threads=4
//   $ ./examples/run_workload --workload=workloads/rush_hour.wl --out=r.json
//   $ ./examples/run_workload --list-solvers
//
// Flags: --m, --n, --dist=uniform|skewed|real, --solver=<registry name>
// (see --list-solvers), --seed, --budget=<seconds> (wall-clock admission
// budget), --threads=N (engine thread pool; 0 = serial, results
// identical at every setting), --tasks/--workers (CSV input), --out-dir
// (writes tasks/workers/assignment CSVs).
//
// Caching: --cache=off|ro|wo|rw attaches a SolveCache to the run
// (CacheMode kOff/kReadOnly/kWriteOnly/kReadWrite; default off) and
// --repeat=N solves the same instance N times, so repeated runs after the
// first are answered from the cache in the read-enabled modes -- each
// repetition reports whether it hit and how long it took (bit-identical
// answers either way). In server mode the flags configure the server's
// cache and every submitter submits its instance N times.
//
// Server mode: --server routes the work through the engine::Server
// admission layer instead of a direct Engine::Run -- --submitters=K
// concurrent submitter threads each submit one instance (seeds seed ..
// seed+K-1), --threads sets the server's dispatch workers (min 1), and
// --budget becomes the per-request default budget. Prints one line per
// ticket plus the ServerStats snapshot (including cache hit/miss/collapse
// counters when caching is on). --stats-window=N additionally starts a
// live reporter that rotates the server's latency window every N seconds
// and prints one "window" line per rotation (count + p50/p95/p99/max of
// the requests finished in that window); the final partial window is
// always printed, so at least one line appears even on short runs.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/registry.h"
#include "engine/engine.h"
#include "engine/server.h"
#include "engine/solve_cache.h"
#include "gen/trajectory.h"
#include "gen/workload.h"
#include "io/csv.h"
#include "obs/histogram.h"
#include "wl/compile.h"
#include "wl/runner.h"
#include "wl/spec.h"

using namespace rdbsc;

namespace {

const char* FlagValue(int argc, char** argv, const char* name) {
  size_t len = std::strlen(name);
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], name, len) == 0 && argv[a][len] == '=') {
      return argv[a] + len + 1;
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], name) == 0) return true;
  }
  return false;
}

void PrintSolverNames(std::FILE* out) {
  for (const std::string& name : core::SolverRegistry::Global().Names()) {
    std::fprintf(out, "  %s\n", name.c_str());
  }
}

bool ParseCacheMode(const char* value, engine::CacheMode* mode) {
  std::string text = value == nullptr ? "off" : value;
  if (text == "off") {
    *mode = engine::CacheMode::kOff;
  } else if (text == "ro" || text == "readonly") {
    *mode = engine::CacheMode::kReadOnly;
  } else if (text == "wo" || text == "writeonly") {
    *mode = engine::CacheMode::kWriteOnly;
  } else if (text == "rw" || text == "readwrite") {
    *mode = engine::CacheMode::kReadWrite;
  } else {
    return false;
  }
  return true;
}

}  // namespace

/// `--workload=FILE` mode: parse + compile a declarative .wl scenario
/// (src/wl) and replay it against an engine::Server. `--threads=N` sets
/// the dispatch workers, `--dilation=X` scales open-loop pacing (0 floods;
/// per-ticket results are pacing-independent), `--out=FILE` writes the
/// schema-valid results document.
int RunDeclarativeWorkload(int argc, char** argv, const char* path) {
  const char* flag;
  wl::ReplayOptions options;
  options.num_workers =
      (flag = FlagValue(argc, argv, "--threads")) ? std::atoi(flag) : 2;
  options.time_dilation =
      (flag = FlagValue(argc, argv, "--dilation")) ? std::atof(flag) : 1.0;
  const char* out_path = FlagValue(argc, argv, "--out");

  util::StatusOr<wl::WorkloadSpec> spec = wl::ParseWorkloadFile(path);
  if (!spec.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 spec.status().message().c_str());
    return 1;
  }
  util::StatusOr<wl::CompiledWorkload> compiled =
      wl::CompileWorkload(spec.value());
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 compiled.status().message().c_str());
    return 1;
  }
  std::printf("workload %s: %lld ops over %zu phase(s), %d worker(s)\n",
              compiled.value().name.c_str(),
              static_cast<long long>(compiled.value().total_ops),
              compiled.value().phases.size(), options.num_workers);

  util::StatusOr<wl::ReplayReport> report =
      wl::ReplayWorkload(compiled.value(), options);
  if (!report.ok()) {
    std::fprintf(stderr, "replay error: %s\n",
                 report.status().message().c_str());
    return 1;
  }
  for (const wl::PhaseReport& phase : report.value().phases) {
    std::printf(
        "phase %-16s ops=%-5lld ok=%-5lld cancelled=%-4lld errors=%-4lld "
        "p50=%.4fs p99=%.4fs wall=%.3fs\n",
        phase.name.c_str(), static_cast<long long>(phase.ops),
        static_cast<long long>(phase.ok),
        static_cast<long long>(phase.cancelled),
        static_cast<long long>(phase.errors), phase.latency.p50(),
        phase.latency.p99(), phase.wall_seconds);
  }
  std::printf("fingerprints: %s\n",
              wl::FingerprintDigest(report.value().fingerprints).c_str());
  std::printf("server: submitted=%lld completed=%lld cancelled=%lld "
              "cache_hits=%lld collapsed=%lld generations=%d\n",
              static_cast<long long>(report.value().server.submitted),
              static_cast<long long>(report.value().server.completed),
              static_cast<long long>(report.value().server.cancelled),
              static_cast<long long>(report.value().server.cache_hits),
              static_cast<long long>(report.value().server.collapsed),
              report.value().server_generations);

  if (out_path != nullptr) {
    std::string json =
        wl::ResultsJson(compiled.value(), report.value(), options);
    std::FILE* out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("results: %s\n", out_path);
  }
  return 0;
}

int main(int argc, char** argv) {
  if (HasFlag(argc, argv, "--list-solvers")) {
    std::printf("registered solvers:\n");
    PrintSolverNames(stdout);
    return 0;
  }
  if (const char* workload_path = FlagValue(argc, argv, "--workload")) {
    return RunDeclarativeWorkload(argc, argv, workload_path);
  }

  const char* flag;
  int m = (flag = FlagValue(argc, argv, "--m")) ? std::atoi(flag) : 200;
  int n = (flag = FlagValue(argc, argv, "--n")) ? std::atoi(flag) : 200;
  uint64_t seed =
      (flag = FlagValue(argc, argv, "--seed")) ? std::strtoull(flag, nullptr, 10) : 42;
  std::string dist =
      (flag = FlagValue(argc, argv, "--dist")) ? flag : "uniform";
  std::string solver_name =
      (flag = FlagValue(argc, argv, "--solver")) ? flag : "dc";
  double budget =
      (flag = FlagValue(argc, argv, "--budget")) ? std::atof(flag) : 0.0;
  int num_threads =
      (flag = FlagValue(argc, argv, "--threads")) ? std::atoi(flag) : 0;
  const char* tasks_path = FlagValue(argc, argv, "--tasks");
  const char* workers_path = FlagValue(argc, argv, "--workers");
  const char* out_dir = FlagValue(argc, argv, "--out-dir");
  int repeat =
      (flag = FlagValue(argc, argv, "--repeat")) ? std::atoi(flag) : 1;
  if (repeat < 1) repeat = 1;
  engine::CacheMode cache_mode = engine::CacheMode::kOff;
  if ((flag = FlagValue(argc, argv, "--cache")) != nullptr &&
      !ParseCacheMode(flag, &cache_mode)) {
    std::fprintf(stderr, "unknown --cache=%s (off|ro|wo|rw)\n", flag);
    return 1;
  }

  // --- Instance factory (server mode varies the seed per ticket). ---
  auto make_instance = [&](uint64_t s) -> util::StatusOr<core::Instance> {
    if (tasks_path != nullptr && workers_path != nullptr) {
      return io::ReadInstanceCsv(tasks_path, workers_path);
    }
    if (dist == "real") {
      gen::RealWorkloadConfig config;
      config.num_tasks = m;
      config.trajectory.num_taxis = n;
      config.poi.num_pois = m * 8;
      config.start_max = 4.0;
      config.seed = s;
      return gen::GenerateRealInstance(config);
    }
    gen::WorkloadConfig config;
    config.num_tasks = m;
    config.num_workers = n;
    config.start_max = 4.0;
    if (dist == "skewed") {
      config.task_distribution = gen::SpatialDistribution::kSkewed;
      config.worker_distribution = gen::SpatialDistribution::kSkewed;
    } else if (dist != "uniform") {
      return util::Status::InvalidArgument("unknown --dist=" + dist);
    }
    config.seed = s;
    return gen::GenerateInstance(config);
  };

  // --- Configure the engine. ---
  EngineConfig config;
  config.solver_name = solver_name;
  config.solver_options.seed = seed;
  config.budget_seconds = budget;
  config.num_threads = num_threads;

  // --- Server mode: concurrent submitters through the admission layer. ---
  if (HasFlag(argc, argv, "--server")) {
    int submitters =
        (flag = FlagValue(argc, argv, "--submitters")) ? std::atoi(flag) : 4;
    if (submitters < 1) submitters = 1;
    const double stats_window =
        (flag = FlagValue(argc, argv, "--stats-window")) ? std::atof(flag)
                                                         : 0.0;

    engine::ServerConfig server_config;
    server_config.engine = config;
    server_config.num_workers = num_threads > 1 ? num_threads : 1;
    server_config.default_budget_seconds = budget;
    server_config.overload_policy = engine::OverloadPolicy::kBlock;
    server_config.max_queue_depth = submitters * repeat + 1;
    server_config.cache_mode = cache_mode;
    util::StatusOr<std::unique_ptr<engine::Server>> created =
        engine::Server::Create(std::move(server_config));
    if (!created.ok()) {
      std::fprintf(stderr, "server start failed: %s; available solvers:\n",
                   created.status().ToString().c_str());
      PrintSolverNames(stderr);
      return 1;
    }
    std::unique_ptr<engine::Server> server = std::move(created).value();

    std::printf("server   : solver %s, %d workers, %d submitters x %d\n",
                solver_name.c_str(), server_config.num_workers, submitters,
                repeat);

    // Live windowed latency reporting: rotate the server's latency
    // window every --stats-window seconds and print one line per
    // rotation. The final (partial) window is printed after shutdown
    // below, from the main thread once the reporter joined -- so the
    // window counter and stdout are never raced.
    int window_index = 0;
    auto print_window = [&window_index](const obs::HistogramSnapshot& w) {
      ++window_index;
      std::printf(
          "window %2d: %lld finished, p50 %.4f s, p95 %.4f s, "
          "p99 %.4f s, max %.4f s\n",
          window_index, static_cast<long long>(w.count()), w.p50(),
          w.p95(), w.p99(), w.max());
    };
    std::atomic<bool> reporter_stop{false};
    std::thread reporter;
    if (stats_window > 0.0) {
      reporter = std::thread([&] {
        while (!reporter_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(stats_window));
          print_window(server->RotateLatencyWindow());
        }
      });
    }

    const int total = submitters * repeat;
    std::vector<engine::Ticket> tickets(total);
    std::vector<util::Status> submit_status(total);
    std::vector<std::thread> threads;
    threads.reserve(submitters);
    for (int s = 0; s < submitters; ++s) {
      threads.emplace_back([&, s] {
        util::StatusOr<core::Instance> inst = make_instance(seed + s);
        for (int r = 0; r < repeat; ++r) {
          const int slot = s * repeat + r;
          if (!inst.ok()) {
            submit_status[slot] = inst.status();
            continue;
          }
          auto ticket = server->Submit(inst.value());
          if (ticket.ok()) {
            tickets[slot] = std::move(ticket).value();
          } else {
            submit_status[slot] = ticket.status();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    bool all_ok = true;
    for (int slot = 0; slot < total; ++slot) {
      const int s = slot / repeat;
      if (!tickets[slot].valid()) {
        std::printf("ticket %2d: not admitted: %s\n", slot,
                    submit_status[slot].ToString().c_str());
        all_ok = false;
        continue;
      }
      const util::StatusOr<EngineResult>& run = tickets[slot].Wait();
      if (!run.ok()) {
        std::printf("ticket %2d: %s\n", slot,
                    run.status().ToString().c_str());
        all_ok = false;
        continue;
      }
      // CSV-loaded instances ignore the per-submitter seed (every ticket
      // solves the same file); only claim a seed when one was used.
      std::string source =
          tasks_path != nullptr
              ? "csv"
              : "seed " + std::to_string(seed + static_cast<uint64_t>(s));
      std::printf(
          "ticket %2d: %s, min reliability = %.4f, total_STD = %.4f "
          "(%lld edges)%s\n",
          slot, source.c_str(),
          run.value().solve.objectives.min_reliability,
          run.value().solve.objectives.total_std,
          static_cast<long long>(run.value().plan.edges),
          run.value().from_cache ? " [cache hit]" : "");
    }
    server->Shutdown(engine::ShutdownMode::kDrain);
    if (stats_window > 0.0) {
      reporter_stop.store(true, std::memory_order_relaxed);
      reporter.join();
      // Flush the last partial window so short runs still get a line.
      print_window(server->RotateLatencyWindow());
    }
    engine::ServerStats stats = server->Stats();
    std::printf(
        "stats    : %lld submitted, %lld admitted, %lld completed, "
        "%lld rejected, %lld shed\n",
        static_cast<long long>(stats.submitted),
        static_cast<long long>(stats.admitted),
        static_cast<long long>(stats.completed),
        static_cast<long long>(stats.rejected),
        static_cast<long long>(stats.shed));
    if (cache_mode != engine::CacheMode::kOff) {
      std::printf(
          "cache    : %lld hits, %lld misses, %lld collapsed, "
          "%lld evictions\n",
          static_cast<long long>(stats.cache_hits),
          static_cast<long long>(stats.cache_misses),
          static_cast<long long>(stats.collapsed),
          static_cast<long long>(stats.cache_evictions));
    }
    std::printf("latency  : p50 %.4f s, p95 %.4f s, max %.4f s\n",
                stats.latency_p50_seconds, stats.latency_p95_seconds,
                stats.latency_max_seconds);
    return all_ok ? 0 : 1;
  }

  // --- Acquire the instance (server mode uses the factory directly). ---
  util::StatusOr<core::Instance> acquired = make_instance(seed);
  if (!acquired.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 acquired.status().ToString().c_str());
    return 1;
  }
  core::Instance instance = std::move(acquired).value();

  util::StatusOr<Engine> engine = Engine::Create(config);
  if (!engine.ok()) {
    std::fprintf(stderr, "unknown --solver=%s; available:\n",
                 solver_name.c_str());
    PrintSolverNames(stderr);
    return 1;
  }

  // --- Solve and report (repetitions exercise the SolveCache). ---
  engine::SolveCache cache;
  RunControls controls;
  if (cache_mode != engine::CacheMode::kOff) {
    controls.cache = &cache;
    controls.cache_mode = cache_mode;
  }
  util::StatusOr<EngineResult> run =
      engine.value().Run(instance, controls);
  if (!run.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const core::SolveResult& result = run.value().solve;
  const GraphPlan& plan = run.value().plan;
  core::AssignmentMetrics metrics =
      core::ComputeMetrics(instance, result.assignment);

  std::printf("instance : %d tasks, %d workers, %lld valid pairs\n",
              instance.num_tasks(), instance.num_workers(),
              static_cast<long long>(plan.edges));
  std::printf("graph    : %.4f s\n", plan.build_seconds);
  std::printf("solver   : %s (seed %llu, threads %d)\n",
              std::string(engine.value().solver_display_name()).c_str(),
              static_cast<unsigned long long>(seed), num_threads);
  std::printf("objectives: min reliability = %.4f, total_STD = %.4f\n",
              result.objectives.min_reliability,
              result.objectives.total_std);
  std::printf("time     : %.4f s\n", result.stats.wall_seconds);
  std::printf("structure: %d assigned, %d/%d tasks covered, max roster %d, "
              "mean roster %.2f\n",
              metrics.assigned_workers, metrics.nonempty_tasks,
              instance.num_tasks(), metrics.max_roster, metrics.mean_roster);
  std::printf("rosters  : ");
  for (size_t r = 0; r < metrics.roster_histogram.size(); ++r) {
    std::printf("%zu:%d ", r, metrics.roster_histogram[r]);
  }
  std::printf("\n");

  // Repetitions 2..N replay the identical request; read-enabled modes
  // answer them from the cache (bit-identical to the first solve).
  for (int rep = 2; rep <= repeat; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    util::StatusOr<EngineResult> again =
        engine.value().Run(instance, controls);
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!again.ok()) {
      std::fprintf(stderr, "repeat %d failed: %s\n", rep,
                   again.status().ToString().c_str());
      return 1;
    }
    std::printf("repeat %2d: %s in %.6f s\n", rep,
                again.value().from_cache ? "cache hit " : "cold solve",
                wall);
  }
  if (cache_mode != engine::CacheMode::kOff) {
    engine::CacheStats cache_stats = cache.Stats();
    std::printf(
        "cache    : %lld result hits / %lld misses, %lld entries\n",
        static_cast<long long>(cache_stats.result_hits),
        static_cast<long long>(cache_stats.result_misses),
        static_cast<long long>(cache_stats.result_entries));
  }

  if (out_dir != nullptr) {
    std::string dir(out_dir);
    util::Status status =
        io::WriteTasksCsv(dir + "/tasks.csv", instance.tasks());
    if (status.ok()) {
      status = io::WriteWorkersCsv(dir + "/workers.csv", instance.workers());
    }
    if (status.ok()) {
      status = io::WriteAssignmentCsv(dir + "/assignment.csv",
                                      result.assignment);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote    : %s/{tasks,workers,assignment}.csv\n", out_dir);
  }
  return 0;
}
