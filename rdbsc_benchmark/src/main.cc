// rdbsc_benchmark: runs one named workload of the rdbsc end-to-end
// benchmark and prints its metrics (README.md documents the workloads,
// the metrics and run.py, which builds this program and invokes it).
//
//   rdbsc_benchmark --workload=NAME [--seed=S] [--seconds=T]
//                   [--trace=FILE] [--expect=HEX] [--digest-only]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without --trace the metrics
// are the end-to-end ones, measured with nothing attached to the
// program; with --trace the run repeats the workload with the traced
// wrapper solvers and spans, prints the per-layer metrics instead and
// writes the spans to FILE as Chrome trace-event JSON.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "trace.h"
#include "workload.h"

namespace rdbsc::perf {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Keep in step with BENCHMARK.json at the root of the repository.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},  {"wall_per_op_s", "s"},
    {"op_p50_s", "s"}, {"op_p90_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"engine.validate.self_s", "s"},
    {"engine.plan.self_s", "s"},
    {"engine.plan.grid_frac", "ratio"},
    {"engine.build.self_s", "s"},
    {"engine.build.edges", "count"},
    {"engine.solve.self_s", "s"},
    {"engine.cache.hit_ratio", "ratio"},
    {"engine.cache.evictions", "count"},
    {"engine.server.queue_p50_s", "s"},
    {"engine.server.queue_p90_s", "s"},
    {"engine.server.run_p50_s", "s"},
    {"core.solve.calls", "count"},
    {"core.solve.self_s", "s"},
    {"core.solve.call_p50_s", "s"},
    {"core.solve.call_p90_s", "s"},
    {"core.solve.edges_in", "count"},
    {"core.solve.pruned_pairs", "count"},
    {"core.solve.exact_std_evals", "count"},
    {"core.solve.sample_size_max", "count"},
    {"sim.platform.ticks", "count"},
    {"sim.platform.assignments", "count"},
    {"sim.platform.build_s", "s"},
    {"sim.platform.world_s", "s"},
    {"sim.stream.apply_s", "s"},
    {"sim.stream.events", "count"},
    {"sim.stream.update_self_s", "s"},
    {"index.delta.rows_recomputed", "count"},
    {"index.delta.rows_reused", "count"},
    {"index.delta.reuse_ratio", "ratio"},
    {"index.delta.bulk_refills", "count"},
    {"index.delta.cells_touched", "count"},
    {"index.delta.edges_repaired", "count"},
    {"coverage.op_s", "s"},
    {"coverage.residual_s", "s"},
    {"coverage.residual_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Set-ups measured per run; setup_s is their median.
constexpr int kSetups = 9;
/// The timed phase is cut into this many consecutive slices (by op
/// completion) for the op-time metrics; see SliceQuartiles.
constexpr int kSlices = 40;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
  std::string expect;
  bool digest_only = false;
};

bool ParseOptions(int argc, char** argv, Options& options) {
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    auto value_of = [&](std::string_view flag, std::string_view& value) {
      if (arg.substr(0, flag.size()) != flag) return false;
      value = arg.substr(flag.size());
      return true;
    };
    std::string_view value;
    if (value_of("--workload=", value)) {
      options.workload = value;
    } else if (value_of("--seed=", value)) {
      const auto [end, error] = std::from_chars(
          value.data(), value.data() + value.size(), options.seed);
      if (error != std::errc() || end != value.data() + value.size()) {
        return false;
      }
    } else if (value_of("--seconds=", value)) {
      char* end = nullptr;
      const std::string text(value);
      options.seconds = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size() || !(options.seconds >= 0.0)) {
        return false;
      }
    } else if (value_of("--trace=", value)) {
      options.trace_path = value;
    } else if (value_of("--expect=", value)) {
      options.expect = value;
    } else if (arg == "--digest-only") {
      options.digest_only = true;
    } else {
      return false;
    }
  }
  return !options.workload.empty();
}

/// The run's correctness digest: the first `checked` op digests in order.
util::Hash128 RunDigest(const Phase& phase, int64_t checked) {
  util::Hasher hasher;
  hasher.Mix(checked);
  const auto n = std::min<size_t>(static_cast<size_t>(checked),
                                  phase.op_digests.size());
  for (size_t k = 0; k < n; ++k) {
    hasher.Mix(phase.op_digests[k].hi).Mix(phase.op_digests[k].lo);
  }
  return hasher.Digest();
}

struct OpTimes {
  double wall_per_op = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
};

/// Wall time per op, and the median and 90th percentile of op times,
/// each taken within every slice of the phase (ops in completion order)
/// and reported as the lower quartile over the slices. The machine is
/// shared, and its stalls only ever slow ops down: they come in bursts
/// of a few seconds that inflate every op of the slices they cover, the
/// tail first. The faster slices show the program's own speed, and the
/// lower quartile ignores stalls over up to three quarters of the run.
OpTimes SliceQuartiles(const Phase& phase) {
  const size_t n = phase.op_end.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return phase.op_end[a] < phase.op_end[b];
  });
  std::vector<double> walls, p50s, p90s;
  double slice_start = 0.0;
  for (size_t c = 0; c < kSlices; ++c) {
    const size_t lo = n * c / kSlices;
    const size_t hi = n * (c + 1) / kSlices;
    if (hi == lo) continue;
    std::vector<double> seconds;
    for (size_t i = lo; i < hi; ++i) {
      seconds.push_back(phase.op_seconds[order[i]]);
    }
    const double slice_end = phase.op_end[order[hi - 1]];
    walls.push_back((slice_end - slice_start) / static_cast<double>(hi - lo));
    slice_start = slice_end;
    p50s.push_back(Percentile(seconds, 0.50));
    p90s.push_back(Percentile(seconds, 0.90));
  }
  return {Percentile(walls, 0.25), Percentile(p50s, 0.25),
          Percentile(p90s, 0.25)};
}

int Run(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: rdbsc_benchmark --workload=NAME [--seed=S] "
                 "[--seconds=T] [--trace=FILE] [--expect=HEX] "
                 "[--digest-only]\n");
    return 2;
  }
  if (MakeWorkload(options.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 options.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool traced = !options.trace_path.empty();
  std::unique_ptr<Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<Tracer>();
    if (util::Status s = RegisterTracedSolvers(tracer.get()); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  // Set-up, several times when setup_s is reported; the last system set
  // up runs the ops.
  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> workload;
  const int setups = options.digest_only || traced ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    workload.reset();
    std::unique_ptr<Workload> fresh = MakeWorkload(options.workload);
    const Clock::time_point t0 = Clock::now();
    if (util::Status status = fresh->Setup(options.seed, nullptr);
        !status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setup_seconds.push_back(util::SecondsSince(t0));
    workload = std::move(fresh);
  }

  const int64_t checked = workload->checked_ops();
  // A traced run splits its time between the untraced phase (the
  // reference for trace.overhead_frac) and the traced one.
  const double seconds = options.digest_only ? 0.0
                         : traced            ? options.seconds / 2.0
                                             : options.seconds;
  const Phase phase = workload->Run(seconds, checked, nullptr);
  const util::Hash128 digest = RunDigest(phase, checked);
  int64_t attempted = static_cast<int64_t>(phase.op_seconds.size());
  int64_t failed = phase.failed;
  std::string first_error = phase.first_error;

  Phase traced_phase;
  if (traced) {
    workload.reset();
    workload = MakeWorkload(options.workload);
    if (util::Status status = workload->Setup(options.seed, tracer.get());
        !status.ok()) {
      std::fprintf(stderr, "traced set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    traced_phase = workload->Run(seconds, checked, tracer.get());
    attempted += static_cast<int64_t>(traced_phase.op_seconds.size());
    failed += traced_phase.failed;
    if (first_error.empty()) first_error = traced_phase.first_error;
    if (RunDigest(traced_phase, checked) != digest) {
      failed += static_cast<int64_t>(traced_phase.op_seconds.size());
      if (first_error.empty()) {
        first_error = "the traced run's digest differs from the untraced run's";
      }
    }
  }

  std::printf("workload %s, seed %llu: %lld ops in %.3f s, %lld failed\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<long long>(phase.op_seconds.size()),
              phase.wall_seconds, static_cast<long long>(phase.failed));
  std::printf("digest %s (first %lld ops)\n", digest.ToHex().c_str(),
              static_cast<long long>(checked));
  if (!first_error.empty()) {
    std::printf("first failure: %s\n", first_error.c_str());
  }
  if (options.expect.empty()) {
    std::fprintf(stderr,
                 "note: no expected digest for this seed; the digest check "
                 "is skipped\n");
  } else if (options.expect != digest.ToHex()) {
    std::printf("digest mismatch: expected %s\n", options.expect.c_str());
    failed = attempted;
  }

  std::map<std::string, double> values;
  if (traced) {
    values = traced_phase.layers;
    values["trace.overhead_frac"] = SliceQuartiles(traced_phase).wall_per_op /
                                        SliceQuartiles(phase).wall_per_op -
                                    1.0;
    for (const auto& [name, value] : values) {
      const bool known =
          std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                      [&](const MetricDef& m) { return name == m.name; });
      if (!known) std::fprintf(stderr, "unlisted layer metric %s\n", name.c_str());
    }
    std::printf("traced: %lld ops, op wall %.6f s; per op:\n",
                static_cast<long long>(traced_phase.op_seconds.size()),
                MeanOp(traced_phase));
    for (const MetricDef& metric : kPerLayer) {
      std::printf("  %-30s %14.9g %s\n", metric.name, values[metric.name],
                  metric.unit);
    }
    if (util::Status s = tracer->WriteChromeTrace(options.trace_path);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s\n", options.trace_path.c_str());
  } else {
    const OpTimes times = SliceQuartiles(phase);
    values["setup_s"] = Percentile(setup_seconds, 0.5);
    values["wall_per_op_s"] = times.wall_per_op;
    values["op_p50_s"] = times.p50;
    values["op_p90_s"] = times.p90;
    values["peak_rss_mb"] = phase.peak_rss_mb;
  }

  const bool correct = failed == 0;
  std::string out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.Int(attempted);
  w.Key("failed");
  w.Int(failed);
  w.Key("metrics");
  w.BeginObject();
  const auto emit = [&](const MetricDef& metric) {
    w.Key(metric.name);
    w.BeginObject();
    w.Key("value");
    w.Double(values[metric.name]);
    w.Key("unit");
    w.String(metric.unit);
    w.EndObject();
  };
  if (traced) {
    for (const MetricDef& metric : kPerLayer) emit(metric);
  } else {
    for (const MetricDef& metric : kEndToEnd) emit(metric);
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rdbsc::perf

int main(int argc, char** argv) { return rdbsc::perf::Run(argc, argv); }
