#ifndef RDBSC_BENCHMARK_WORKLOAD_H_
#define RDBSC_BENCHMARK_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.h"
#include "core/solver.h"
#include "util/deadline.h"
#include "util/hash.h"
#include "util/status.h"

namespace rdbsc::perf {

class Tracer;

using Clock = std::chrono::steady_clock;

/// What one timed phase of a workload produced.
struct Phase {
  /// Wall time of each completed op, in op order.
  std::vector<double> op_seconds;
  /// When each op finished, in seconds since the phase started (same
  /// order as op_seconds).
  std::vector<double> op_end;
  /// Wall time of the whole timed phase (ops plus the benchmark's own
  /// glue between them, e.g. assembling a streaming round's events).
  double wall_seconds = 0.0;
  /// The process's peak resident set (MB) once the first `min_ops` ops of
  /// the phase were done: memory after the same amount of work in every
  /// run, however many ops the run gets through after it.
  double peak_rss_mb = 0.0;
  /// Ops that returned a non-OK status or failed an output check.
  int64_t failed = 0;
  /// First failure, for the report.
  std::string first_error;
  /// One digest per completed op, in op order (the correctness gate).
  std::vector<util::Hash128> op_digests;
  /// Per-layer metrics (traced phases only), per op unless the metric
  /// name says otherwise (see README.md).
  std::map<std::string, double> layers;

  /// Counts one failed op, keeping the first message.
  void Fail(const std::string& what) {
    if (failed++ == 0) first_error = what;
  }
};

/// One named workload. A fresh object is set up for every measured
/// set-up; the last one then runs the timed phase.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every input from `seed` and builds the system under test
  /// (engine, server, session, world), up to the first op. `tracer` is
  /// non-null only for a traced phase: the workload then names the
  /// traced wrapper solvers (bench.traced.*) instead of the real ones.
  virtual util::Status Setup(uint64_t seed, Tracer* tracer) = 0;

  /// Runs ops until `seconds` have passed and at least `min_ops` ops are
  /// done, then checks every output. With a tracer it also fills
  /// Phase::layers.
  virtual Phase Run(double seconds, int64_t min_ops, Tracer* tracer) = 0;

  /// Ops the correctness digest covers: every run completes at least
  /// this many, whatever its time target, and reads its peak memory
  /// after them.
  virtual int64_t checked_ops() const = 0;
};

/// The four workloads, by name (nullptr for an unknown name).
std::unique_ptr<Workload> MakeWorkload(std::string_view name);
const std::vector<std::string>& WorkloadNames();

std::unique_ptr<Workload> MakeCampusGreedy();
std::unique_ptr<Workload> MakeCityDc();
std::unique_ptr<Workload> MakeCityStream();
std::unique_ptr<Workload> MakeServeHot();

// --- Helpers shared by the workloads ---

/// An independent 64-bit seed for stream `stream` of run seed `seed`.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return util::HashCombine(util::SplitMix64(seed), stream);
}

/// Digest of one string (a result fingerprint).
inline util::Hash128 DigestOf(std::string_view text) {
  util::Hasher hasher;
  hasher.Mix(text);
  return hasher.Digest();
}

/// getrusage's ru_maxrss of this process, in MB.
double PeakRssMb();

/// Runs `op(k)` for k = 0, 1, ... until `seconds` have passed and at
/// least `min_ops` ops are done (or `max_ops` are reached), recording each
/// op's wall time and Phase::peak_rss_mb. `between(k)`, when set, runs
/// untimed before op k -- the benchmark's own glue, such as building the
/// next round's events.
void RunLoop(Phase& phase, double seconds, int64_t min_ops, int64_t max_ops,
             const std::function<void(int64_t)>& op,
             const std::function<void(int64_t)>& between = {});

/// Checks a solver's answer from outside: every assigned pair is valid
/// for the instance and the reported objectives match a from-scratch
/// evaluation of the assignment. Empty when the answer is sound.
std::string CheckSolve(const core::Instance& instance,
                       const core::SolveResult& solve);

/// Percentile by linear interpolation between the order statistics of
/// `values` (q in [0, 1]); 0 for an empty set.
double Percentile(std::vector<double> values, double q);

/// Mean op wall time of a phase.
double MeanOp(const Phase& phase);

/// Fills the coverage.* layer metrics of a traced phase: its mean op
/// time against `measured_per_op`, the per-op time of the layers the
/// workload timed, with the rest shown as the residual.
void SetCoverage(Phase& phase, double measured_per_op);

}  // namespace rdbsc::perf

#endif  // RDBSC_BENCHMARK_WORKLOAD_H_
