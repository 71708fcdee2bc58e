#ifndef RDBSC_BENCHMARK_TRACE_H_
#define RDBSC_BENCHMARK_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/solver.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "workload.h"

namespace rdbsc::perf {

/// In-memory span recorder of a traced phase. Spans are timed from the
/// benchmark's side of each call into a layer; nothing inside the program
/// is instrumented. A span's parent is the innermost span open on the
/// same thread, and it inherits that span's op id, so a solve called from
/// inside an op's engine stage nests under it. Thread-safe.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    int64_t id = 0;
    int64_t parent = -1;  ///< -1: a root span
    int64_t op = -1;      ///< -1: not attributable to an op
    uint32_t thread = 0;
  };

  /// What the traced wrapper solver saw on one call.
  struct SolveCall {
    double seconds = 0.0;
    int64_t edges_in = 0;
    int64_t pruned_pairs = 0;
    int64_t exact_std_evals = 0;
    int sample_size = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; `op` < 0 inherits the enclosing
  /// span's op. Returns the span id for End.
  int64_t Begin(const char* name, int64_t op = -1) EXCLUDES(mu_);
  void End(int64_t id) EXCLUDES(mu_);

  void RecordSolve(const SolveCall& call) EXCLUDES(mu_);

  /// Total self time per span name: each span's duration minus the part
  /// covered by its direct children.
  std::map<std::string, double> SelfSeconds() const EXCLUDES(mu_);
  std::vector<SolveCall> solve_calls() const EXCLUDES(mu_);

  /// Writes every span as Chrome trace-event JSON (complete "X" events,
  /// microseconds since the tracer was created), loadable in
  /// chrome://tracing or Perfetto.
  util::Status WriteChromeTrace(const std::string& path) const
      EXCLUDES(mu_);

 private:
  const Clock::time_point origin_;
  mutable util::Mutex mu_;
  /// Open and closed spans by id (ids are dense from 0).
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::vector<SolveCall> solves_ GUARDED_BY(mu_);
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op = -1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Registers "bench.traced.<name>" in core::SolverRegistry::Global() for
/// every built-in solver: a wrapper that forwards each solve to a fresh
/// instance of the real solver through Solver::Solve(SolveRequest),
/// sharing the caller's deadline and executor, and reports the call to
/// `tracer` as a "core.solve" span plus a SolveCall. Call once per
/// process; the tracer must outlive every solver created under those
/// names.
util::Status RegisterTracedSolvers(Tracer* tracer);

/// The registry name of the traced wrapper around `solver_name`.
std::string TracedName(const std::string& solver_name);

/// `solver_name` itself, or its traced wrapper's name under a tracer.
inline std::string SolverNameFor(const std::string& solver_name,
                                 const Tracer* tracer) {
  return tracer != nullptr ? TracedName(solver_name) : solver_name;
}

/// Adds the core.solve.* layer metrics of `tracer`'s wrapper calls to
/// `layers`, per op over `ops` ops.
void AddSolveLayers(const Tracer& tracer, int64_t ops,
                    std::map<std::string, double>& layers);

}  // namespace rdbsc::perf

#endif  // RDBSC_BENCHMARK_TRACE_H_
