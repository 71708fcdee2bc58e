#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/registry.h"
#include "obs/json.h"

namespace rdbsc::perf {
namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open_spans;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

double Micros(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

/// Forwards every solve to the real solver and reports it to the tracer.
class TracedSolver final : public core::Solver {
 public:
  TracedSolver(std::unique_ptr<core::Solver> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string_view name() const override { return inner_->name(); }

 protected:
  util::StatusOr<core::SolveResult> SolveImpl(
      const core::Instance& instance, const core::CandidateGraph& graph,
      const util::Deadline& deadline, util::Executor& executor,
      core::SolveStats* partial_stats) override {
    core::SolveRequest request;
    request.instance = &instance;
    request.graph = &graph;
    request.deadline = &deadline;
    request.executor = &executor;
    request.partial_stats = partial_stats;
    const Clock::time_point t0 = Clock::now();
    util::StatusOr<core::SolveResult> result = [&] {
      ScopedSpan span(tracer_, "core.solve");
      return inner_->Solve(request);
    }();
    Tracer::SolveCall call;
    call.seconds = util::SecondsSince(t0);
    call.edges_in = graph.NumEdges();
    if (result.ok()) {
      const core::SolveStats& stats = result.value().stats;
      call.pruned_pairs = stats.pruned_pairs;
      call.exact_std_evals = stats.exact_std_evals;
      call.sample_size = stats.sample_size;
    }
    tracer_->RecordSolve(call);
    return result;
  }

 private:
  std::unique_ptr<core::Solver> inner_;
  Tracer* tracer_;
};

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::Begin(const char* name, int64_t op) {
  const Clock::time_point now = Clock::now();
  int64_t id = 0;
  {
    util::MutexLock lock(mu_);
    Span span;
    span.name = name;
    span.start = now;
    span.end = now;
    span.id = static_cast<int64_t>(spans_.size());
    if (!t_open_spans.empty()) {
      span.parent = t_open_spans.back();
      if (op < 0) op = spans_[static_cast<size_t>(span.parent)].op;
    }
    span.op = op;
    span.thread = ThreadIndex();
    spans_.push_back(span);
    id = span.id;
  }
  t_open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const Clock::time_point now = Clock::now();
  t_open_spans.pop_back();
  util::MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

void Tracer::RecordSolve(const SolveCall& call) {
  util::MutexLock lock(mu_);
  solves_.push_back(call);
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  util::MutexLock lock(mu_);
  std::vector<double> self(spans_.size());
  for (const Span& span : spans_) {
    const double seconds =
        std::chrono::duration<double>(span.end - span.start).count();
    self[static_cast<size_t>(span.id)] += seconds;
    if (span.parent >= 0) self[static_cast<size_t>(span.parent)] -= seconds;
  }
  std::map<std::string, double> out;
  for (const Span& span : spans_) {
    out[span.name] += self[static_cast<size_t>(span.id)];
  }
  return out;
}

std::vector<Tracer::SolveCall> Tracer::solve_calls() const {
  util::MutexLock lock(mu_);
  return solves_;
}

util::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::string out;
  {
    util::MutexLock lock(mu_);
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("displayTimeUnit");
    w.String("ms");
    w.Key("traceEvents");
    w.BeginArray();
    for (const Span& span : spans_) {
      w.BeginObject();
      w.Key("name");
      w.String(span.name);
      w.Key("ph");
      w.String("X");
      w.Key("ts");
      w.Double(Micros(origin_, span.start));
      w.Key("dur");
      w.Double(Micros(span.start, span.end));
      w.Key("pid");
      w.Int(1);
      w.Key("tid");
      w.Int(span.thread);
      w.Key("args");
      w.BeginObject();
      w.Key("id");
      w.Int(span.id);
      w.Key("parent");
      w.Int(span.parent);
      w.Key("op");
      w.Int(span.op);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return util::Status::InvalidArgument("cannot open trace file " + path);
  }
  const bool written = std::fwrite(out.data(), 1, out.size(), file) ==
                       out.size();
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    return util::Status::Internal("cannot write trace file " + path);
  }
  return util::Status::OK();
}

std::string TracedName(const std::string& solver_name) {
  return "bench.traced." + solver_name;
}

util::Status RegisterTracedSolvers(Tracer* tracer) {
  core::SolverRegistry& registry = core::SolverRegistry::Global();
  for (const std::string& name : registry.Names()) {
    util::Status status = registry.Register(
        TracedName(name), [name, tracer](const core::SolverOptions& options)
                              -> std::unique_ptr<core::Solver> {
          util::StatusOr<std::unique_ptr<core::Solver>> inner =
              core::SolverRegistry::Global().Create(name, options);
          if (!inner.ok()) return nullptr;
          return std::make_unique<TracedSolver>(std::move(inner).value(),
                                                tracer);
        });
    if (!status.ok()) return status;
  }
  return util::Status::OK();
}

void AddSolveLayers(const Tracer& tracer, int64_t ops,
                    std::map<std::string, double>& layers) {
  const std::vector<Tracer::SolveCall> calls = tracer.solve_calls();
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  std::vector<double> seconds;
  double total = 0.0, edges = 0.0, pruned = 0.0, evals = 0.0;
  int sample_max = 0;
  for (const Tracer::SolveCall& call : calls) {
    seconds.push_back(call.seconds);
    total += call.seconds;
    edges += static_cast<double>(call.edges_in);
    pruned += static_cast<double>(call.pruned_pairs);
    evals += static_cast<double>(call.exact_std_evals);
    sample_max = std::max(sample_max, call.sample_size);
  }
  layers["core.solve.calls"] = static_cast<double>(calls.size()) * per_op;
  layers["core.solve.self_s"] = total * per_op;
  layers["core.solve.call_p50_s"] = Percentile(seconds, 0.5);
  layers["core.solve.call_p90_s"] = Percentile(seconds, 0.9);
  layers["core.solve.edges_in"] = edges * per_op;
  layers["core.solve.pruned_pairs"] = pruned * per_op;
  layers["core.solve.exact_std_evals"] = evals * per_op;
  layers["core.solve.sample_size_max"] = sample_max;
}

}  // namespace rdbsc::perf
