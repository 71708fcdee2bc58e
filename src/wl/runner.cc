#include "wl/runner.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>

#include "engine/fingerprint.h"
#include "gen/workload.h"
#include "obs/json.h"
#include "util/deadline.h"
#include "util/hash.h"

namespace rdbsc::wl {
namespace {

/// The instance a compiled op stands for: the stress harness's generator
/// settings (wide cones, long periods -- dense candidate graphs), sized
/// and seeded by the schedule, with the phase's spatial distribution.
core::Instance MakeInstance(const CompiledOp& op) {
  gen::WorkloadConfig config;
  config.num_tasks = op.num_tasks;
  config.num_workers = op.num_workers;
  config.seed = op.instance_seed;
  config.angle_range = 3.14159;
  config.start_min = 0.0;
  config.start_max = 2.0;
  config.rt_min = 2.0;
  config.rt_max = 4.0;
  config.v_min = 0.3;
  config.v_max = 0.6;
  if (op.skewed) {
    config.task_distribution = gen::SpatialDistribution::kSkewed;
    config.worker_distribution = gen::SpatialDistribution::kSkewed;
  }
  return gen::GenerateInstance(config);
}

engine::ServerConfig MakeServerConfig(const CompiledWorkload& compiled,
                                      const ReplayOptions& options,
                                      obs::Registry* registry) {
  engine::ServerConfig config;
  config.engine.solver_name = compiled.solver;
  config.engine.solver_options.seed = compiled.seed;
  config.engine.metrics = registry;
  config.num_workers = options.num_workers < 1 ? 1 : options.num_workers;
  config.max_queue_depth = static_cast<int>(compiled.queue_depth);
  config.overload_policy = compiled.policy;
  config.cache_mode = compiled.cache_mode;
  config.cache_result_entries =
      static_cast<size_t>(compiled.cache_result_entries);
  return config;
}

/// Sums one generation's counters into the running totals; the
/// instantaneous fields (queue depth, latency percentiles) are
/// last-writer-wins, i.e. the final generation's.
void AccumulateStats(const engine::ServerStats& generation,
                     engine::ServerStats& total) {
  engine::ServerStats sum = generation;
  sum.submitted += total.submitted;
  sum.admitted += total.admitted;
  sum.rejected += total.rejected;
  sum.shed += total.shed;
  sum.completed += total.completed;
  sum.deadline_exceeded += total.deadline_exceeded;
  sum.cancelled += total.cancelled;
  sum.failed += total.failed;
  sum.cache_hits += total.cache_hits;
  sum.cache_misses += total.cache_misses;
  sum.cache_evictions += total.cache_evictions;
  total = sum;
}

/// Folds a retiring generation's server.* metrics into the replay
/// registry snapshot, re-labelled with {gen=N} so generations stay
/// distinguishable in the results document.
void ImportServerMetrics(const engine::Server& server, int generation,
                         std::vector<obs::MetricSnapshot>& out) {
  obs::RegistrySnapshot snapshot = server.metrics().Snapshot();
  for (obs::MetricSnapshot& metric : snapshot.metrics) {
    metric.labels.emplace_back("gen", std::to_string(generation));
    std::sort(metric.labels.begin(), metric.labels.end());
    out.push_back(std::move(metric));
  }
}

struct OpOutcome {
  std::string fingerprint;
  double latency_seconds = 0.0;
  util::StatusCode code = util::StatusCode::kOk;
};

/// Submits one op and waits for its result. Submit errors (possible only
/// under capacity-guarded reject/shed configs or shutdown races, neither
/// of which a compiled workload produces) still yield a fingerprint so
/// slot alignment survives.
OpOutcome RunOp(engine::Server& server, const CompiledOp& op) {
  OpOutcome outcome;
  engine::SubmitControls controls;
  controls.priority = op.priority;
  controls.cache = op.cache;
  controls.cancel_at_dispatch = op.op == OpKind::kCancel;
  auto t0 = std::chrono::steady_clock::now();
  util::StatusOr<engine::Ticket> ticket =
      server.Submit(MakeInstance(op), controls);
  if (!ticket.ok()) {
    outcome.fingerprint = engine::ResultFingerprint(
        util::StatusOr<EngineResult>(ticket.status()));
    outcome.code = ticket.status().code();
    outcome.latency_seconds = util::SecondsSince(t0);
    return outcome;
  }
  const util::StatusOr<EngineResult>& result = ticket.value().Wait();
  outcome.fingerprint = engine::ResultFingerprint(result);
  outcome.code = result.ok() ? util::StatusCode::kOk : result.status().code();
  outcome.latency_seconds = util::SecondsSince(t0);
  return outcome;
}

void RecordOutcome(obs::Registry& registry, const CompiledPhase& phase,
                   const CompiledOp& op, const OpOutcome& outcome,
                   PhaseReport& report, util::Mutex& report_mu) {
  const char* bucket = outcome.code == util::StatusCode::kOk ? "ok"
                       : outcome.code == util::StatusCode::kCancelled
                           ? "cancelled"
                           : "error";
  registry
      .GetCounter("wl.ops", {{"phase", phase.name},
                             {"op", std::string(OpKindName(op.op))},
                             {"outcome", bucket}})
      .Increment();
  registry
      .GetHistogram("wl.op_seconds", {{"phase", phase.name}}, 1e-9)
      .Observe(outcome.latency_seconds);
  util::MutexLock lock(report_mu);
  ++report.ops;
  if (outcome.code == util::StatusCode::kOk) {
    ++report.ok;
  } else if (outcome.code == util::StatusCode::kCancelled) {
    ++report.cancelled;
  } else {
    ++report.errors;
  }
}

}  // namespace

util::StatusOr<ReplayReport> ReplayWorkload(const CompiledWorkload& compiled,
                                            const ReplayOptions& options) {
  obs::Registry local_registry;
  obs::Registry* registry =
      options.metrics != nullptr ? options.metrics : &local_registry;
  std::vector<obs::MetricSnapshot> imported_server_metrics;

  ReplayReport report;
  auto replay_t0 = std::chrono::steady_clock::now();

  std::unique_ptr<engine::Server> server;
  auto start_generation = [&]() -> util::Status {
    util::StatusOr<std::unique_ptr<engine::Server>> created =
        engine::Server::Create(MakeServerConfig(compiled, options, registry));
    if (!created.ok()) return created.status();
    server = std::move(created.value());
    ++report.server_generations;
    return util::Status::OK();
  };
  auto retire_generation = [&]() {
    if (server == nullptr) return;
    server->Shutdown(engine::ShutdownMode::kDrain);
    AccumulateStats(server->Stats(), report.server);
    ImportServerMetrics(*server, report.server_generations,
                        imported_server_metrics);
    server.reset();
  };

  util::Status status = start_generation();
  if (!status.ok()) return status;

  for (const CompiledPhase& phase : compiled.phases) {
    if (phase.restart) {
      retire_generation();
      status = start_generation();
      if (!status.ok()) return status;
    }

    PhaseReport phase_report;
    phase_report.name = phase.name;
    // Guards the equally local phase_report tallies.
    // LINT-ALLOW(unguarded-mutex): function-local mutex; GUARDED_BY members only
    util::Mutex report_mu;
    auto phase_t0 = std::chrono::steady_clock::now();

    const size_t num_submitters = phase.submitters.size();
    std::vector<std::vector<std::string>> prints(num_submitters);
    std::vector<std::thread> threads;
    threads.reserve(num_submitters);
    for (size_t s = 0; s < num_submitters; ++s) {
      threads.emplace_back([&, s] {
        const std::vector<CompiledOp>& ops = phase.submitters[s].ops;
        prints[s].reserve(ops.size());
        if (phase.mode == PhaseMode::kClosed) {
          for (const CompiledOp& op : ops) {
            OpOutcome outcome = RunOp(*server, op);
            RecordOutcome(*registry, phase, op, outcome, phase_report,
                          report_mu);
            prints[s].push_back(std::move(outcome.fingerprint));
          }
          return;
        }
        // Open loop: submit the whole schedule (paced when dilation > 0),
        // then wait for every ticket in arrival order.
        struct Pending {
          util::StatusOr<engine::Ticket> ticket;
          std::chrono::steady_clock::time_point t0;
        };
        std::vector<Pending> pending;
        pending.reserve(ops.size());
        for (const CompiledOp& op : ops) {
          if (options.time_dilation > 0.0) {
            std::this_thread::sleep_until(
                phase_t0 + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   op.arrival_offset_seconds *
                                   options.time_dilation)));
          }
          engine::SubmitControls controls;
          controls.priority = op.priority;
          controls.cache = op.cache;
          controls.cancel_at_dispatch = op.op == OpKind::kCancel;
          Pending entry{server->Submit(MakeInstance(op), controls),
                        std::chrono::steady_clock::now()};
          pending.push_back(std::move(entry));
        }
        for (size_t i = 0; i < pending.size(); ++i) {
          OpOutcome outcome;
          if (!pending[i].ticket.ok()) {
            outcome.fingerprint =
                engine::ResultFingerprint(util::StatusOr<EngineResult>(
                    pending[i].ticket.status()));
            outcome.code = pending[i].ticket.status().code();
          } else {
            const util::StatusOr<EngineResult>& result =
                pending[i].ticket.value().Wait();
            outcome.fingerprint = engine::ResultFingerprint(result);
            outcome.code =
                result.ok() ? util::StatusCode::kOk : result.status().code();
          }
          outcome.latency_seconds = util::SecondsSince(pending[i].t0);
          RecordOutcome(*registry, phase, ops[i], outcome, phase_report,
                        report_mu);
          prints[s].push_back(std::move(outcome.fingerprint));
        }
      });
    }
    for (std::thread& t : threads) t.join();

    phase_report.wall_seconds = util::SecondsSince(phase_t0);
    report.phases.push_back(std::move(phase_report));
    for (std::vector<std::string>& per : prints) {
      report.fingerprints.insert(report.fingerprints.end(),
                                 std::make_move_iterator(per.begin()),
                                 std::make_move_iterator(per.end()));
    }
  }

  retire_generation();
  report.wall_seconds = util::SecondsSince(replay_t0);

  obs::RegistrySnapshot snapshot = registry->Snapshot();
  for (obs::MetricSnapshot& metric : imported_server_metrics) {
    snapshot.metrics.push_back(std::move(metric));
  }
  // Attach each phase's latency distribution to its report.
  for (PhaseReport& phase : report.phases) {
    for (const obs::MetricSnapshot& metric : snapshot.metrics) {
      if (metric.name == "wl.op_seconds" &&
          metric.labels ==
              obs::Labels{{"phase", phase.name}}) {
        phase.latency = metric.histogram;
        break;
      }
    }
  }
  report.metrics = std::move(snapshot);
  return report;
}

std::string FingerprintDigest(const std::vector<std::string>& fingerprints) {
  util::Hasher hasher;
  for (const std::string& print : fingerprints) {
    hasher.Mix(std::string_view(print));
  }
  return "n=" + std::to_string(fingerprints.size()) + ";h=" +
         hasher.Digest().ToHex();
}

std::string ResultsJson(const CompiledWorkload& compiled,
                        const ReplayReport& report,
                        const ReplayOptions& options) {
  std::string out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("schema");
  w.String(obs::kResultsSchemaName);
  w.Key("schema_version");
  w.Int(obs::kResultsSchemaVersion);
  w.Key("bench");
  w.String("workload_" + compiled.name);
  w.Key("options");
  w.BeginObject();
  w.Key("base");
  w.Int(compiled.total_ops);
  w.Key("seeds");
  w.Int(1);
  w.Key("threads");
  w.Int(options.num_workers < 1 ? 1 : options.num_workers);
  w.Key("paper_scale");
  w.Bool(false);
  w.EndObject();
  w.Key("workload");
  w.BeginObject();
  w.Key("name");
  w.String(compiled.name);
  w.Key("solver");
  w.String(compiled.solver);
  w.Key("seed");
  w.Int(static_cast<int64_t>(compiled.seed));
  w.Key("policy");
  w.String(PolicyKeyword(compiled.policy));
  w.Key("fingerprint_digest");
  w.String(FingerprintDigest(report.fingerprints));
  w.Key("server_generations");
  w.Int(report.server_generations);
  w.Key("wall_seconds");
  w.Double(report.wall_seconds);
  w.EndObject();

  w.Key("tables");
  w.BeginArray();

  w.BeginObject();
  w.Key("metric");
  w.String("phase outcomes (count)");
  w.Key("x_label");
  w.String("outcome");
  w.Key("rows");
  w.BeginArray();
  for (const PhaseReport& phase : report.phases) w.String(phase.name);
  w.EndArray();
  w.Key("columns");
  w.BeginArray();
  w.String("ops");
  w.String("ok");
  w.String("cancelled");
  w.String("errors");
  w.EndArray();
  w.Key("cells");
  w.BeginArray();
  for (const PhaseReport& phase : report.phases) {
    w.BeginArray();
    w.Int(phase.ops);
    w.Int(phase.ok);
    w.Int(phase.cancelled);
    w.Int(phase.errors);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();

  w.BeginObject();
  w.Key("metric");
  w.String("op latency (seconds)");
  w.Key("x_label");
  w.String("statistic");
  w.Key("rows");
  w.BeginArray();
  for (const PhaseReport& phase : report.phases) w.String(phase.name);
  w.EndArray();
  w.Key("columns");
  w.BeginArray();
  w.String("p50");
  w.String("p95");
  w.String("p99");
  w.String("max");
  w.EndArray();
  w.Key("cells");
  w.BeginArray();
  for (const PhaseReport& phase : report.phases) {
    w.BeginArray();
    w.Double(phase.latency.p50());
    w.Double(phase.latency.p95());
    w.Double(phase.latency.p99());
    w.Double(phase.latency.max());
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();

  w.BeginObject();
  w.Key("metric");
  w.String("server totals (count)");
  w.Key("x_label");
  w.String("counter");
  w.Key("rows");
  w.BeginArray();
  w.String("total");
  w.EndArray();
  w.Key("columns");
  w.BeginArray();
  w.String("submitted");
  w.String("admitted");
  w.String("completed");
  w.String("cancelled");
  w.String("cache_hits");
  w.String("generations");
  w.EndArray();
  w.Key("cells");
  w.BeginArray();
  w.BeginArray();
  w.Int(report.server.submitted);
  w.Int(report.server.admitted);
  w.Int(report.server.completed);
  w.Int(report.server.cancelled);
  w.Int(report.server.cache_hits);
  w.Int(report.server_generations);
  w.EndArray();
  w.EndArray();
  w.EndObject();

  w.EndArray();

  w.Key("metrics");
  w.BeginArray();
  for (const obs::MetricSnapshot& metric : report.metrics.metrics) {
    obs::AppendMetric(w, metric);
  }
  w.EndArray();

  w.EndObject();
  out += "\n";
  return out;
}

}  // namespace rdbsc::wl
