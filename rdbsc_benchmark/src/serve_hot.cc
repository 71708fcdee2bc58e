// serve_hot: many small requests through engine::Server (D&C, 2 dispatch
// workers, read-write result cache, blocking admission), driven closed
// loop by 2 submitters. A share of the requests repeat a 64-instance hot
// set, so cache hits (reads) share the run with misses and inserts
// (writes). One op is one Submit -> Ticket::Wait.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/fingerprint.h"
#include "engine/server.h"
#include "gen/workload.h"
#include "obs/registry.h"
#include "trace.h"
#include "util/rng.h"
#include "workload.h"

namespace rdbsc::perf {
namespace {

/// Requests drawn per run. Ops past the schedule replay it from the
/// start: the cold instances have left the cache (4096 results) by then,
/// so the hit/miss mix stays the same.
constexpr int kSchedule = 8192;
constexpr int64_t kMaxOps = 16 * kSchedule;
constexpr int kHotSet = 64;
/// Share of requests drawn from the hot set. Kept away from one half so
/// the median op sits inside the miss mode instead of on the boundary
/// between the hit and miss modes, where it would jump between runs.
constexpr double kHotFraction = 0.4;

/// The src/wl replay generator's settings (wide cones, long periods:
/// dense candidate graphs) with 8-40 tasks and 16-80 workers.
core::Instance MakeInstance(util::Rng& rng) {
  gen::WorkloadConfig config;
  config.num_tasks = static_cast<int>(rng.UniformInt(8, 40));
  config.num_workers = static_cast<int>(rng.UniformInt(16, 80));
  config.seed = static_cast<uint64_t>(rng.UniformInt(0, INT64_MAX));
  config.angle_range = 3.14159;
  config.start_min = 0.0;
  config.start_max = 2.0;
  config.rt_min = 2.0;
  config.rt_max = 4.0;
  config.v_min = 0.3;
  config.v_max = 0.6;
  return gen::GenerateInstance(config);
}

/// The histogram `name` whose labels include `label`, from a snapshot.
obs::HistogramSnapshot FindHistogram(const obs::RegistrySnapshot& snapshot,
                                     const std::string& name,
                                     const std::pair<std::string, std::string>&
                                         label) {
  for (const obs::MetricSnapshot& metric : snapshot.metrics) {
    if (metric.kind == obs::MetricSnapshot::Kind::kHistogram &&
        metric.name == name &&
        std::find(metric.labels.begin(), metric.labels.end(), label) !=
            metric.labels.end()) {
      return metric.histogram;
    }
  }
  return {};
}

class ServeHot final : public Workload {
 public:
  util::Status Setup(uint64_t seed, Tracer* tracer) override {
    util::Rng rng(DeriveSeed(seed, 0));
    instances_.reserve(kHotSet + kSchedule);
    for (int h = 0; h < kHotSet; ++h) instances_.push_back(MakeInstance(rng));
    for (int k = 0; k < kSchedule; ++k) {
      if (rng.Bernoulli(kHotFraction)) {
        schedule_.push_back(static_cast<int>(rng.UniformInt(0, kHotSet - 1)));
      } else {
        schedule_.push_back(static_cast<int>(instances_.size()));
        instances_.push_back(MakeInstance(rng));
      }
    }

    engine::ServerConfig config;
    config.engine.solver_name = SolverNameFor("dc", tracer);
    config.num_workers = 2;
    config.cache_mode = engine::CacheMode::kReadWrite;
    config.overload_policy = engine::OverloadPolicy::kBlock;
    util::StatusOr<std::unique_ptr<engine::Server>> server =
        engine::Server::Create(config);
    if (!server.ok()) return server.status();
    server_ = std::move(server).value();
    return util::Status::OK();
  }

  Phase Run(double seconds, int64_t min_ops, Tracer* tracer) override {
    Phase phase;
    std::vector<double> op_seconds(kMaxOps);
    std::vector<double> op_end(kMaxOps);
    std::vector<util::StatusOr<EngineResult>> results(
        kMaxOps, util::Status::Internal("op never ran"));
    std::atomic<int64_t> next{0};
    std::atomic<bool> stop{false};
    const Clock::time_point start = Clock::now();
    // Closed loop with two submitters, this thread and one helper: each
    // sends its next request only after the previous one finished. Ops
    // are taken in order from one counter, so every op below the final
    // count ran.
    auto submitter = [&] {
      while (!stop.load()) {
        const int64_t k = next.fetch_add(1);
        if (k >= kMaxOps) break;
        const core::Instance& instance =
            instances_[static_cast<size_t>(schedule_[k % kSchedule])];
        ScopedSpan span(tracer, "op", k);
        const Clock::time_point t0 = Clock::now();
        util::StatusOr<engine::Ticket> ticket = server_->Submit(instance);
        results[k] = ticket.ok() ? ticket.value().Wait()
                                 : util::StatusOr<EngineResult>(
                                       ticket.status());
        const Clock::time_point t1 = Clock::now();
        op_seconds[k] = std::chrono::duration<double>(t1 - t0).count();
        op_end[k] = std::chrono::duration<double>(t1 - start).count();
        // One thread runs op min_ops - 1, and join() orders its write.
        if (k + 1 == min_ops) phase.peak_rss_mb = PeakRssMb();
        if (k + 1 >= min_ops && op_end[k] >= seconds) stop = true;
      }
    };
    std::thread helper(submitter);
    submitter();
    helper.join();
    phase.wall_seconds = util::SecondsSince(start);
    server_->Shutdown(engine::ShutdownMode::kDrain);

    const int64_t ops = std::min<int64_t>(next.load(), kMaxOps);
    op_seconds.resize(static_cast<size_t>(ops));
    op_end.resize(static_cast<size_t>(ops));
    phase.op_seconds = std::move(op_seconds);
    phase.op_end = std::move(op_end);
    std::vector<util::Hash128> first(instances_.size());
    std::vector<char> seen(instances_.size(), 0);
    int64_t grid_ops = 0;
    double edges = 0.0;
    for (int64_t k = 0; k < ops; ++k) {
      const util::StatusOr<EngineResult>& result = results[k];
      const util::Hash128 digest =
          DigestOf(engine::ResultFingerprint(result));
      phase.op_digests.push_back(digest);
      if (!result.ok()) {
        phase.Fail("op " + std::to_string(k) + ": " +
                   result.status().ToString());
        continue;
      }
      if (result.value().plan.used_grid_index) ++grid_ops;
      edges += static_cast<double>(result.value().plan.edges);
      const auto slot = static_cast<size_t>(schedule_[k % kSchedule]);
      if (seen[slot] == 0) {
        seen[slot] = 1;
        first[slot] = digest;
        if (std::string problem =
                CheckSolve(instances_[slot], result.value().solve);
            !problem.empty()) {
          phase.Fail("op " + std::to_string(k) + ": " + problem);
        }
      } else if (digest != first[slot]) {
        phase.Fail("op " + std::to_string(k) +
                   ": repeat of an instance differs from its first answer");
      }
    }

    if (tracer != nullptr) AddLayers(phase, *tracer, ops, grid_ops, edges);
    return phase;
  }

  int64_t checked_ops() const override { return 2000; }

 private:
  void AddLayers(Phase& phase, const Tracer& tracer, int64_t ops,
                 int64_t grid_ops, double edges) const {
    const double per_op = 1.0 / static_cast<double>(ops);
    AddSolveLayers(tracer, ops, phase.layers);
    const obs::RegistrySnapshot snapshot = server_->metrics().Snapshot();
    auto stage = [&](const char* name) {
      return FindHistogram(snapshot, "engine.stage_seconds", {"stage", name})
                 .sum() *
             per_op;
    };
    const obs::HistogramSnapshot queue =
        FindHistogram(snapshot, "server.latency_seconds", {"phase", "queue"});
    const obs::HistogramSnapshot run =
        FindHistogram(snapshot, "server.latency_seconds", {"phase", "run"});
    const double solve_stage = stage("solve");
    phase.layers["engine.validate.self_s"] = stage("validate");
    phase.layers["engine.plan.self_s"] = stage("plan");
    phase.layers["engine.plan.grid_frac"] =
        static_cast<double>(grid_ops) * per_op;
    phase.layers["engine.build.self_s"] = stage("build");
    phase.layers["engine.build.edges"] = edges * per_op;
    phase.layers["engine.solve.self_s"] =
        solve_stage - phase.layers["core.solve.self_s"];
    const engine::ServerStats stats = server_->Stats();
    const int64_t lookups = stats.cache_hits + stats.cache_misses;
    phase.layers["engine.cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(stats.cache_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    phase.layers["engine.cache.evictions"] =
        static_cast<double>(stats.cache_evictions) * per_op;
    phase.layers["engine.server.queue_p50_s"] = queue.p50();
    phase.layers["engine.server.queue_p90_s"] = queue.p90();
    phase.layers["engine.server.run_p50_s"] = run.p50();
    SetCoverage(phase, queue.sum() * per_op + stage("validate") +
                           stage("plan") + stage("build") + solve_stage);
  }

  std::vector<core::Instance> instances_;
  /// Instance index of each op.
  std::vector<int> schedule_;
  std::unique_ptr<engine::Server> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeHot() {
  return std::make_unique<ServeHot>();
}

}  // namespace rdbsc::perf
