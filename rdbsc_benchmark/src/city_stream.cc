// city_stream: a streaming city served by sim::StreamingSession with the
// SAMPLING solver: 4000 workers, 750 Table-2 tasks an hour, a round
// every two simulated minutes. Tasks arrive 30 minutes before they
// start; committed workers complete when they reach their task
// (core::ArrivalTime); about 5% of idle workers drift each round and
// about 1% of open tasks are withdrawn. One op is one round:
// IncrementalAssigner::ApplyEvents then IncrementalAssigner::Update.
//
// Every random draw (tasks, workers, drifts, withdrawals) is made in
// Setup. Which drawn events are emitted depends on the assigner's state
// (a busy worker neither drifts nor completes twice), so each round's
// batch is assembled between ops, outside the op timer, and only with
// events that are valid for the assigner's current state.

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/model.h"
#include "gen/workload.h"
#include "sim/events.h"
#include "sim/streaming.h"
#include "trace.h"
#include "util/rng.h"
#include "workload.h"

namespace rdbsc::perf {
namespace {

constexpr int kWorkers = 4000;
constexpr double kTasksPerHour = 750.0;
/// Simulated time between rounds (hours): two minutes.
constexpr double kRoundHours = 1.0 / 30.0;
/// Rounds drawn per run (96 simulated hours); runs stop earlier on time.
/// A 20-second run on a quiet machine gets through up to about 1800.
constexpr int kMaxRounds = 2880;
/// Tasks arrive this long (hours) before their valid period starts.
constexpr double kLeadHours = 0.5;
/// Task starts begin this long (hours) before time 0, so the city opens
/// with the tasks a steady state would already hold.
constexpr double kPrefillHours = 1.0;
constexpr double kDriftFraction = 0.05;
constexpr double kMaxDrift = 0.005;
constexpr double kWithdrawPerRound = 0.01;

struct Drift {
  core::WorkerId id = 0;
  double dx = 0.0;
  double dy = 0.0;
};

/// A committed worker's pending completion.
struct Completion {
  double time = 0.0;
  core::WorkerId worker = 0;
  core::TaskId task = 0;
  bool operator>(const Completion& other) const {
    if (time != other.time) return time > other.time;
    return worker > other.worker;
  }
};

double RoundTime(int64_t round) {
  return static_cast<double>(round + 1) * kRoundHours;
}

class CityStream final : public Workload {
 public:
  util::Status Setup(uint64_t seed, Tracer* tracer) override {
    util::Rng rng(DeriveSeed(seed, 0));
    const double first_start = kLeadHours - kPrefillHours;
    const double last_start = RoundTime(kMaxRounds) + kLeadHours;
    gen::WorkloadConfig config;
    config.num_tasks =
        static_cast<int>(kTasksPerHour * (last_start - first_start));
    config.num_workers = kWorkers;
    config.start_min = first_start;
    config.start_max = last_start;
    config.seed = DeriveSeed(seed, 1);
    core::Instance world = gen::GenerateInstance(config);

    // Task ids follow arrival order.
    tasks_ = world.tasks();
    std::stable_sort(tasks_.begin(), tasks_.end(),
                     [](const core::Task& a, const core::Task& b) {
                       return a.start < b.start;
                     });
    workers_ = world.workers();
    for (core::Worker& worker : workers_) worker.available_from = 0.0;

    // Withdrawals: each task draws a geometric number of rounds after its
    // arrival (about kWithdrawPerRound of open tasks a round); it is
    // withdrawn then unless it has expired by that time.
    withdrawals_.assign(kMaxRounds, {});
    std::geometric_distribution<int> after_rounds(kWithdrawPerRound);
    for (core::TaskId t = 0; t < static_cast<core::TaskId>(tasks_.size());
         ++t) {
      const int64_t arrival_round = std::max<int64_t>(
          0, static_cast<int64_t>(std::ceil(
                 (tasks_[t].start - kLeadHours) / kRoundHours)) - 1);
      const int64_t round = arrival_round + 1 + after_rounds(rng.engine());
      if (round < kMaxRounds && RoundTime(round) <= tasks_[t].end) {
        withdrawals_[static_cast<size_t>(round)].push_back(t);
      }
    }
    // Drifts: kDriftFraction of all workers per round; only the idle ones
    // among them move.
    drifts_.assign(kMaxRounds, {});
    const int per_round = static_cast<int>(kDriftFraction * kWorkers);
    for (std::vector<Drift>& round : drifts_) {
      for (int d = 0; d < per_round; ++d) {
        Drift drift;
        drift.id = static_cast<core::WorkerId>(rng.UniformInt(0, kWorkers - 1));
        drift.dx = rng.Uniform(-kMaxDrift, kMaxDrift);
        drift.dy = rng.Uniform(-kMaxDrift, kMaxDrift);
        round.push_back(drift);
      }
      std::sort(round.begin(), round.end(),
                [](const Drift& a, const Drift& b) { return a.id < b.id; });
      round.erase(std::unique(round.begin(), round.end(),
                              [](const Drift& a, const Drift& b) {
                                return a.id == b.id;
                              }),
                  round.end());
    }

    EngineConfig engine_config;
    engine_config.solver_name = SolverNameFor("sampling", tracer);
    util::StatusOr<std::unique_ptr<sim::StreamingSession>> session =
        sim::StreamingSession::Create(engine_config);
    if (!session.ok()) return session.status();
    session_ = std::move(session).value();

    // Bootstrap: every worker checks in; tasks already announced by
    // time 0 are open.
    sim::IncrementalAssigner& assigner = session_->assigner();
    position_.resize(workers_.size());
    committed_.assign(workers_.size(), core::kNoTask);
    for (core::WorkerId w = 0; w < kWorkers; ++w) {
      position_[w] = workers_[w].location;
      if (util::Status s = assigner.AddWorker(w, workers_[w]); !s.ok()) {
        return s;
      }
    }
    withdrawn_.assign(tasks_.size(), 0);
    while (next_task_ < static_cast<core::TaskId>(tasks_.size()) &&
           tasks_[next_task_].start - kLeadHours <= 0.0) {
      if (util::Status s = assigner.AddTask(next_task_, tasks_[next_task_]);
          !s.ok()) {
        return s;
      }
      ++next_task_;
    }
    return util::Status::OK();
  }

  Phase Run(double seconds, int64_t min_ops, Tracer* tracer) override {
    Phase phase;
    sim::IncrementalAssigner& assigner = session_->assigner();
    const index::DeltaStats delta_before = assigner.delta_stats();
    int64_t events = 0;
    util::StatusOr<std::vector<std::pair<core::TaskId, core::WorkerId>>>
        committed = std::vector<std::pair<core::TaskId, core::WorkerId>>{};
    sim::EventBatch batch;
    RunLoop(
        phase, seconds, min_ops, kMaxRounds,
        [&](int64_t k) {
          ScopedSpan span(tracer, "op", k);
          util::Status applied;
          {
            ScopedSpan apply(tracer, "sim.stream.apply");
            applied = assigner.ApplyEvents(batch);
          }
          if (!applied.ok()) {
            committed = applied;
            return;
          }
          ScopedSpan update(tracer, "sim.stream.update");
          committed = assigner.Update(batch.now);
        },
        [&](int64_t k) {
          if (k > 0) Absorb(phase, k - 1, committed);
          batch = NextBatch(k, phase);
          events += static_cast<int64_t>(
              batch.expired.size() + batch.completed.size() +
              batch.arrived.size() + batch.moved.size());
        });
    const auto ops = static_cast<int64_t>(phase.op_seconds.size());
    Absorb(phase, ops - 1, committed);

    if (tracer != nullptr) {
      const double per_op = 1.0 / static_cast<double>(ops);
      AddSolveLayers(*tracer, ops, phase.layers);
      std::map<std::string, double> self = tracer->SelfSeconds();
      std::map<std::string, double>& layers = phase.layers;
      layers["sim.stream.apply_s"] = self["sim.stream.apply"] * per_op;
      layers["sim.stream.events"] = static_cast<double>(events) * per_op;
      layers["sim.stream.update_self_s"] = self["sim.stream.update"] * per_op;
      const index::DeltaStats delta = assigner.delta_stats() - delta_before;
      layers["index.delta.rows_recomputed"] =
          static_cast<double>(delta.rows_recomputed) * per_op;
      layers["index.delta.rows_reused"] =
          static_cast<double>(delta.rows_reused) * per_op;
      const int64_t rows = delta.rows_reused + delta.rows_recomputed;
      layers["index.delta.reuse_ratio"] =
          rows > 0 ? static_cast<double>(delta.rows_reused) /
                         static_cast<double>(rows)
                   : 0.0;
      layers["index.delta.bulk_refills"] =
          static_cast<double>(delta.bulk_refills) * per_op;
      layers["index.delta.cells_touched"] =
          static_cast<double>(delta.cells_touched) * per_op;
      layers["index.delta.edges_repaired"] =
          static_cast<double>(delta.edges_repaired) * per_op;
      SetCoverage(phase, layers["sim.stream.apply_s"] +
                             layers["sim.stream.update_self_s"] +
                             layers["core.solve.self_s"]);
    }
    return phase;
  }

  int64_t checked_ops() const override { return 240; }

 private:
  /// Assembles round k's batch from the pre-drawn inputs, keeping only
  /// events valid for the assigner's current state.
  sim::EventBatch NextBatch(int64_t k, Phase& phase) {
    const sim::IncrementalAssigner& assigner = session_->assigner();
    sim::EventBatch batch;
    batch.now = RoundTime(k);
    // Tasks dropped by the previous round's Update are gone already.
    const double last_update = k > 0 ? RoundTime(k - 1) : 0.0;

    for (core::TaskId t : withdrawals_[static_cast<size_t>(k)]) {
      if (t >= next_task_ || tasks_[t].end < last_update) continue;
      batch.expired.push_back({t});
      withdrawn_[t] = 1;
      // The assigner voids this task's pending commitments.
      for (core::WorkerId w : en_route_[t]) {
        if (committed_[w] == t) committed_[w] = core::kNoTask;
      }
      en_route_.erase(t);
    }

    while (!completions_.empty() && completions_.top().time <= batch.now) {
      const Completion done = completions_.top();
      completions_.pop();
      // Voided by a withdrawal (and maybe committed elsewhere since).
      if (committed_[done.worker] != done.task) continue;
      if (assigner.CommittedTask(done.worker) != done.task) {
        phase.Fail("round " + std::to_string(k) + ": worker " +
                   std::to_string(done.worker) + " lost its commitment");
        continue;
      }
      // The worker heads back to where it checked in. Staying at the task
      // would walk every worker along its fixed direction cone to the
      // edge of the city, where nothing lies ahead of it any more.
      const geo::Point at = workers_[done.worker].location;
      batch.completed.push_back({done.worker, at});
      position_[done.worker] = at;
      committed_[done.worker] = core::kNoTask;
      std::erase(en_route_[done.task], done.worker);
    }

    while (next_task_ < static_cast<core::TaskId>(tasks_.size()) &&
           tasks_[next_task_].start - kLeadHours <= batch.now) {
      batch.arrived.push_back({next_task_, tasks_[next_task_]});
      ++next_task_;
    }

    for (const Drift& drift : drifts_[static_cast<size_t>(k)]) {
      // Workers this batch frees (withdrawn task, completion) are still
      // committed in the assigner until it applies the batch.
      if (committed_[drift.id] != core::kNoTask ||
          assigner.CommittedTask(drift.id) != core::kNoTask) {
        continue;
      }
      geo::Point& at = position_[drift.id];
      at.x = std::clamp(at.x + drift.dx, 0.0, 1.0);
      at.y = std::clamp(at.y + drift.dy, 0.0, 1.0);
      batch.moved.push_back({drift.id, at});
    }
    return batch;
  }

  /// Checks round k's commitments, schedules their completions and folds
  /// them into the round's digest.
  void Absorb(
      Phase& phase, int64_t k,
      const util::StatusOr<std::vector<std::pair<core::TaskId,
                                                 core::WorkerId>>>& committed) {
    util::Hasher hasher;
    hasher.Mix(k);
    if (!committed.ok()) {
      phase.Fail("round " + std::to_string(k) + ": " +
                 committed.status().ToString());
      hasher.Mix(static_cast<int>(committed.status().code()));
      phase.op_digests.push_back(hasher.Digest());
      return;
    }
    const double now = RoundTime(k);
    hasher.Mix(now).Mix(static_cast<int64_t>(committed.value().size()));
    for (const auto& [t, w] : committed.value()) {
      hasher.Mix(t).Mix(w);
      core::Worker worker = workers_[w];
      worker.location = position_[w];
      const bool open = t < next_task_ && !withdrawn_[t] &&
                        tasks_[t].end >= now;
      if (!open || committed_[w] != core::kNoTask ||
          !core::IsValidPair(tasks_[t], worker, now,
                             core::ArrivalPolicy::kAllowWait)) {
        phase.Fail("round " + std::to_string(k) + ": invalid commitment (task " +
                   std::to_string(t) + ", worker " + std::to_string(w) + ")");
        continue;
      }
      committed_[w] = t;
      en_route_[t].push_back(w);
      completions_.push({core::ArrivalTime(worker, tasks_[t], now,
                                           core::ArrivalPolicy::kAllowWait),
                         w, t});
    }
    if (k == checked_ops() - 1) {
      const core::ObjectiveValue objectives =
          session_->assigner().Objectives();
      hasher.Mix(objectives.min_reliability).Mix(objectives.total_std);
    }
    phase.op_digests.push_back(hasher.Digest());
  }

  std::vector<core::Task> tasks_;
  std::vector<core::Worker> workers_;
  std::vector<std::vector<core::TaskId>> withdrawals_;
  std::vector<std::vector<Drift>> drifts_;
  std::unique_ptr<sim::StreamingSession> session_;

  // The benchmark's own view of the world, advanced round by round.
  core::TaskId next_task_ = 0;
  std::vector<geo::Point> position_;
  /// Task each worker is travelling to, or kNoTask.
  std::vector<core::TaskId> committed_;
  std::vector<char> withdrawn_;
  std::map<core::TaskId, std::vector<core::WorkerId>> en_route_;
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions_;
};

}  // namespace

std::unique_ptr<Workload> MakeCityStream() {
  return std::make_unique<CityStream>();
}

}  // namespace rdbsc::perf
