// campus_greedy: Figure 18's campus scaled to 30 sites and 60 users,
// re-assigned by GREEDY every minute. One op is one full sim::Platform
// run (16 ticks) on its own world seed.

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "sim/platform.h"
#include "trace.h"
#include "workload.h"

namespace rdbsc::perf {
namespace {

/// Small enough for a few hundred ops a run: op times differ a lot
/// between worlds, and only many worlds per run give a steady median.
constexpr int kSites = 30;
constexpr int kWorkers = 60;
/// Distinct worlds per run; op k runs world k % kWorlds, so ops past the
/// pool re-run a world and must reproduce its result.
constexpr int kWorlds = 512;

util::Hash128 PlatformDigest(const sim::PlatformResult& result) {
  util::Hasher hasher;
  hasher.Mix(static_cast<int64_t>(result.rounds.size()));
  for (const sim::RoundRecord& round : result.rounds) {
    hasher.Mix(round.time)
        .Mix(round.newly_assigned)
        .Mix(round.objectives.min_reliability)
        .Mix(round.objectives.total_std);
  }
  hasher.Mix(static_cast<int64_t>(result.answers.size()));
  for (const sim::Answer& answer : result.answers) {
    hasher.Mix(answer.task)
        .Mix(answer.worker)
        .Mix(answer.angle)
        .Mix(answer.time)
        .Mix(answer.quality);
  }
  hasher.Mix(result.final_objectives.min_reliability)
      .Mix(result.final_objectives.total_std)
      .Mix(result.assignments_made)
      .Mix(result.answers_received)
      .Mix(result.mean_accuracy_error);
  return hasher.Digest();
}

/// Internal consistency of one platform run; empty when sound.
std::string CheckResult(const sim::PlatformResult& result) {
  int assigned = 0;
  for (const sim::RoundRecord& round : result.rounds) {
    assigned += round.newly_assigned;
  }
  if (assigned != result.assignments_made) return "round counts disagree";
  if (result.answers_received != static_cast<int>(result.answers.size()) ||
      result.answers_received > result.assignments_made) {
    return "answer counts disagree";
  }
  const core::ObjectiveValue& final_value = result.final_objectives;
  if (!std::isfinite(final_value.total_std) || final_value.total_std < 0.0 ||
      !(final_value.min_reliability >= 0.0 &&
        final_value.min_reliability <= 1.0)) {
    return "final objectives out of range";
  }
  return {};
}

class CampusGreedy final : public Workload {
 public:
  util::Status Setup(uint64_t seed, Tracer* tracer) override {
    solver_name_ = SolverNameFor("greedy", tracer);
    platforms_config_.num_sites = kSites;
    platforms_config_.num_workers = kWorkers;
    platforms_config_.t_interval = 1.0 / 60.0;
    platforms_config_.solver_name = solver_name_;
    if (tracer != nullptr) platforms_config_.metrics = &registry_;
    for (int w = 0; w < kWorlds; ++w) {
      sim::PlatformConfig config = platforms_config_;
      config.seed = DeriveSeed(seed, static_cast<uint64_t>(w));
      config.solver_options.seed = config.seed;
      platforms_.push_back(std::make_unique<sim::Platform>(config));
    }
    // One run of a fixed world ends the set-up: the first run in a process
    // pays first-touch costs a user pays once, not per run. Without it
    // set-up is a few tens of microseconds of construction, too short to
    // time steadily on a shared machine. The world is the configuration's
    // default one for every seed, so set-up time does not vary with the
    // seed's worlds. A traced set-up follows an untraced phase in the same
    // process and skips it, so the tracer sees only ops.
    if (tracer == nullptr) {
      util::StatusOr<sim::PlatformResult> warm =
          sim::Platform(platforms_config_).Run();
      if (!warm.ok()) return warm.status();
    }
    return util::Status::OK();
  }

  Phase Run(double seconds, int64_t min_ops, Tracer* tracer) override {
    Phase phase;
    std::vector<util::StatusOr<sim::PlatformResult>> results;
    RunLoop(phase, seconds, min_ops, /*max_ops=*/1 << 20, [&](int64_t k) {
      ScopedSpan span(tracer, "op", k);
      results.push_back(platforms_[static_cast<size_t>(k % kWorlds)]->Run());
    });

    std::vector<util::Hash128> first(kWorlds);
    int64_t ticks = 0, assignments = 0;
    for (size_t k = 0; k < results.size(); ++k) {
      if (!results[k].ok()) {
        phase.Fail("op " + std::to_string(k) + ": " +
                   results[k].status().ToString());
        phase.op_digests.push_back(util::Hash128{});
        continue;
      }
      const sim::PlatformResult& result = results[k].value();
      const util::Hash128 digest = PlatformDigest(result);
      phase.op_digests.push_back(digest);
      ticks += static_cast<int64_t>(result.rounds.size());
      assignments += result.assignments_made;
      const size_t world = k % kWorlds;
      if (std::string problem = CheckResult(result); !problem.empty()) {
        phase.Fail("op " + std::to_string(k) + ": " + problem);
      } else if (k >= kWorlds && digest != first[world]) {
        phase.Fail("op " + std::to_string(k) + ": rerun of world " +
                   std::to_string(world) + " diverged");
      }
      if (k < kWorlds) first[world] = digest;
    }
    // Same world, same answer: run op 0's world once more, untimed.
    if (tracer == nullptr) {
      util::StatusOr<sim::PlatformResult> again = platforms_[0]->Run();
      if (!again.ok() || PlatformDigest(again.value()) != phase.op_digests[0]) {
        phase.Fail("a rerun of op 0's world diverged");
      }
    }

    if (tracer != nullptr) {
      const auto ops = static_cast<int64_t>(results.size());
      const double per_op = 1.0 / static_cast<double>(ops);
      AddSolveLayers(*tracer, ops, phase.layers);
      const double build =
          registry_
              .GetHistogram("sim.round_build_seconds",
                            {{"solver", solver_name_}}, 1e-9)
              .Snapshot()
              .sum() *
          per_op;
      const double solve = phase.layers["core.solve.self_s"];
      phase.layers["sim.platform.ticks"] = static_cast<double>(ticks) * per_op;
      phase.layers["sim.platform.assignments"] =
          static_cast<double>(assignments) * per_op;
      phase.layers["sim.platform.build_s"] = build;
      // The world step and the round-objective preview: whatever of the
      // run is neither solve nor graph build. It is also the coverage
      // residual, as nothing measures it directly.
      phase.layers["sim.platform.world_s"] = MeanOp(phase) - solve - build;
      SetCoverage(phase, solve + build);
    }
    return phase;
  }

  int64_t checked_ops() const override { return 32; }

 private:
  std::string solver_name_;
  /// The configuration every world shares; worlds differ in their seeds.
  sim::PlatformConfig platforms_config_;
  obs::Registry registry_;
  std::vector<std::unique_ptr<sim::Platform>> platforms_;
};

}  // namespace

std::unique_ptr<Workload> MakeCampusGreedy() {
  return std::make_unique<CampusGreedy>();
}

}  // namespace rdbsc::perf
