#include "sim/platform.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "core/diversity.h"
#include "core/registry.h"
#include "geo/angle.h"
#include "sim/events.h"
#include "sim/incremental.h"
#include "util/deadline.h"
#include "util/math.h"
#include "util/rng.h"

namespace rdbsc::sim {
namespace {

// Mutable worker state tracked across rounds.
struct MobileWorker {
  core::Worker profile;  ///< profile.location tracks the current position
  bool traveling = false;
  double arrival_time = 0.0;
  core::TaskId target = core::kNoTask;
};

// Mutable task state: the site, its requirements, and its contributions.
struct Site {
  core::Task task;
  double required_angle = 0.0;  ///< desired shooting direction
  std::vector<core::Observation> contributions;
};

// The round objectives over all sites -- min reliability over non-empty
// sites and the Eq. 7 total E[STD] -- memoized per site: a site's log1p
// sum and O(r^2) E[STD] are recomputed only when its observation list
// differs, bit for bit, from the one it was last evaluated on. The total
// still sums the sites in site order, so every value equals a fresh
// evaluation of every site.
class SiteObjectives {
 public:
  explicit SiteObjectives(size_t num_sites) : memo_(num_sites) {}

  /// Objectives with `extra[s]` appended to site s's contributions.
  core::ObjectiveValue Evaluate(
      const std::vector<Site>& sites,
      const std::vector<std::vector<core::Observation>>& extra) {
    core::ObjectiveValue value;
    double min_r = std::numeric_limits<double>::infinity();
    bool any = false;
    for (size_t s = 0; s < sites.size(); ++s) {
      Memo& memo = memo_[s];
      if (!Matches(memo.obs, sites[s].contributions, extra[s])) {
        memo.obs = sites[s].contributions;
        memo.obs.insert(memo.obs.end(), extra[s].begin(), extra[s].end());
        memo.r = 0.0;
        for (const core::Observation& obs : memo.obs) {
          memo.r += util::ReliabilityWeight(obs.confidence);
        }
        memo.expected_std = core::ExpectedStd(sites[s].task, memo.obs);
      }
      if (memo.obs.empty()) continue;
      any = true;
      min_r = std::min(min_r, memo.r);
      value.total_std += memo.expected_std;
    }
    value.min_reliability = any ? util::ReducedToProbability(min_r) : 0.0;
    return value;
  }

 private:
  struct Memo {
    std::vector<core::Observation> obs;
    double r = 0.0;
    double expected_std = 0.0;
  };

  static bool SameBits(const core::Observation& a,
                       const core::Observation& b) {
    return std::bit_cast<uint64_t>(a.angle) ==
               std::bit_cast<uint64_t>(b.angle) &&
           std::bit_cast<uint64_t>(a.arrival) ==
               std::bit_cast<uint64_t>(b.arrival) &&
           std::bit_cast<uint64_t>(a.confidence) ==
               std::bit_cast<uint64_t>(b.confidence);
  }

  // True when `memo` is `head` followed by `tail`.
  static bool Matches(const std::vector<core::Observation>& memo,
                      const std::vector<core::Observation>& head,
                      const std::vector<core::Observation>& tail) {
    if (memo.size() != head.size() + tail.size()) return false;
    return std::equal(head.begin(), head.end(), memo.begin(), SameBits) &&
           std::equal(tail.begin(), tail.end(),
                      memo.begin() + static_cast<ptrdiff_t>(head.size()),
                      SameBits);
  }

  std::vector<Memo> memo_;
};

}  // namespace

Platform::Platform(PlatformConfig config) : config_(std::move(config)) {
  util::StatusOr<std::unique_ptr<core::Solver>> created =
      core::SolverRegistry::Global().Create(config_.solver_name,
                                            config_.solver_options);
  if (created.ok()) {
    solver_ = std::move(created).value();
  } else {
    init_status_ = created.status();
  }
}

util::StatusOr<PlatformResult> Platform::Run() {
  if (!init_status_.ok()) return init_status_;
  util::Rng rng(config_.seed);
  PlatformResult result;

  // Optional observability: resolve the handles once, record per round.
  obs::Counter* m_rounds = nullptr;
  obs::Counter* m_assignments = nullptr;
  obs::Counter* m_answers = nullptr;
  obs::Histogram* m_objectives = nullptr;
  if (config_.metrics != nullptr) {
    const obs::Labels labels = {{"solver", config_.solver_name}};
    m_rounds = &config_.metrics->GetCounter("sim.rounds", labels);
    m_assignments =
        &config_.metrics->GetCounter("sim.assignments", labels);
    m_answers = &config_.metrics->GetCounter("sim.answers", labels);
    m_objectives = &config_.metrics->GetHistogram(
        "sim.round_objectives_seconds", labels, 1e-9);
  }

  // --- Set up the campus: sites clustered around the center. ---
  const geo::Point center{0.5, 0.5};
  std::vector<Site> sites;
  sites.reserve(config_.num_sites);
  for (int s = 0; s < config_.num_sites; ++s) {
    Site site;
    double angle = rng.Uniform(0.0, geo::kTwoPi);
    double radius = rng.Uniform(0.2, 1.0) * config_.site_spread;
    site.task.location = {center.x + radius * std::cos(angle),
                          center.y + radius * std::sin(angle)};
    site.task.start = 0.0;
    site.task.end = config_.task_open_time;
    site.task.beta = rng.Uniform(config_.beta_min, config_.beta_max);
    site.required_angle = rng.Uniform(0.0, geo::kTwoPi);
    sites.push_back(site);
  }

  // --- The user pool: free-roaming workers near campus. ---
  std::vector<MobileWorker> workers(config_.num_workers);
  for (MobileWorker& mw : workers) {
    double angle = rng.Uniform(0.0, geo::kTwoPi);
    double radius = rng.Uniform(0.5, 3.0) * config_.site_spread;
    mw.profile.location = {center.x + radius * std::cos(angle),
                           center.y + radius * std::sin(angle)};
    mw.profile.velocity =
        rng.Uniform(config_.worker_speed_min, config_.worker_speed_max);
    mw.profile.direction = geo::AngularInterval::FullCircle();
    mw.profile.confidence = rng.TruncatedGaussian(
        (config_.p_min + config_.p_max) / 2.0, 0.05, config_.p_min,
        config_.p_max);
  }

  // --- The round engine: every site and user is registered once; from
  // then on it hears of each tick's completions. ---
  IncrementalAssigner assigner(solver_.get(), /*eta=*/0.0,
                               core::ArrivalPolicy::kStrict);
  assigner.set_metrics(config_.metrics, config_.solver_name);
  for (core::TaskId i = 0; i < config_.num_sites; ++i) {
    if (util::Status s = assigner.AddTask(i, sites[i].task); !s.ok()) return s;
  }
  for (core::WorkerId j = 0; j < config_.num_workers; ++j) {
    if (util::Status s = assigner.AddWorker(j, workers[j].profile); !s.ok()) {
      return s;
    }
  }

  double accuracy_error_sum = 0.0;
  SiteObjectives objectives(sites.size());
  std::vector<std::vector<core::Observation>> en_route(sites.size());

  // Delivers every traveller due by `until`; returns their completion
  // events (each worker is assignable again from its site).
  auto deliver_arrivals = [&](double until) {
    std::vector<WorkerCompleted> completed;
    for (core::WorkerId j = 0; j < config_.num_workers; ++j) {
      MobileWorker& mw = workers[j];
      if (!mw.traveling || mw.arrival_time > until) continue;
      Site& site = sites[mw.target];
      const geo::Point approach_from = mw.profile.location;
      mw.traveling = false;
      mw.profile.location = site.task.location;
      // The worker succeeds with its confidence; otherwise the task request
      // was rejected / answered wrongly and yields nothing.
      if (rng.Bernoulli(mw.profile.confidence)) {
        Answer answer;
        answer.task = mw.target;
        answer.worker = j;
        // Achieved angle: the approach direction with a little aiming noise.
        answer.angle = geo::NormalizeAngle(
            geo::Bearing(site.task.location, approach_from) +
            rng.Gaussian(0.0, 0.1));
        answer.time = std::clamp(mw.arrival_time, site.task.start,
                                 site.task.end);
        answer.quality = rng.Uniform(0.5, 1.0) * mw.profile.confidence;
        result.answers.push_back(answer);
        ++result.answers_received;

        // Received answers are certain contributions.
        site.contributions.push_back(core::Observation{
            .angle = answer.angle,
            .arrival = answer.time,
            .confidence = 1.0});

        // The paper's per-answer accuracy (Section 8.1):
        // beta * dtheta / pi + (1 - beta) * dt / (e - s).
        double dtheta = std::min(
            geo::CcwDelta(site.required_angle, answer.angle),
            geo::CcwDelta(answer.angle, site.required_angle));
        double required_time = 0.5 * (site.task.start + site.task.end);
        double dt = std::fabs(answer.time - required_time);
        accuracy_error_sum +=
            site.task.beta * dtheta / std::numbers::pi +
            (1.0 - site.task.beta) * dt / site.task.Duration();
      }
      mw.target = core::kNoTask;
      completed.push_back({j, mw.profile.location});
    }
    return completed;
  };

  // --- Incremental updating loop (Figure 10). ---
  for (double t = 0.0; t < config_.horizon; t += config_.t_interval) {
    // Completions go in before the round: a kStrict assignment arrives no
    // later than its task's end, so no task expires with a worker still
    // committed to it.
    EventBatch batch;
    batch.now = t;
    batch.completed = deliver_arrivals(t);
    if (util::Status s = assigner.ApplyEvents(batch); !s.ok()) return s;
    util::StatusOr<std::vector<std::pair<core::TaskId, core::WorkerId>>>
        round = assigner.Update(t);
    if (!round.ok()) return round.status();
    if (assigner.num_open_tasks() == 0 ||
        std::ranges::all_of(workers, &MobileWorker::traveling)) {
      continue;
    }
    if (m_rounds != nullptr) m_rounds->Increment();

    RoundRecord record;
    record.time = t;
    for (const auto& [task, worker] : round.value()) {
      MobileWorker& mw = workers[worker];
      mw.traveling = true;
      mw.target = task;
      mw.arrival_time = core::ArrivalTime(mw.profile, sites[task].task, t,
                                          core::ArrivalPolicy::kStrict);
      ++record.newly_assigned;
      ++result.assignments_made;
      if (m_assignments != nullptr) m_assignments->Increment();
    }

    // Round objectives: realized answers plus en-route workers.
    for (auto& observations : en_route) observations.clear();
    for (core::WorkerId j = 0; j < config_.num_workers; ++j) {
      const MobileWorker& mw = workers[j];
      if (!mw.traveling) continue;
      const core::Task& task = sites[mw.target].task;
      en_route[mw.target].push_back(core::Observation{
          .angle = geo::Bearing(task.location, mw.profile.location),
          .arrival = std::clamp(mw.arrival_time, task.start, task.end),
          .confidence = mw.profile.confidence});
    }
    const auto objectives_start = std::chrono::steady_clock::now();
    record.objectives = objectives.Evaluate(sites, en_route);
    if (m_objectives != nullptr) {
      m_objectives->Observe(util::SecondsSince(objectives_start));
    }
    result.rounds.push_back(record);
  }

  deliver_arrivals(config_.horizon + 10.0);  // flush everyone still en route
  if (m_answers != nullptr) m_answers->Increment(result.answers_received);
  for (auto& observations : en_route) observations.clear();
  result.final_objectives = objectives.Evaluate(sites, en_route);
  result.mean_accuracy_error =
      result.answers_received > 0
          ? accuracy_error_sum / result.answers_received
          : 0.0;
  return result;
}

}  // namespace rdbsc::sim
