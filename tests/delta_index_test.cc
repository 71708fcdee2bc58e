// Property suite of the streaming delta engine: randomized event
// sequences (cross-cell moves, same-cell jitter, task arrivals and
// expirations, interleaved completions) asserting its contract -- the
// delta-maintained state is bit-identical to a from-scratch rebuild: grid
// cell summaries, the candidate edge set, and the per-round commitments.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "gtest/gtest.h"
#include "index/grid_index.h"
#include "obs/registry.h"
#include "sim/events.h"
#include "sim/incremental.h"
#include "sim/streaming.h"
#include "util/rng.h"

namespace rdbsc {
namespace {

core::Task RandomTask(util::Rng& rng, double now) {
  core::Task t;
  t.location = {rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
  t.start = now;
  t.end = now + rng.Uniform(0.2, 1.2);
  t.beta = rng.Uniform(0.4, 0.6);
  return t;
}

core::Worker RandomWorker(util::Rng& rng) {
  core::Worker w;
  w.location = {rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
  w.velocity = rng.Uniform(0.4, 1.5);
  w.confidence = rng.Uniform(0.8, 0.99);
  if (rng.Bernoulli(0.3)) {
    w.direction = geo::AngularInterval::FromWidth(
        rng.Uniform(0.0, geo::kTwoPi), rng.Uniform(2.0, geo::kTwoPi));
  }
  return w;
}

// ---------------------------------------------------------------------------
// GridIndex canonical-cell-state contract: an index mutated by an
// arbitrary event history is bit-identical -- per-cell membership,
// summaries, and retrieved pairs -- to a fresh index built from the
// final member sets alone.

TEST(DeltaIndexPropertyTest, MutatedIndexMatchesFreshIndexBitIdentically) {
  for (uint64_t seed : {5u, 17u, 99u}) {
    util::Rng rng(seed);
    const double eta = 0.1;
    index::GridIndex evolved(eta, 0.0, core::ArrivalPolicy::kStrict);
    std::map<core::TaskId, core::Task> tasks;
    std::map<core::WorkerId, core::Worker> workers;
    double now = 0.0;

    for (int step = 0; step < 120; ++step) {
      now += rng.Uniform(0.0, 0.01);
      evolved.set_now(now);
      switch (rng.UniformInt(0, 4)) {
        case 0: {
          core::Task t = RandomTask(rng, now);
          core::TaskId id = static_cast<core::TaskId>(step);
          ASSERT_TRUE(evolved.InsertTask(id, t).ok());
          tasks.emplace(id, t);
          break;
        }
        case 1: {
          if (tasks.empty()) break;
          auto it = tasks.begin();
          std::advance(it, rng.UniformInt(
                               0, static_cast<int64_t>(tasks.size()) - 1));
          ASSERT_TRUE(evolved.RemoveTask(it->first).ok());
          tasks.erase(it);
          break;
        }
        case 2: {
          core::Worker w = RandomWorker(rng);
          core::WorkerId id = static_cast<core::WorkerId>(step);
          ASSERT_TRUE(evolved.InsertWorker(id, w).ok());
          workers.emplace(id, w);
          break;
        }
        case 3: {
          if (workers.empty()) break;
          auto it = workers.begin();
          std::advance(it, rng.UniformInt(
                               0, static_cast<int64_t>(workers.size()) - 1));
          ASSERT_TRUE(evolved.RemoveWorker(it->first).ok());
          workers.erase(it);
          break;
        }
        default: {
          if (workers.empty()) break;
          auto it = workers.begin();
          std::advance(it, rng.UniformInt(
                               0, static_cast<int64_t>(workers.size()) - 1));
          geo::Point to{rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
          ASSERT_TRUE(evolved.MoveWorker(it->first, to).ok());
          it->second.location = to;
          break;
        }
      }
    }

    index::GridIndex fresh(eta, now, core::ArrivalPolicy::kStrict);
    for (const auto& [id, t] : tasks) ASSERT_TRUE(fresh.InsertTask(id, t).ok());
    for (const auto& [id, w] : workers) {
      ASSERT_TRUE(fresh.InsertWorker(id, w).ok());
    }

    ASSERT_EQ(evolved.num_cells(), fresh.num_cells());
    for (int cell = 0; cell < evolved.num_cells(); ++cell) {
      ASSERT_EQ(evolved.DebugCellState(cell), fresh.DebugCellState(cell))
          << "seed " << seed << " cell " << cell;
    }
    EXPECT_EQ(evolved.RetrievePairs().value(), fresh.RetrievePairs().value())
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: randomized event scripts through the delta-maintained
// assigner commit, every round, exactly what a from-scratch round commits
// -- an id-sorted snapshot of the script's own copy of the world, a full
// CandidateGraph::Build, and a fresh registry solver.

using Commits = std::vector<std::pair<core::TaskId, core::WorkerId>>;

/// A script's own copy of the world an assigner maintains, kept in step by
/// applying the same events and commitments.
struct WorldMirror {
  std::map<core::TaskId, core::Task> tasks;        ///< open tasks
  std::map<core::WorkerId, core::Worker> workers;  ///< all, at their positions
  std::map<core::WorkerId, core::TaskId> busy;     ///< committed workers

  /// A task leaves; its pending commitments are voided.
  void Expire(core::TaskId id) {
    tasks.erase(id);
    std::erase_if(busy, [id](const auto& entry) { return entry.second == id; });
  }

  /// What Update(now) does first: drop the tasks whose window has closed.
  void ExpireBefore(double now) {
    std::vector<core::TaskId> closed;
    for (const auto& [id, task] : tasks) {
      if (task.end < now) closed.push_back(id);
    }
    for (core::TaskId id : closed) Expire(id);
  }

  void Commit(const Commits& committed) {
    for (const auto& [task, worker] : committed) busy[worker] = task;
  }

  /// The round computed from scratch, in global ids and ascending worker
  /// order (the assigner's commit order).
  Commits ReferenceRound(double now, const std::string& solver_name) const {
    std::vector<core::TaskId> task_ids;
    std::vector<core::Task> open;
    for (const auto& [id, task] : tasks) {
      task_ids.push_back(id);
      open.push_back(task);
    }
    std::vector<core::WorkerId> worker_ids;
    std::vector<core::Worker> available;
    for (const auto& [id, worker] : workers) {
      if (busy.contains(id)) continue;
      worker_ids.push_back(id);
      available.push_back(worker);
    }
    if (open.empty() || available.empty()) return {};
    const core::Instance snapshot(std::move(open), std::move(available), now,
                                  core::ArrivalPolicy::kAllowWait);
    const core::CandidateGraph graph = core::CandidateGraph::Build(snapshot);
    auto solver = core::SolverRegistry::Global().Create(solver_name).value();
    const core::SolveResult solve = solver->Solve(snapshot, graph).value();
    Commits committed;
    for (size_t local = 0; local < worker_ids.size(); ++local) {
      const core::TaskId task =
          solve.assignment.TaskOf(static_cast<core::WorkerId>(local));
      if (task != core::kNoTask) {
        committed.emplace_back(task_ids[static_cast<size_t>(task)],
                               worker_ids[local]);
      }
    }
    return committed;
  }
};

/// Drives one seeded event script through the assigner, checking every
/// round against the from-scratch reference.
void RunEventScript(uint64_t seed) {
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  sim::IncrementalAssigner assigner(solver.get(), 0.08);

  util::Rng rng(seed);
  WorldMirror world;
  for (core::WorkerId j = 0; j < 12; ++j) {
    const core::Worker worker = RandomWorker(rng);
    ASSERT_TRUE(assigner.AddWorker(j, worker).ok());
    world.workers.emplace(j, worker);
  }

  core::TaskId next_task = 0;
  double now = 0.0;
  for (int round = 0; round < 30; ++round) {
    now += rng.Uniform(0.01, 0.08);
    sim::EventBatch batch;
    batch.now = now;

    // Expire a random still-live task now and then (interleaving with
    // the automatic end-of-window expiry inside Update).
    if (!world.tasks.empty() && rng.Bernoulli(0.25)) {
      auto it = world.tasks.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(world.tasks.size()) - 1));
      batch.expired.push_back({it->first});
      world.Expire(it->first);
    }
    // Complete some busy workers at fresh positions.
    const std::map<core::WorkerId, core::TaskId> busy = world.busy;
    for (const auto& [w, task] : busy) {
      if (!rng.Bernoulli(0.4)) continue;
      geo::Point pos{rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
      batch.completed.push_back({w, pos});
      world.workers[w].location = pos;
      world.busy.erase(w);
    }
    // New tasks.
    const int arrivals = static_cast<int>(rng.UniformInt(0, 2));
    for (int a = 0; a < arrivals; ++a) {
      core::Task t = RandomTask(rng, now);
      batch.arrived.push_back({next_task, t});
      world.tasks.emplace(next_task, t);
      ++next_task;
    }
    // Move some free workers: occasionally a big cross-cell jump,
    // otherwise a same-cell jitter.
    for (auto& [w, worker] : world.workers) {
      if (world.busy.contains(w) || !rng.Bernoulli(0.3)) continue;
      geo::Point to{rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
      batch.moved.push_back({w, to});
      worker.location = to;
    }

    util::Status applied = assigner.ApplyEvents(batch);
    ASSERT_TRUE(applied.ok()) << applied.message();
    world.ExpireBefore(now);
    const Commits want = world.ReferenceRound(now, "greedy");
    auto committed = assigner.Update(now);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    EXPECT_EQ(committed.value(), want) << "seed " << seed << " round " << round;
    world.Commit(committed.value());
  }
}

TEST(DeltaIndexPropertyTest, DeltaEqualsRebuildOverEventScripts) {
  for (uint64_t seed : {11u, 23u, 42u}) RunEventScript(seed);
}

// Every round that builds a graph takes its edges from one full index
// retrieval, on small streams too, and its counters say exactly that.
TEST(DeltaIndexPropertyTest, EachRoundIsOneFullRetrieval) {
  obs::Registry registry;
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  sim::IncrementalAssigner assigner(solver.get(), 0.08);
  assigner.set_metrics(&registry, "greedy");
  util::Rng rng(5);
  constexpr int kWorkers = 12;
  for (core::WorkerId j = 0; j < kWorkers; ++j) {
    ASSERT_TRUE(assigner.AddWorker(j, RandomWorker(rng)).ok());
  }
  sim::EventBatch batch;
  batch.now = 0.1;
  for (core::TaskId i = 0; i < 6; ++i) {
    batch.arrived.push_back({i, RandomTask(rng, batch.now)});
  }
  batch.moved.push_back({3, {0.5, 0.5}});
  ASSERT_TRUE(assigner.ApplyEvents(batch).ok());

  index::RetrievalStats rstats;
  const size_t pairs = assigner.index().RetrievePairs(&rstats).value().size();
  ASSERT_GT(pairs, 0u);
  const index::DeltaStats before = assigner.delta_stats();
  ASSERT_TRUE(assigner.Update(batch.now).ok());
  const index::DeltaStats round = assigner.delta_stats() - before;
  EXPECT_EQ(round.bulk_refills, 1);
  EXPECT_EQ(round.rows_recomputed, kWorkers);
  EXPECT_EQ(round.edges_repaired, static_cast<int64_t>(pairs));
  EXPECT_EQ(round.cells_touched,
            rstats.cell_pairs_examined - rstats.cell_pairs_pruned);
  EXPECT_EQ(round.rows_reused, 0);

  EXPECT_EQ(registry.GetCounter("sim.delta.bulk_refills").value(), 1);
  for (const obs::MetricSnapshot& metric : registry.Snapshot().metrics) {
    EXPECT_NE(metric.name, "sim.delta.rows_reused");
    EXPECT_NE(metric.name, "sim.delta.compactions");
  }
}

// Two producers that collected the same logical events in different
// orders converge to identical rounds: the batch order is canonical.
TEST(DeltaIndexPropertyTest, EventBatchOrderIsCanonical) {
  auto run = [](bool reversed) {
    auto solver = core::SolverRegistry::Global().Create("greedy").value();
    sim::IncrementalAssigner assigner(solver.get(), 0.1);
    for (core::WorkerId j = 0; j < 4; ++j) {
      core::Worker w;
      w.location = {0.4 + 0.02 * j, 0.5};
      w.velocity = 1.0;
      w.confidence = 0.9;
      EXPECT_TRUE(assigner.AddWorker(j, w).ok());
    }
    sim::EventBatch batch;
    batch.now = 0.0;
    for (core::TaskId i = 0; i < 5; ++i) {
      core::Task t;
      t.location = {0.45 + 0.01 * i, 0.52};
      t.start = 0.0;
      t.end = 2.0;
      batch.arrived.push_back({i, t});
    }
    batch.moved.push_back({1, {0.46, 0.5}});
    batch.moved.push_back({3, {0.44, 0.5}});
    if (reversed) {
      std::reverse(batch.arrived.begin(), batch.arrived.end());
      std::reverse(batch.moved.begin(), batch.moved.end());
    }
    EXPECT_TRUE(assigner.ApplyEvents(batch).ok());
    return assigner.Update(0.0).value();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// StreamingSession facade: rounds match the from-scratch reference.

TEST(StreamingSessionTest, RoundsMatchRebuildMode) {
  EngineConfig config;
  config.solver_name = "greedy";
  config.eta = 0.1;
  auto session = sim::StreamingSession::Create(config).value();
  util::Rng rng(7);
  WorldMirror world;
  for (core::WorkerId j = 0; j < 6; ++j) {
    const core::Worker worker = RandomWorker(rng);
    ASSERT_TRUE(session->assigner().AddWorker(j, worker).ok());
    world.workers.emplace(j, worker);
  }
  int total = 0;
  for (int round = 0; round < 6; ++round) {
    sim::EventBatch batch;
    batch.now = 0.05 * round;
    for (int a = 0; a < 2; ++a) {
      const core::TaskId id = static_cast<core::TaskId>(2 * round + a);
      const core::Task task = RandomTask(rng, batch.now);
      batch.arrived.push_back({id, task});
      world.tasks.emplace(id, task);
    }
    world.ExpireBefore(batch.now);
    const Commits want = world.ReferenceRound(batch.now, "greedy");
    const Commits committed = session->Round(batch).value();
    EXPECT_EQ(committed, want) << "round " << round;
    world.Commit(committed);
    total += static_cast<int>(committed.size());
  }
  EXPECT_GT(total, 0);
}

TEST(StreamingSessionTest, EngineMetricsRecordRoundTimers) {
  obs::Registry registry;
  EngineConfig config;
  config.solver_name = "greedy";
  config.metrics = &registry;
  auto session = sim::StreamingSession::Create(config).value();
  core::Worker worker;
  worker.location = {0.45, 0.5};
  worker.velocity = 0.5;
  worker.confidence = 0.9;
  ASSERT_TRUE(session->assigner().AddWorker(7, worker).ok());
  sim::EventBatch batch;
  core::Task task;
  task.location = {0.5, 0.5};
  task.end = 2.0;
  batch.arrived.push_back({1, task});
  ASSERT_EQ(session->Round(batch).value().size(), 1u);

  const obs::Labels labels = {{"solver", "greedy"}};
  for (const char* name :
       {"sim.round_build_seconds", "sim.round_solve_seconds"}) {
    EXPECT_EQ(registry.GetHistogram(name, labels, 1e-9).Snapshot().count(), 1)
        << name;
  }
  // The worker's cell built its tcell_list once; the task arrived before
  // any list existed, so nothing was patched.
  EXPECT_EQ(registry.GetCounter("sim.delta.tcell_rebuilds").value(), 1);
  EXPECT_EQ(registry.GetCounter("sim.delta.tcell_patches").value(), 0);
}

TEST(StreamingSessionTest, UnknownSolverSurfacesNotFound) {
  EngineConfig config;
  config.solver_name = "no-such-solver";
  EXPECT_EQ(sim::StreamingSession::Create(config).status().code(),
            util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace rdbsc
