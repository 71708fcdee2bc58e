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
#include "index/delta_graph.h"
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

using Pairs = std::vector<std::pair<core::WorkerId, core::TaskId>>;

// ---------------------------------------------------------------------------
// DeltaGraph against the index oracle.

TEST(DeltaGraphTest, RowLifecycleStatuses) {
  index::DeltaGraph delta;
  EXPECT_TRUE(delta.AddRow(3).ok());
  EXPECT_EQ(delta.AddRow(3).code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(delta.RemoveRow(4).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(delta.MarkRowDirty(4).code(), util::StatusCode::kNotFound);
  EXPECT_TRUE(delta.MarkRowDirty(3).ok());
  EXPECT_TRUE(delta.RemoveRow(3).ok());
  EXPECT_EQ(delta.num_rows(), 0);
}

// Random churn -- task arrivals/removals, worker arrivals/departures,
// cross-cell moves and same-cell jitter, clock advances -- with the
// delta-maintained pair list checked against a full retrieval after
// every repair.
TEST(DeltaGraphTest, MatchesFullRetrievalUnderRandomChurn) {
  for (uint64_t seed : {11u, 23u, 42u, 77u, 1234u}) {
    util::Rng rng(seed);
    index::GridIndex index(0.08, /*now=*/0.0,
                           core::ArrivalPolicy::kAllowWait);
    index::DeltaGraph delta;
    std::map<core::TaskId, core::Task> tasks;
    std::map<core::WorkerId, core::Worker> workers;
    core::TaskId next_task = 0;
    core::WorkerId next_worker = 0;
    double now = 0.0;

    for (int round = 0; round < 40; ++round) {
      now += rng.Uniform(0.0, 0.05);
      index.set_now(now);

      // A few random events per round.
      const int events = static_cast<int>(rng.UniformInt(1, 5));
      for (int e = 0; e < events; ++e) {
        switch (rng.UniformInt(0, 5)) {
          case 0: {  // task arrives
            core::Task t = RandomTask(rng, now);
            ASSERT_TRUE(index.InsertTask(next_task, t).ok());
            delta.OnTaskArrived(index, next_task, t);
            tasks.emplace(next_task, t);
            ++next_task;
            break;
          }
          case 1: {  // task expires / completes
            if (tasks.empty()) break;
            auto it = tasks.begin();
            std::advance(it, rng.UniformInt(
                                 0, static_cast<int64_t>(tasks.size()) - 1));
            ASSERT_TRUE(index.RemoveTask(it->first).ok());
            delta.OnTaskRemoved(index, it->first);
            tasks.erase(it);
            break;
          }
          case 2: {  // worker arrives
            core::Worker w = RandomWorker(rng);
            ASSERT_TRUE(index.InsertWorker(next_worker, w).ok());
            ASSERT_TRUE(delta.AddRow(next_worker).ok());
            workers.emplace(next_worker, w);
            ++next_worker;
            break;
          }
          case 3: {  // worker leaves
            if (workers.empty()) break;
            auto it = workers.begin();
            std::advance(it,
                         rng.UniformInt(
                             0, static_cast<int64_t>(workers.size()) - 1));
            ASSERT_TRUE(index.RemoveWorker(it->first).ok());
            ASSERT_TRUE(delta.RemoveRow(it->first).ok());
            workers.erase(it);
            break;
          }
          case 4: {  // cross-cell move (anywhere on the map)
            if (workers.empty()) break;
            auto it = workers.begin();
            std::advance(it,
                         rng.UniformInt(
                             0, static_cast<int64_t>(workers.size()) - 1));
            geo::Point to{rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
            ASSERT_TRUE(index.MoveWorker(it->first, to).ok());
            ASSERT_TRUE(delta.MarkRowDirty(it->first).ok());
            it->second.location = to;
            break;
          }
          default: {  // same-cell jitter (tiny nudge, summaries untouched)
            if (workers.empty()) break;
            auto it = workers.begin();
            std::advance(it,
                         rng.UniformInt(
                             0, static_cast<int64_t>(workers.size()) - 1));
            geo::Point to = it->second.location;
            to.x += rng.Uniform(-1e-4, 1e-4);
            to.y += rng.Uniform(-1e-4, 1e-4);
            ASSERT_TRUE(index.MoveWorker(it->first, to).ok());
            ASSERT_TRUE(delta.MarkRowDirty(it->first).ok());
            it->second.location = to;
            break;
          }
        }
      }

      ASSERT_TRUE(delta.RepairRows(index).ok());
      const Pairs maintained = delta.Pairs();
      const Pairs rebuilt = index.RetrievePairs().value();
      ASSERT_EQ(maintained, rebuilt)
          << "seed " << seed << " round " << round;
    }
    // The whole point: quiet rows are served from their horizon.
    EXPECT_GT(delta.stats().rows_reused, 0) << "seed " << seed;
  }
}

// Exactly at the compaction threshold the patch lists are kept; one past
// it they fold into the base row -- with identical materialized pairs on
// both sides of the boundary.
TEST(DeltaGraphTest, CompactionThresholdBoundary) {
  constexpr int kThreshold = 4;
  index::GridIndex index(0.2, /*now=*/0.0, core::ArrivalPolicy::kAllowWait);
  index::DeltaGraph delta(kThreshold);
  core::Worker w;
  w.location = {0.5, 0.5};
  w.velocity = 2.0;
  ASSERT_TRUE(index.InsertWorker(9, w).ok());
  ASSERT_TRUE(delta.AddRow(9).ok());
  ASSERT_TRUE(delta.RepairRows(index).ok());  // row now clean and empty

  core::Task t;
  t.location = {0.52, 0.5};
  t.start = 0.0;
  t.end = 100.0;
  for (core::TaskId i = 0; i < kThreshold; ++i) {
    ASSERT_TRUE(index.InsertTask(i, t).ok());
    delta.OnTaskArrived(index, i, t);
  }
  EXPECT_EQ(delta.stats().compactions, 0) << "at threshold: no compaction";
  EXPECT_EQ(delta.Pairs(), index.RetrievePairs().value());

  ASSERT_TRUE(index.InsertTask(kThreshold, t).ok());
  delta.OnTaskArrived(index, kThreshold, t);
  EXPECT_EQ(delta.stats().compactions, 1) << "one past threshold: compacted";
  EXPECT_EQ(delta.Pairs(), index.RetrievePairs().value());
  EXPECT_EQ(delta.Pairs().size(), static_cast<size_t>(kThreshold) + 1);
}

// Rounds with no events and an un-expired stability horizon recompute
// nothing at all.
TEST(DeltaGraphTest, QuietRoundsReuseEveryRow) {
  index::GridIndex index(0.2, /*now=*/0.0, core::ArrivalPolicy::kAllowWait);
  index::DeltaGraph delta;
  core::Task t;
  t.location = {0.5, 0.5};
  t.start = 0.0;
  t.end = 1000.0;
  ASSERT_TRUE(index.InsertTask(0, t).ok());
  for (core::WorkerId j = 0; j < 8; ++j) {
    core::Worker w;
    w.location = {0.4 + 0.01 * j, 0.5};
    w.velocity = 5.0;
    ASSERT_TRUE(index.InsertWorker(j, w).ok());
    ASSERT_TRUE(delta.AddRow(j).ok());
  }
  ASSERT_TRUE(delta.RepairRows(index).ok());
  const int64_t computed = delta.stats().rows_recomputed;
  EXPECT_EQ(computed, 8);

  index.set_now(0.001);  // far inside every pair's stability window
  ASSERT_TRUE(delta.RepairRows(index).ok());
  EXPECT_EQ(delta.stats().rows_recomputed, computed);
  EXPECT_EQ(delta.stats().rows_reused, 8);
  EXPECT_EQ(delta.Pairs(), index.RetrievePairs().value());
}

// Full-churn rounds on instances at/above bulk_min_rows are served by one
// vectorized bulk retrieval; small-delta rounds at the same clock still
// take the per-row path. Both produce the exact RetrievePairs edge set.
TEST(DeltaGraphTest, FullChurnRoundsUseBulkRefill) {
  util::Rng rng(7);
  index::GridIndex index(0.1, /*now=*/0.0, core::ArrivalPolicy::kAllowWait);
  index::DeltaGraph delta(index::DeltaGraph::kDefaultCompactionThreshold,
                          /*bulk_min_rows=*/4);
  std::vector<core::Task> tasks;
  for (core::TaskId i = 0; i < 10; ++i) {
    tasks.push_back(RandomTask(rng, 0.0));
    ASSERT_TRUE(index.InsertTask(i, tasks.back()).ok());
  }
  std::vector<geo::Point> homes;
  for (core::WorkerId j = 0; j < 12; ++j) {
    core::Worker w = RandomWorker(rng);
    homes.push_back(w.location);
    ASSERT_TRUE(index.InsertWorker(j, w).ok());
    ASSERT_TRUE(delta.AddRow(j).ok());
  }

  // Every row is born dirty, so the very first repair is a bulk round.
  ASSERT_TRUE(delta.RepairRows(index).ok());
  EXPECT_EQ(delta.stats().bulk_refills, 1);
  EXPECT_EQ(delta.stats().rows_recomputed, 12);
  EXPECT_EQ(delta.Pairs(), index.RetrievePairs().value());

  // One dirty row out of twelve at an unchanged clock: below the
  // half-due crossover, so the per-row path repairs it.
  geo::Point moved = homes[5];
  moved.x += 0.2;
  ASSERT_TRUE(index.MoveWorker(5, moved).ok());
  ASSERT_TRUE(delta.MarkRowDirty(5).ok());
  ASSERT_TRUE(delta.RepairRows(index).ok());
  EXPECT_EQ(delta.stats().bulk_refills, 1);
  EXPECT_EQ(delta.stats().rows_recomputed, 13);
  EXPECT_EQ(delta.stats().rows_reused, 11);
  EXPECT_EQ(delta.Pairs(), index.RetrievePairs().value());

  // Bulk rows carry no stability lookahead, so a clock advance makes
  // every bulk-refilled row due again: another bulk round.
  index.set_now(0.01);
  ASSERT_TRUE(delta.RepairRows(index).ok());
  EXPECT_EQ(delta.stats().bulk_refills, 2);
  const Pairs refilled = delta.Pairs();
  EXPECT_EQ(refilled, index.RetrievePairs().value());

  // Once the clock moves every bulk row is due, so task patches skip them
  // (RepairRows recomputes them whole): removing a task some row holds
  // and adding a copy of it that is valid for that worker repair nothing.
  ASSERT_FALSE(refilled.empty());
  const auto [held_by, held] = refilled.front();
  index.set_now(0.015);
  const int64_t repaired = delta.stats().edges_repaired;
  ASSERT_TRUE(index.RemoveTask(held).ok());
  delta.OnTaskRemoved(index, held);
  ASSERT_TRUE(index.InsertTask(10, tasks[static_cast<size_t>(held)]).ok());
  delta.OnTaskArrived(index, 10, tasks[static_cast<size_t>(held)]);
  EXPECT_EQ(delta.stats().edges_repaired, repaired);
  ASSERT_TRUE(delta.RepairRows(index).ok());
  EXPECT_EQ(delta.stats().bulk_refills, 3);
  const Pairs repaired_pairs = delta.Pairs();
  EXPECT_EQ(repaired_pairs, index.RetrievePairs().value());
  const std::pair<core::WorkerId, core::TaskId> copy{held_by, 10};
  EXPECT_TRUE(std::binary_search(repaired_pairs.begin(),
                                 repaired_pairs.end(), copy));

  // A tracked worker missing from the index surfaces as NotFound from
  // the bulk path, exactly like the per-row path would report it.
  ASSERT_TRUE(index.RemoveWorker(7).ok());
  index.set_now(0.02);
  EXPECT_EQ(delta.RepairRows(index).code(), util::StatusCode::kNotFound);
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
