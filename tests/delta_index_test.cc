// Property suite of the streaming round engine: randomized event
// sequences (moves, task arrivals and expirations, interleaved
// completions) asserting its contract -- each round's candidate graph and
// edge count equal Engine::BuildGraph of the same snapshot, and its
// commitments equal a from-scratch round's.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "engine/engine.h"
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

core::Worker RandomWorker(util::Rng& rng, double speed_scale = 1.0) {
  core::Worker w;
  w.location = {rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
  w.velocity = rng.Uniform(0.4, 1.5) * speed_scale;
  w.confidence = rng.Uniform(0.8, 0.99);
  if (rng.Bernoulli(0.3)) {
    w.direction = geo::AngularInterval::FromWidth(
        rng.Uniform(0.0, geo::kTwoPi), rng.Uniform(2.0, geo::kTwoPi));
  }
  return w;
}

// ---------------------------------------------------------------------------
// End-to-end: randomized event scripts through the assigner build, every
// round, the graph Engine::BuildGraph builds from the same snapshot, and
// commit exactly what a from-scratch round commits -- an id-sorted
// snapshot of the script's own copy of the world, a full
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

  /// The round's snapshot: open tasks and available workers in id order,
  /// or nothing when either side is empty.
  std::optional<core::Instance> Snapshot(
      double now, std::vector<core::TaskId>* task_ids = nullptr,
      std::vector<core::WorkerId>* worker_ids = nullptr) const {
    std::vector<core::Task> open;
    for (const auto& [id, task] : tasks) {
      if (task_ids != nullptr) task_ids->push_back(id);
      open.push_back(task);
    }
    std::vector<core::Worker> available;
    for (const auto& [id, worker] : workers) {
      if (busy.contains(id)) continue;
      if (worker_ids != nullptr) worker_ids->push_back(id);
      available.push_back(worker);
    }
    if (open.empty() || available.empty()) return std::nullopt;
    return core::Instance(std::move(open), std::move(available), now,
                          core::ArrivalPolicy::kAllowWait);
  }

  /// The round computed from scratch, in global ids and ascending worker
  /// order (the assigner's commit order).
  Commits ReferenceRound(double now, const std::string& solver_name) const {
    std::vector<core::TaskId> task_ids;
    std::vector<core::WorkerId> worker_ids;
    const std::optional<core::Instance> snapshot =
        Snapshot(now, &task_ids, &worker_ids);
    if (!snapshot.has_value()) return {};
    const core::CandidateGraph graph = core::CandidateGraph::Build(*snapshot);
    auto solver = core::SolverRegistry::Global().Create(solver_name).value();
    const core::SolveResult solve = solver->Solve(*snapshot, graph).value();
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

/// Rows of a candidate graph, one sorted task list per worker.
using Rows = std::vector<std::vector<core::TaskId>>;

Rows RowsOf(const core::CandidateGraph& graph, int num_workers) {
  Rows rows(static_cast<size_t>(num_workers));
  for (core::WorkerId j = 0; j < num_workers; ++j) {
    const auto tasks = graph.TasksOf(j);
    rows[static_cast<size_t>(j)].assign(tasks.begin(), tasks.end());
  }
  return rows;
}

/// GREEDY that keeps the rows of the last graph it was asked to solve on.
class RecordingSolver : public core::Solver {
 public:
  RecordingSolver()
      : greedy_(core::SolverRegistry::Global().Create("greedy").value()) {}
  std::string_view name() const override { return "RECORDING-GREEDY"; }

  /// Rows of the last solve's graph, cleared by each read.
  std::optional<Rows> TakeRows() { return std::exchange(rows_, std::nullopt); }

 protected:
  util::StatusOr<core::SolveResult> SolveImpl(
      const core::Instance& instance, const core::CandidateGraph& graph,
      const util::Deadline& deadline, util::Executor& executor,
      core::SolveStats* partial_stats) override {
    rows_ = RowsOf(graph, instance.num_workers());
    core::SolveRequest request;
    request.instance = &instance;
    request.graph = &graph;
    request.deadline = &deadline;
    request.executor = &executor;
    request.partial_stats = partial_stats;
    return greedy_->Solve(request);
  }

 private:
  std::unique_ptr<core::Solver> greedy_;
  std::optional<Rows> rows_;
};

/// Drives one seeded event script through the assigner, checking every
/// round's graph against Engine::BuildGraph of the same snapshot and its
/// commitments against the from-scratch reference. `speed_scale` scales
/// worker speeds: slow workers reach few tasks, so rounds keep more
/// workers available and see sparser graphs.
void RunEventScript(uint64_t seed, double speed_scale) {
  RecordingSolver solver;
  sim::IncrementalAssigner assigner(&solver);
  const Engine engine = Engine::Create("greedy").value();

  util::Rng rng(seed);
  WorldMirror world;
  for (core::WorkerId j = 0; j < 12; ++j) {
    const core::Worker worker = RandomWorker(rng, speed_scale);
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
    const std::optional<core::Instance> snapshot = world.Snapshot(now);
    const index::DeltaStats before = assigner.delta_stats();
    auto committed = assigner.Update(now);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    EXPECT_EQ(committed.value(), want) << "seed " << seed << " round " << round;
    world.Commit(committed.value());

    const std::optional<Rows> rows = solver.TakeRows();
    ASSERT_EQ(rows.has_value(), snapshot.has_value()) << "round " << round;
    if (!snapshot.has_value()) continue;
    GraphPlan plan;
    const core::CandidateGraph reference =
        engine.BuildGraph(*snapshot, &plan).value();
    EXPECT_EQ(*rows, RowsOf(reference, snapshot->num_workers()))
        << "seed " << seed << " round " << round;
    EXPECT_EQ((assigner.delta_stats() - before).edges_repaired, plan.edges)
        << "seed " << seed << " round " << round;
  }
}

TEST(DeltaIndexPropertyTest, DeltaEqualsRebuildOverEventScripts) {
  for (uint64_t seed : {11u, 23u, 42u}) {
    RunEventScript(seed, /*speed_scale=*/1.0);
    RunEventScript(seed, /*speed_scale=*/0.03);
  }
}

// Every round that builds a graph builds it once, as the engine would from
// the round snapshot, and its counters say exactly that: the DeltaStats
// and sim.delta.* counters of that one build.
TEST(DeltaIndexPropertyTest, EachRoundIsOneFullRetrieval) {
  obs::Registry registry;
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  sim::IncrementalAssigner assigner(solver.get());
  assigner.set_metrics(&registry, "greedy");
  util::Rng rng(5);
  constexpr int kWorkers = 12;
  std::vector<core::Worker> workers;
  for (core::WorkerId j = 0; j < kWorkers; ++j) {
    workers.push_back(RandomWorker(rng));
    // Worker 3 moves next to task 0 below, so the round has an edge.
    if (j == 3) workers.back().direction = geo::AngularInterval::FullCircle();
    ASSERT_TRUE(assigner.AddWorker(j, workers.back()).ok());
  }
  // A round with nothing to assign builds no graph.
  ASSERT_TRUE(assigner.Update(0.0).ok());
  EXPECT_EQ(assigner.delta_stats().bulk_refills, 0);

  sim::EventBatch batch;
  batch.now = 0.1;
  std::vector<core::Task> tasks;
  for (core::TaskId i = 0; i < 40; ++i) {
    tasks.push_back(RandomTask(rng, batch.now));
    if (i == 0) tasks.back().location = {0.502, 0.5};
    batch.arrived.push_back({i, tasks.back()});
  }
  batch.moved.push_back({3, {0.5, 0.5}});
  workers[3].location = {0.5, 0.5};
  ASSERT_TRUE(assigner.ApplyEvents(batch).ok());

  const core::Instance snapshot(tasks, workers, batch.now,
                                core::ArrivalPolicy::kAllowWait);
  const int64_t edges = core::CandidateGraph::Build(snapshot).NumEdges();
  ASSERT_GT(edges, 0);

  const index::DeltaStats before = assigner.delta_stats();
  ASSERT_TRUE(assigner.Update(batch.now).ok());
  const index::DeltaStats round = assigner.delta_stats() - before;
  EXPECT_EQ(round.bulk_refills, 1);
  EXPECT_EQ(round.rows_recomputed, kWorkers);
  EXPECT_EQ(round.edges_repaired, edges);
  EXPECT_EQ(round.cells_touched, 0);
  EXPECT_EQ(round.rows_reused, 0);

  EXPECT_EQ(registry.GetCounter("sim.delta.bulk_refills").value(), 1);
  EXPECT_EQ(registry.GetCounter("sim.delta.edges_repaired").value(), edges);
  EXPECT_EQ(registry.GetCounter("sim.delta.rows_recomputed").value(),
            kWorkers);
  for (const obs::MetricSnapshot& metric : registry.Snapshot().metrics) {
    EXPECT_NE(metric.name, "sim.delta.rows_reused");
    EXPECT_NE(metric.name, "sim.delta.cells_touched");
    EXPECT_NE(metric.name, "sim.delta.tcell_rebuilds");
    EXPECT_NE(metric.name, "sim.delta.tcell_patches");
    EXPECT_NE(metric.name, "sim.round_graph");
  }
}

// Two producers that collected the same logical events in different
// orders converge to identical rounds: the batch order is canonical.
TEST(DeltaIndexPropertyTest, EventBatchOrderIsCanonical) {
  auto run = [](bool reversed) {
    auto solver = core::SolverRegistry::Global().Create("greedy").value();
    sim::IncrementalAssigner assigner(solver.get());
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
  // Every round takes the one build path: nothing counts paths or grid
  // cells.
  for (const obs::MetricSnapshot& metric : registry.Snapshot().metrics) {
    EXPECT_NE(metric.name, "sim.round_graph");
    EXPECT_NE(metric.name, "sim.delta.cells_touched");
    EXPECT_NE(metric.name, "sim.delta.tcell_rebuilds");
    EXPECT_NE(metric.name, "sim.delta.tcell_patches");
  }
}

TEST(StreamingSessionTest, UnknownSolverSurfacesNotFound) {
  EngineConfig config;
  config.solver_name = "no-such-solver";
  EXPECT_EQ(sim::StreamingSession::Create(config).status().code(),
            util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace rdbsc
