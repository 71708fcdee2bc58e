#include "sim/incremental.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/diversity.h"
#include "core/instance.h"
#include "core/model.h"
#include "core/registry.h"
#include "gtest/gtest.h"
#include "obs/registry.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rdbsc::sim {
namespace {

core::Task OpenTask(geo::Point loc, double start, double end,
                    double beta = 0.5) {
  core::Task t;
  t.location = loc;
  t.start = start;
  t.end = end;
  t.beta = beta;
  return t;
}

core::Worker FreeWorker(geo::Point loc, double v = 0.5, double p = 0.9) {
  core::Worker w;
  w.location = loc;
  w.velocity = v;
  w.confidence = p;
  return w;
}

TEST(IncrementalAssignerTest, RegistrationStatuses) {
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner assigner(solver.get());
  EXPECT_TRUE(assigner.AddTask(1, OpenTask({0.5, 0.5}, 0, 2)).ok());
  EXPECT_EQ(assigner.AddTask(1, OpenTask({0.5, 0.5}, 0, 2)).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_TRUE(assigner.AddWorker(7, FreeWorker({0.4, 0.5})).ok());
  EXPECT_EQ(assigner.AddWorker(7, FreeWorker({0.4, 0.5})).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(assigner.RemoveTask(99).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(assigner.RemoveWorker(99).code(), util::StatusCode::kNotFound);
  // -1 is kNoTask: a worker committed to it would read as available.
  EXPECT_EQ(assigner.AddTask(core::kNoTask, OpenTask({0.5, 0.5}, 0, 2)).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(assigner.AddTask(-2, OpenTask({0.5, 0.5}, 0, 2)).ok());
  EXPECT_TRUE(assigner.RemoveTask(-2).ok());
  EXPECT_EQ(assigner.num_open_tasks(), 1);
  EXPECT_EQ(assigner.num_workers(), 1);
}

TEST(IncrementalAssignerTest, AssignsAvailableWorkerToOpenTask) {
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner assigner(solver.get());
  ASSERT_TRUE(assigner.AddTask(1, OpenTask({0.5, 0.5}, 0, 2)).ok());
  ASSERT_TRUE(assigner.AddWorker(7, FreeWorker({0.45, 0.5})).ok());
  auto committed = assigner.Update(0.0).value();
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].first, 1);
  EXPECT_EQ(committed[0].second, 7);
  EXPECT_EQ(assigner.CommittedTask(7), 1);
  // A second round does not reassign the busy worker.
  EXPECT_TRUE(assigner.Update(0.1).value().empty());
}

TEST(IncrementalAssignerTest, CompletedWorkerIsReassignable) {
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner assigner(solver.get());
  ASSERT_TRUE(assigner.AddTask(1, OpenTask({0.3, 0.5}, 0, 3)).ok());
  ASSERT_TRUE(assigner.AddTask(2, OpenTask({0.7, 0.5}, 0, 3)).ok());
  ASSERT_TRUE(assigner.AddWorker(7, FreeWorker({0.3, 0.45})).ok());
  auto first = assigner.Update(0.0).value();
  ASSERT_EQ(first.size(), 1u);
  core::TaskId first_task = first[0].first;

  EXPECT_EQ(assigner.CompleteWorker(99, {0, 0}).code(),
            util::StatusCode::kNotFound);
  ASSERT_TRUE(assigner.CompleteWorker(
                  7, first_task == 1 ? geo::Point{0.3, 0.5}
                                     : geo::Point{0.7, 0.5})
                  .ok());
  EXPECT_EQ(assigner.CommittedTask(7), core::kNoTask);
  EXPECT_EQ(assigner.CompleteWorker(7, {0, 0}).code(),
            util::StatusCode::kFailedPrecondition);

  auto second = assigner.Update(0.5).value();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0].first, first_task) << "should take the other task";
}

TEST(IncrementalAssignerTest, ExpiredTasksAreDropped) {
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner assigner(solver.get());
  ASSERT_TRUE(assigner.AddTask(1, OpenTask({0.5, 0.5}, 0, 0.5)).ok());
  ASSERT_TRUE(assigner.AddWorker(7, FreeWorker({0.45, 0.5})).ok());
  EXPECT_TRUE(assigner.Update(1.0).value().empty());  // task expired before round
  EXPECT_EQ(assigner.num_open_tasks(), 0);
}

TEST(IncrementalAssignerTest, RemovingPendingTaskFreesWorker) {
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner assigner(solver.get());
  ASSERT_TRUE(assigner.AddTask(1, OpenTask({0.5, 0.5}, 0, 2)).ok());
  ASSERT_TRUE(assigner.AddWorker(7, FreeWorker({0.45, 0.5})).ok());
  ASSERT_EQ(assigner.Update(0.0).value().size(), 1u);
  ASSERT_TRUE(assigner.RemoveTask(1).ok());
  EXPECT_EQ(assigner.CommittedTask(7), core::kNoTask);
  // The voided contribution no longer counts.
  EXPECT_DOUBLE_EQ(assigner.Objectives().total_std, 0.0);
  // The worker can serve a new task.
  ASSERT_TRUE(assigner.AddTask(2, OpenTask({0.5, 0.55}, 0, 3)).ok());
  EXPECT_EQ(assigner.Update(0.2).value().size(), 1u);
}

TEST(IncrementalAssignerTest, ObjectivesAccumulateOverRounds) {
  auto solver = core::SolverRegistry::Global().Create("sampling").value();
  IncrementalAssigner assigner(solver.get());
  util::Rng rng(3);
  for (int t = 0; t < 6; ++t) {
    ASSERT_TRUE(assigner
                    .AddTask(t, OpenTask({rng.Uniform(0.3, 0.7),
                                          rng.Uniform(0.3, 0.7)},
                                         0, 5))
                    .ok());
  }
  for (int w = 0; w < 12; ++w) {
    ASSERT_TRUE(assigner
                    .AddWorker(w, FreeWorker({rng.Uniform(0.2, 0.8),
                                              rng.Uniform(0.2, 0.8)},
                                             0.4, rng.Uniform(0.7, 0.95)))
                    .ok());
  }
  double previous = 0.0;
  for (int round = 0; round < 4; ++round) {
    double now = round * 0.5;
    auto committed = assigner.Update(now).value();
    // Complete everyone so the next round can reassign.
    for (const auto& [tid, wid] : committed) {
      (void)tid;
      ASSERT_TRUE(assigner
                      .CompleteWorker(wid, {rng.Uniform(0.3, 0.7),
                                            rng.Uniform(0.3, 0.7)})
                      .ok());
    }
    double current = assigner.Objectives().total_std;
    EXPECT_GE(current, previous - 1e-9)
        << "cumulative diversity dropped in round " << round;
    previous = current;
  }
  EXPECT_GT(previous, 0.0);
  EXPECT_GT(assigner.Objectives().min_reliability, 0.5);
}

TEST(IncrementalAssignerTest, MemoedAssignerCommitsIdenticallyToFresh) {
  // Two assigners end up with identical membership, but one went through
  // extra no-op rounds first (its delta rows were repaired and reused).
  // The first assignable round must commit identical pairs either way --
  // round history may only ever change how much of the graph is rebuilt,
  // never what is assigned.
  auto solver_a = core::SolverRegistry::Global().Create("greedy").value();
  auto solver_b = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner seasoned(solver_a.get());
  IncrementalAssigner fresh(solver_b.get());
  for (IncrementalAssigner* assigner : {&seasoned, &fresh}) {
    // An unreachable pairing that keeps early rounds assignment-free.
    ASSERT_TRUE(assigner->AddTask(9, OpenTask({0.9, 0.9}, 0, 0.05)).ok());
    ASSERT_TRUE(
        assigner->AddWorker(19, FreeWorker({0.1, 0.1}, /*v=*/0.01)).ok());
  }
  // Seasoned only: burn no-op rounds before the assignable content
  // arrives.
  EXPECT_TRUE(seasoned.Update(0.0).value().empty());
  EXPECT_TRUE(seasoned.Update(0.0).value().empty());

  for (IncrementalAssigner* assigner : {&seasoned, &fresh}) {
    ASSERT_TRUE(assigner->AddTask(1, OpenTask({0.5, 0.5}, 0, 2)).ok());
    ASSERT_TRUE(assigner->AddTask(2, OpenTask({0.6, 0.5}, 0, 2)).ok());
    ASSERT_TRUE(assigner->AddWorker(7, FreeWorker({0.45, 0.5})).ok());
    ASSERT_TRUE(assigner->AddWorker(8, FreeWorker({0.55, 0.5})).ok());
  }
  EXPECT_EQ(seasoned.Update(0.0).value(), fresh.Update(0.0).value());
  EXPECT_EQ(seasoned.Objectives().total_std, fresh.Objectives().total_std);
}

TEST(IncrementalAssignerTest, ObjectivesIndependentOfInsertionOrder) {
  // Regression test: Objectives() once accumulated total_std in the
  // ledger's hash-map iteration order, which depends on insertion
  // history; float addition is non-associative, so two assigners with
  // identical contents could disagree in the last bits. The sum now runs
  // in sorted task-id order and must be bit-identical either way.
  util::Rng rng(11);
  std::vector<std::pair<core::TaskId, core::Task>> tasks;
  std::vector<std::pair<core::WorkerId, core::Worker>> workers;
  for (int t = 0; t < 40; ++t) {
    tasks.emplace_back(t, OpenTask({rng.Uniform(0.2, 0.8),
                                    rng.Uniform(0.2, 0.8)},
                                   0, 5, rng.Uniform(0.3, 0.9)));
  }
  for (int w = 0; w < 40; ++w) {
    workers.emplace_back(w, FreeWorker({rng.Uniform(0.2, 0.8),
                                        rng.Uniform(0.2, 0.8)},
                                       0.5, rng.Uniform(0.7, 0.95)));
  }

  auto run = [&](bool reversed) {
    auto solver = core::SolverRegistry::Global().Create("greedy").value();
    IncrementalAssigner assigner(solver.get());
    auto ordered_tasks = tasks;
    auto ordered_workers = workers;
    if (reversed) {
      std::reverse(ordered_tasks.begin(), ordered_tasks.end());
      std::reverse(ordered_workers.begin(), ordered_workers.end());
    }
    for (const auto& [id, task] : ordered_tasks) {
      EXPECT_TRUE(assigner.AddTask(id, task).ok());
    }
    for (const auto& [id, worker] : ordered_workers) {
      EXPECT_TRUE(assigner.AddWorker(id, worker).ok());
    }
    EXPECT_FALSE(assigner.Update(0.0).value().empty());
    return assigner.Objectives();
  };

  core::ObjectiveValue forward = run(false);
  core::ObjectiveValue backward = run(true);
  EXPECT_GT(forward.total_std, 0.0);
  // Bit-identical, not just approximately equal.
  EXPECT_EQ(forward.total_std, backward.total_std);
  EXPECT_EQ(forward.min_reliability, backward.min_reliability);
}

// The sim.build.blocks_* counters report what the round's block test did:
// per round, exactly the counts of CandidateGraph::Build on the round
// snapshot, which are the same serially and at 4 threads.
TEST(IncrementalAssignerTest, BlockTestCountersEqualTheSerialBuild) {
  obs::Registry registry;
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner assigner(solver.get());
  assigner.set_metrics(&registry, "greedy");
  util::Rng rng(17);
  std::map<core::TaskId, core::Task> tasks;
  std::map<core::WorkerId, core::Worker> workers;
  auto add_round = [&](core::TaskId first_task, core::WorkerId first_worker) {
    for (core::TaskId i = first_task; i < first_task + 300; ++i) {
      tasks[i] = OpenTask({rng.Uniform(0, 1), rng.Uniform(0, 1)}, 0, 5);
      ASSERT_TRUE(assigner.AddTask(i, tasks[i]).ok());
    }
    for (core::WorkerId j = first_worker; j < first_worker + 40; ++j) {
      workers[j] = FreeWorker({rng.Uniform(0, 1), rng.Uniform(0, 1)}, 0.1);
      const double lo = rng.Uniform(0, geo::kTwoPi);
      workers[j].direction = geo::AngularInterval(lo, lo + 0.5);
      ASSERT_TRUE(assigner.AddWorker(j, workers[j]).ok());
    }
  };
  util::ThreadPool pool(3);  // with the caller: 4-way sharding
  int64_t tested = 0, skipped = 0;
  for (int round = 0; round < 2; ++round) {
    add_round(1000 * round, 1000 * round);
    // The round snapshot: open tasks and idle workers in id order.
    std::vector<core::Task> open;
    for (const auto& [id, task] : tasks) open.push_back(task);
    std::vector<core::Worker> idle;
    for (const auto& [id, worker] : workers) {
      if (assigner.CommittedTask(id) == core::kNoTask) idle.push_back(worker);
    }
    const core::Instance snapshot(open, idle, 0.0,
                                  core::ArrivalPolicy::kAllowWait);
    const core::CandidateGraph serial = core::CandidateGraph::Build(snapshot);
    const core::CandidateGraph sharded =
        core::CandidateGraph::Build(snapshot, &pool, util::Deadline()).value();
    EXPECT_EQ(sharded.BlocksTested(), serial.BlocksTested());
    EXPECT_EQ(sharded.BlocksSkipped(), serial.BlocksSkipped());
    EXPECT_EQ(serial.BlocksTested(),
              static_cast<int64_t>(idle.size()) *
                  static_cast<int64_t>(snapshot.soa().num_blocks()));
    EXPECT_GT(serial.BlocksSkipped(), 0);

    const index::DeltaStats before = assigner.delta_stats();
    ASSERT_FALSE(assigner.Update(0.0).value().empty());
    const index::DeltaStats diff = assigner.delta_stats() - before;
    EXPECT_EQ(diff.blocks_tested, serial.BlocksTested()) << "round " << round;
    EXPECT_EQ(diff.blocks_skipped, serial.BlocksSkipped())
        << "round " << round;
    tested += serial.BlocksTested();
    skipped += serial.BlocksSkipped();
    EXPECT_EQ(registry.GetCounter("sim.build.blocks_tested").value(), tested);
    EXPECT_EQ(registry.GetCounter("sim.build.blocks_skipped").value(),
              skipped);
  }
}

TEST(IncrementalAssignerTest, WorkerLeavingMidRouteVoidsContribution) {
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner assigner(solver.get());
  ASSERT_TRUE(assigner.AddTask(1, OpenTask({0.5, 0.5}, 0, 2)).ok());
  ASSERT_TRUE(assigner.AddWorker(7, FreeWorker({0.45, 0.5})).ok());
  ASSERT_EQ(assigner.Update(0.0).value().size(), 1u);
  EXPECT_GT(assigner.Objectives().total_std, 0.0);
  ASSERT_TRUE(assigner.RemoveWorker(7).ok());
  EXPECT_DOUBLE_EQ(assigner.Objectives().total_std, 0.0);
  EXPECT_EQ(assigner.num_workers(), 0);
}

// RemoveTask voids exactly the pending commitments to the removed task --
// including workers that completed it once and then re-committed to it --
// makes those workers assignable again, and leaves every other worker's
// commitment alone. Driven through a seeded mix of commits, completions,
// re-commits, withdrawals and departures.
TEST(IncrementalAssignerTest, RemoveTaskVoidsExactlyPendingCommitments) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto solver = core::SolverRegistry::Global().Create("greedy").value();
    IncrementalAssigner assigner(solver.get());
    util::Rng rng(seed);
    std::vector<core::TaskId> open;
    std::map<core::WorkerId, geo::Point> homes;
    core::TaskId next_task = 0;
    core::WorkerId next_worker = 0;
    auto add_task = [&] {
      const core::Task task = OpenTask(
          {rng.Uniform(0.35, 0.65), rng.Uniform(0.35, 0.65)}, 0, 100);
      ASSERT_TRUE(assigner.AddTask(next_task, task).ok());
      open.push_back(next_task++);
    };
    auto add_worker = [&] {
      const geo::Point home{rng.Uniform(0.3, 0.7), rng.Uniform(0.3, 0.7)};
      ASSERT_TRUE(assigner.AddWorker(next_worker, FreeWorker(home)).ok());
      homes.emplace(next_worker++, home);
    };
    for (int t = 0; t < 4; ++t) add_task();
    for (int w = 0; w < 16; ++w) add_worker();

    std::map<core::WorkerId, std::set<core::TaskId>> completed;
    int recommits = 0;
    int voided = 0;
    // Workers voided by the last withdrawal: every task is within reach
    // of every home, so the next round commits each of them again.
    std::vector<core::WorkerId> freed;
    for (int round = 0; round < 40; ++round) {
      const auto committed = assigner.Update(0.1 * round).value();
      for (const auto& [tid, wid] : committed) {
        if (completed[wid].contains(tid)) ++recommits;
      }
      for (core::WorkerId wid : freed) {
        EXPECT_NE(assigner.CommittedTask(wid), core::kNoTask)
            << "voided worker " << wid << " is not assignable again";
      }
      freed.clear();
      // Complete about half of the busy workers back at home, so the next
      // round may commit them to the same task again.
      for (const auto& [wid, home] : homes) {
        const core::TaskId task = assigner.CommittedTask(wid);
        if (task == core::kNoTask || !rng.Bernoulli(0.5)) continue;
        ASSERT_TRUE(assigner.CompleteWorker(wid, home).ok());
        completed[wid].insert(task);
      }
      // Now and then a worker leaves (busy or not) and another arrives.
      if (rng.Bernoulli(0.2)) {
        auto it = homes.begin();
        std::advance(it, rng.UniformInt(
                             0, static_cast<int64_t>(homes.size()) - 1));
        ASSERT_TRUE(assigner.RemoveWorker(it->first).ok());
        homes.erase(it);
        add_worker();
      }
      // Withdraw a random open task every other round.
      if (round % 2 == 1) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1));
        const core::TaskId id = open[pick];
        std::map<core::WorkerId, core::TaskId> before;
        for (const auto& [wid, home] : homes) {
          before[wid] = assigner.CommittedTask(wid);
        }
        ASSERT_TRUE(assigner.RemoveTask(id).ok());
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        for (const auto& [wid, task] : before) {
          if (task == id) {
            EXPECT_EQ(assigner.CommittedTask(wid), core::kNoTask)
                << "seed " << seed << " round " << round << " worker " << wid;
            freed.push_back(wid);
            ++voided;
          } else {
            EXPECT_EQ(assigner.CommittedTask(wid), task)
                << "seed " << seed << " round " << round << " worker " << wid;
          }
        }
        add_task();
      }
    }
    // The script really exercised the cases the ledger walk must handle.
    EXPECT_GT(voided, 0) << "seed " << seed;
    EXPECT_GT(recommits, 0) << "seed " << seed;
  }
}

// Seeded mutations of one field of a valid task or worker into NaN, an
// infinity or an out-of-range value. Instance::Validate and the assigner's
// AddTask / AddWorker / MoveWorker / CompleteWorker must each reject every
// mutant with kInvalidArgument naming the record, its id and the field --
// in Release too, where the Debug-only asserts behind them (the grid
// index's cell lookup, the diversity sums' end > start) do not run -- and
// leave the assigner as it was.
TEST(InputGuardTest, SeededFieldMutationsAreRejectedInEveryBuild) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Mutation {
    const char* field;
    bool on_task;
    std::vector<double> values;
    std::function<void(core::Task&, core::Worker&, double)> apply;
  };
  const std::vector<Mutation> mutations = {
      {"location.x", true, {kNaN, kInf, -kInf},
       [](core::Task& t, core::Worker&, double v) { t.location.x = v; }},
      {"location.y", true, {kNaN, kInf},
       [](core::Task& t, core::Worker&, double v) { t.location.y = v; }},
      {"start", true, {kNaN, -kInf},
       [](core::Task& t, core::Worker&, double v) { t.start = v; }},
      {"end", true, {kNaN, kInf},
       [](core::Task& t, core::Worker&, double v) { t.end = v; }},
      {"end - start", true, {0.0, -1.0, -1e-12},
       [](core::Task& t, core::Worker&, double v) { t.end = t.start + v; }},
      {"beta", true, {kNaN, kInf, -0.5, 1.5},
       [](core::Task& t, core::Worker&, double v) { t.beta = v; }},
      {"location.x", false, {kNaN, kInf},
       [](core::Task&, core::Worker& w, double v) { w.location.x = v; }},
      {"location.y", false, {kNaN, -kInf},
       [](core::Task&, core::Worker& w, double v) { w.location.y = v; }},
      {"velocity", false, {kNaN, kInf, 0.0, -1.0},
       [](core::Task&, core::Worker& w, double v) { w.velocity = v; }},
      {"direction.lo", false, {kNaN, kInf},
       [](core::Task&, core::Worker& w, double v) {
         w.direction = geo::AngularInterval(v, 1.0);
       }},
      {"direction.width", false, {kNaN, kInf},
       [](core::Task&, core::Worker& w, double v) {
         w.direction = geo::AngularInterval(0.5, v);
       }},
      {"confidence", false, {kNaN, kInf, -0.1, 1.5},
       [](core::Task&, core::Worker& w, double v) { w.confidence = v; }},
      {"available_from", false, {kNaN, kInf},
       [](core::Task&, core::Worker& w, double v) { w.available_from = v; }},
  };
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  util::Rng rng(909);
  int rejected_moves = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Mutation& m = mutations[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutations.size()) - 1))];
    const double bad = m.values[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(m.values.size()) - 1))];
    core::Task task = OpenTask({rng.Uniform(0.3, 0.7), rng.Uniform(0.3, 0.7)},
                               rng.Uniform(0.0, 1.0), rng.Uniform(2.0, 3.0),
                               rng.Uniform(0.0, 1.0));
    core::Worker worker =
        FreeWorker({rng.Uniform(0.3, 0.7), rng.Uniform(0.3, 0.7)},
                   rng.Uniform(0.2, 1.0), rng.Uniform(0.0, 1.0));
    ASSERT_TRUE(core::Instance({task}, {worker}).Validate().ok());
    const core::Task valid_task = task;
    const core::Worker valid_worker = worker;
    m.apply(task, worker, bad);
    const std::string kind = m.on_task ? "task " : "worker ";
    const std::string where = kind + m.field + " = " + std::to_string(bad);
    auto names = [&](const util::Status& status, int id) {
      return status.code() == util::StatusCode::kInvalidArgument &&
             status.message().starts_with(kind + std::to_string(id) + ": " +
                                          m.field + " = ");
    };

    const util::Status validate = core::Instance({task}, {worker}).Validate();
    EXPECT_TRUE(names(validate, 0)) << where << ": " << validate.message();

    IncrementalAssigner assigner(solver.get());
    const int id = 40 + trial;
    if (m.on_task) {
      const util::Status added = assigner.AddTask(id, task);
      EXPECT_TRUE(names(added, id)) << where << ": " << added.message();
      EXPECT_EQ(assigner.num_open_tasks(), 0) << where;
      continue;
    }
    const util::Status added = assigner.AddWorker(id, worker);
    EXPECT_TRUE(names(added, id)) << where << ": " << added.message();
    EXPECT_EQ(assigner.num_workers(), 0) << where;
    // Of a worker's fields, only its location changes after registration.
    if (!std::string(m.field).starts_with("location")) continue;

    // A registered worker moved, or completing its task, to a bad position.
    ASSERT_TRUE(assigner.AddWorker(id, valid_worker).ok());
    const util::Status moved = assigner.MoveWorker(id, worker.location);
    EXPECT_TRUE(names(moved, id)) << where << ": " << moved.message();
    ASSERT_TRUE(assigner.AddTask(1, valid_task).ok());
    assigner.Update(0.0).value();
    // The rejected move left the worker at its registered position: the
    // round commits it exactly when that position reaches the task, and
    // observes its contribution from there.
    const bool reachable = core::IsValidPair(valid_task, valid_worker, 0.0,
                                             core::ArrivalPolicy::kAllowWait);
    ASSERT_EQ(assigner.CommittedTask(id) == 1, reachable) << where;
    if (!reachable) continue;
    EXPECT_EQ(assigner.Objectives().total_std,
              core::ExpectedStd(valid_task,
                                {core::MakeObservation(
                                    valid_task, valid_worker, 0.0,
                                    core::ArrivalPolicy::kAllowWait)}))
        << where;
    const util::Status completed =
        assigner.CompleteWorker(id, worker.location);
    EXPECT_TRUE(names(completed, id)) << where << ": " << completed.message();
    EXPECT_EQ(assigner.CommittedTask(id), 1) << where;
    ++rejected_moves;
  }
  EXPECT_GT(rejected_moves, 0) << "no mutant reached CompleteWorker";
}

// A NaN or infinite round clock is rejected with kInvalidArgument naming
// the field before ApplyEvents or Update touches any state -- in Release
// too, where no assert guards the clock.
TEST(InputGuardTest, NonFiniteClockIsRejectedBeforeAnyState) {
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner assigner(solver.get());
  ASSERT_TRUE(assigner.AddTask(1, OpenTask({0.5, 0.5}, 0, 5)).ok());
  ASSERT_TRUE(assigner.AddTask(2, OpenTask({0.6, 0.5}, 0, 5)).ok());
  ASSERT_TRUE(assigner.AddWorker(7, FreeWorker({0.45, 0.5})).ok());
  ASSERT_TRUE(assigner.Update(1.0).ok());
  const core::TaskId committed = assigner.CommittedTask(7);
  ASSERT_NE(committed, core::kNoTask);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EventBatch batch;
    batch.now = bad;
    batch.expired.push_back({1});
    batch.completed.push_back({7, {0.5, 0.5}});
    const util::Status applied = assigner.ApplyEvents(batch);
    EXPECT_EQ(applied.code(), util::StatusCode::kInvalidArgument) << bad;
    EXPECT_TRUE(applied.message().starts_with("batch.now = "))
        << applied.message();
    const auto round = assigner.Update(bad);
    ASSERT_FALSE(round.ok()) << bad;
    EXPECT_EQ(round.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_TRUE(round.status().message().starts_with("now = "))
        << round.status().message();

    EXPECT_EQ(assigner.now(), 1.0) << bad;
    EXPECT_EQ(assigner.num_open_tasks(), 2) << bad;
    EXPECT_EQ(assigner.CommittedTask(7), committed) << bad;
  }
  // The rejected rounds left the assigner usable.
  ASSERT_TRUE(assigner.Update(2.0).ok());
  EXPECT_EQ(assigner.now(), 2.0);
}

// A clock earlier than the assigner's is rejected with kInvalidArgument
// naming both values before ApplyEvents or Update touches any state, so a
// round's graph and its solve never disagree on the time. An equal clock
// is fine.
TEST(InputGuardTest, BackwardsClockIsRejectedBeforeAnyState) {
  auto solver = core::SolverRegistry::Global().Create("greedy").value();
  IncrementalAssigner assigner(solver.get());
  ASSERT_TRUE(assigner.AddTask(1, OpenTask({0.5, 0.5}, 0, 9)).ok());
  ASSERT_TRUE(assigner.AddTask(2, OpenTask({0.6, 0.5}, 0, 9)).ok());
  ASSERT_TRUE(assigner.AddWorker(7, FreeWorker({0.45, 0.5})).ok());
  ASSERT_TRUE(assigner.Update(5.0).ok());
  const core::TaskId committed = assigner.CommittedTask(7);
  ASSERT_NE(committed, core::kNoTask);

  EventBatch batch;
  batch.now = 3.0;
  batch.expired.push_back({committed == 1 ? 2 : 1});
  batch.completed.push_back({7, {0.5, 0.5}});
  const util::Status applied = assigner.ApplyEvents(batch);
  EXPECT_EQ(applied.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(applied.message(),
            "batch.now = 3 is earlier than the round clock 5");
  const auto round = assigner.Update(3.0);
  ASSERT_FALSE(round.ok());
  EXPECT_EQ(round.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(round.status().message(),
            "now = 3 is earlier than the round clock 5");
  EXPECT_EQ(assigner.now(), 5.0);
  EXPECT_EQ(assigner.num_open_tasks(), 2);
  EXPECT_EQ(assigner.CommittedTask(7), committed);

  batch.now = 5.0;
  ASSERT_TRUE(assigner.ApplyEvents(batch).ok());
  EXPECT_EQ(assigner.num_open_tasks(), 1);
  EXPECT_EQ(assigner.CommittedTask(7), core::kNoTask);
  ASSERT_TRUE(assigner.Update(5.0).ok());
  EXPECT_EQ(assigner.CommittedTask(7), committed);
}

}  // namespace
}  // namespace rdbsc::sim
