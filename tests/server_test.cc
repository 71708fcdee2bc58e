// Unit and race coverage of engine::Server: admission policies (block /
// reject / shed-oldest), the server-wide budget pool, priority dispatch,
// graceful shutdown in both modes, and a concurrent
// Submit + Shutdown(kCancel) + deadline-expiry loop that the TSan CI job
// runs to flush races out of the ticket/future path.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/fingerprint.h"
#include "engine/server.h"
#include "gate_solver.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rdbsc {
namespace {

using engine::OverloadPolicy;
using engine::Server;
using engine::ServerConfig;
using engine::ServerStats;
using engine::ShutdownMode;
using engine::SubmitControls;
using engine::Ticket;
using test::Gates;
using test::GateInstance;

ServerConfig BaseConfig(int num_workers = 1) {
  ServerConfig config;
  config.engine.solver_name = test::GatedSolverName();
  config.engine.solver_options.seed = 7;
  config.engine.validate_instances = false;
  config.num_workers = num_workers;
  return config;
}

std::unique_ptr<Server> MakeServer(ServerConfig config) {
  return std::move(Server::Create(std::move(config)).value());
}

// A solve in the low milliseconds.
core::Instance QuickInstance(uint64_t seed = 3) {
  return test::SmallInstance(seed, 10, 24);
}

// Spins (with 1 ms naps) until `pred` holds; fails the test after ~10 s.
template <typename Pred>
void WaitUntil(Pred pred) {
  for (int i = 0; i < 10'000; ++i) {
    if (pred()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "condition not reached within 10 s";
}

TEST(ServerTest, CreateRejectsUnknownSolver) {
  ServerConfig config;
  config.engine.solver_name = "no-such-solver";
  auto server = Server::Create(std::move(config));
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), util::StatusCode::kNotFound);
}

TEST(ServerTest, SubmitMatchesDirectEngineRun) {
  core::Instance instance = QuickInstance(11);
  ServerConfig config = BaseConfig(2);
  util::StatusOr<Engine> direct = Engine::Create(config.engine);
  util::StatusOr<EngineResult> expected = direct.value().Run(instance);

  auto server = MakeServer(std::move(config));
  Ticket ticket = server->Submit(instance).value();
  const util::StatusOr<EngineResult>& got = ticket.Wait();
  EXPECT_EQ(engine::ResultFingerprint(got),
            engine::ResultFingerprint(expected));
  server->Shutdown(ShutdownMode::kDrain);

  ServerStats stats = server->Stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_GT(stats.latency_p50_seconds, 0.0);
  EXPECT_GE(stats.latency_max_seconds, stats.latency_p50_seconds);
}

TEST(ServerTest, TryGetAndWaitFor) {
  auto server = MakeServer(BaseConfig(1));
  Ticket ticket = server->Submit(QuickInstance()).value();
  EXPECT_TRUE(ticket.valid());
  EXPECT_TRUE(ticket.WaitFor(30.0));
  ASSERT_NE(ticket.TryGet(), nullptr);
  EXPECT_TRUE(ticket.TryGet()->ok());
}

TEST(ServerTest, TinyBudgetExpiresTicket) {
  auto server = MakeServer(BaseConfig(1));
  SubmitControls controls;
  controls.budget_seconds = 1e-9;
  Ticket ticket = server->Submit(QuickInstance(), controls).value();
  const util::StatusOr<EngineResult>& result = ticket.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  server->Shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(server->Stats().deadline_exceeded, 1);
}

TEST(ServerTest, RejectPolicyFailsWhenQueueFull) {
  ServerConfig config = BaseConfig(1);
  config.max_queue_depth = 1;
  config.overload_policy = OverloadPolicy::kReject;
  auto server = MakeServer(std::move(config));
  Gates gates;

  Ticket gate = server->Submit(GateInstance()).value();
  WaitUntil([&] { return server->Stats().in_flight == 1; });
  Ticket queued = server->Submit(QuickInstance()).value();

  auto rejected = server->Submit(QuickInstance());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kResourceExhausted);

  gates.Open(0);
  EXPECT_TRUE(gate.Wait().ok());
  EXPECT_TRUE(queued.Wait().ok());
  server->Shutdown(ShutdownMode::kDrain);
  ServerStats stats = server->Stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 2);
}

TEST(ServerTest, ShedOldestDropsTheOldestQueuedTicket) {
  ServerConfig config = BaseConfig(1);
  config.max_queue_depth = 2;
  config.overload_policy = OverloadPolicy::kShedOldest;
  auto server = MakeServer(std::move(config));
  Gates gates;

  Ticket gate = server->Submit(GateInstance()).value();
  WaitUntil([&] { return server->Stats().in_flight == 1; });
  Ticket oldest = server->Submit(QuickInstance(1)).value();
  Ticket second = server->Submit(QuickInstance(2)).value();
  Ticket third = server->Submit(QuickInstance(3)).value();  // sheds `oldest`

  const util::StatusOr<EngineResult>& shed = oldest.Wait();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kResourceExhausted);

  gates.Open(0);
  EXPECT_TRUE(gate.Wait().ok());
  EXPECT_TRUE(second.Wait().ok());
  EXPECT_TRUE(third.Wait().ok());
  server->Shutdown(ShutdownMode::kDrain);
  ServerStats stats = server->Stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(ServerTest, BlockPolicyWaitsForSpace) {
  ServerConfig config = BaseConfig(1);
  config.max_queue_depth = 1;
  config.overload_policy = OverloadPolicy::kBlock;
  auto server = MakeServer(std::move(config));
  Gates gates;

  Ticket gate = server->Submit(GateInstance()).value();
  WaitUntil([&] { return server->Stats().in_flight == 1; });
  Ticket queued = server->Submit(QuickInstance(1)).value();

  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    Ticket late = server->Submit(QuickInstance(2)).value();
    admitted.store(true);
    EXPECT_TRUE(late.Wait().ok());
  });
  // The submitter stays blocked while the closed gate keeps the queue
  // full (the nap gives a wrongly admitted submitter time to show)...
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(admitted.load());
  // ...and is admitted once the gate finishes and frees the slot.
  gates.Open(0);
  EXPECT_TRUE(gate.Wait().ok());
  blocked.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_TRUE(queued.Wait().ok());
  server->Shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(server->Stats().rejected, 0);
  EXPECT_EQ(server->Stats().completed, 3);
}

TEST(ServerTest, HighPriorityDispatchesBeforeEarlierLowPriority) {
  // One worker, busy gate; a low-priority ticket that holds the worker
  // until gate 1 opens is queued before a quick high-priority one. With
  // priority dispatch the quick ticket finishes while the low one is still
  // pending; with FIFO the low one would take the worker first and the
  // quick one could not finish before gate 1 opens.
  auto server = MakeServer(BaseConfig(1));
  Gates gates;
  Ticket gate = server->Submit(GateInstance(0)).value();
  WaitUntil([&] { return server->Stats().in_flight == 1; });

  SubmitControls low;
  low.priority = 0;
  Ticket gated_low = server->Submit(GateInstance(1), low).value();
  SubmitControls high;
  high.priority = 5;
  Ticket quick_high = server->Submit(QuickInstance(), high).value();

  gates.Open(0);
  ASSERT_TRUE(quick_high.WaitFor(30.0))
      << "high-priority ticket stuck behind the low one: FIFO dispatch?";
  EXPECT_TRUE(quick_high.Wait().ok());
  EXPECT_EQ(gated_low.TryGet(), nullptr);
  gates.Open(1);
  EXPECT_TRUE(gated_low.Wait().ok());
  server->Shutdown(ShutdownMode::kDrain);
}

TEST(ServerTest, ShutdownDrainRunsEverythingThenRefuses) {
  auto server = MakeServer(BaseConfig(2));
  std::vector<Ticket> tickets;
  for (uint64_t s = 0; s < 6; ++s) {
    tickets.push_back(server->Submit(QuickInstance(s)).value());
  }
  server->Shutdown(ShutdownMode::kDrain);
  for (Ticket& ticket : tickets) EXPECT_TRUE(ticket.Wait().ok());

  auto late = server->Submit(QuickInstance());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kFailedPrecondition);
  ServerStats stats = server->Stats();
  EXPECT_EQ(stats.completed, 6);
  EXPECT_EQ(stats.rejected, 1);
}

TEST(ServerTest, ShutdownCancelFailsQueuedTickets) {
  auto server = MakeServer(BaseConfig(1));
  Gates gates;
  Ticket gate = server->Submit(GateInstance()).value();
  WaitUntil([&] { return server->Stats().in_flight == 1; });
  std::vector<Ticket> queued;
  for (uint64_t s = 0; s < 4; ++s) {
    queued.push_back(server->Submit(QuickInstance(s)).value());
  }
  server->Shutdown(ShutdownMode::kCancel);
  // The in-flight gate, never opened, can only end by seeing the token.
  EXPECT_EQ(gate.Wait().status().code(), util::StatusCode::kCancelled);
  for (Ticket& ticket : queued) {
    ASSERT_FALSE(ticket.Wait().ok());
    EXPECT_EQ(ticket.Wait().status().code(), util::StatusCode::kCancelled);
  }
  ServerStats stats = server->Stats();
  EXPECT_GE(stats.cancelled, 4);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(ServerTest, ShutdownIsIdempotent) {
  auto server = MakeServer(BaseConfig(1));
  Ticket ticket = server->Submit(QuickInstance()).value();
  server->Shutdown(ShutdownMode::kDrain);
  server->Shutdown(ShutdownMode::kDrain);
  server->Shutdown(ShutdownMode::kCancel);
  EXPECT_TRUE(ticket.Wait().ok());
}

TEST(ServerTest, CancelAtDispatchCompletesCancelledWithoutSolving) {
  auto server = MakeServer(BaseConfig(2));
  SubmitControls controls;
  controls.cancel_at_dispatch = true;
  Ticket ticket = server->Submit(QuickInstance(), controls).value();
  EXPECT_EQ(ticket.Wait().status().code(), util::StatusCode::kCancelled);
  server->Shutdown(ShutdownMode::kDrain);
  ServerStats stats = server->Stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.admitted, 1);
}

// The scripted-cancel determinism contract the workload DSL builds on:
// a fixed submission list mixing solves and cancel_at_dispatch requests
// produces the same per-ticket fingerprints at every worker count.
TEST(ServerTest, CancelAtDispatchScriptReplaysIdenticallyAcrossWorkers) {
  std::vector<std::string> baseline;
  for (int workers : {1, 2, 8}) {
    auto server = MakeServer(BaseConfig(workers));
    std::vector<Ticket> tickets;
    for (int i = 0; i < 12; ++i) {
      SubmitControls controls;
      controls.cancel_at_dispatch = i % 3 == 0;
      tickets.push_back(
          server->Submit(QuickInstance(static_cast<uint64_t>(100 + i)),
                         controls)
              .value());
    }
    std::vector<std::string> prints;
    prints.reserve(tickets.size());
    for (Ticket& ticket : tickets) {
      prints.push_back(engine::ResultFingerprint(ticket.Wait()));
    }
    server->Shutdown(ShutdownMode::kDrain);
    if (baseline.empty()) {
      baseline = prints;
      for (size_t i = 0; i < prints.size(); ++i) {
        const bool cancelled = i % 3 == 0;
        EXPECT_EQ(prints[i].find("code=0") == 0, !cancelled) << prints[i];
      }
    } else {
      EXPECT_EQ(prints, baseline) << workers << " workers";
    }
  }
}

TEST(ServerTest, TicketCancelAbortsQueuedRequest) {
  auto server = MakeServer(BaseConfig(1));
  Gates gates;
  Ticket gate = server->Submit(GateInstance()).value();
  WaitUntil([&] { return server->Stats().in_flight == 1; });
  Ticket queued = server->Submit(QuickInstance()).value();
  // The closed gate holds the only worker; `queued` cannot have been
  // dispatched, so its cancel lands pre-dispatch deterministically.
  queued.Cancel();
  // In-flight cancellation aborts at the solver's next deadline poll;
  // the never-opened gate polls while it waits. Then the worker reaches
  // `queued` and finds it cancelled.
  gate.Cancel();
  EXPECT_EQ(gate.Wait().status().code(), util::StatusCode::kCancelled)
      << gate.Wait().status().ToString();
  EXPECT_EQ(queued.Wait().status().code(), util::StatusCode::kCancelled);
  server->Shutdown(ShutdownMode::kDrain);
  ServerStats stats = server->Stats();
  EXPECT_GE(stats.cancelled, 2);
  EXPECT_EQ(stats.queue_depth, 0);
}

// The race-focused satellite: concurrent Submit + Shutdown(kCancel) +
// deadline expiry, looped. Every ticket must resolve to exactly one of
// {OK, kCancelled, kDeadlineExceeded}, the counters must reconcile, and
// under the TSan CI job any data race in the ticket/future or
// admission path fails the test.
TEST(ServerTest, ConcurrentSubmitShutdownCancelAndDeadlines) {
  for (int round = 0; round < 8; ++round) {
    ServerConfig config = BaseConfig(4);
    config.max_queue_depth = 8;
    config.overload_policy =
        round % 2 == 0 ? OverloadPolicy::kReject : OverloadPolicy::kShedOldest;
    auto server = MakeServer(std::move(config));

    constexpr int kSubmitters = 4;
    constexpr int kPerSubmitter = 6;
    std::vector<std::vector<Ticket>> tickets(kSubmitters);
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      threads.emplace_back([&, s] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          SubmitControls controls;
          controls.priority = i % 3;
          // Mix unlimited, expiring, and generous budgets.
          controls.budget_seconds =
              i % 3 == 0 ? -1.0 : (i % 3 == 1 ? 1e-9 : 30.0);
          auto ticket = server->Submit(
              QuickInstance(static_cast<uint64_t>(s * 100 + i)), controls);
          if (ticket.ok()) tickets[s].push_back(std::move(ticket).value());
          // Rejections (queue full / already shut down) are legal here.
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(round));
    server->Shutdown(ShutdownMode::kCancel);
    for (std::thread& t : threads) t.join();

    int64_t resolved = 0;
    for (std::vector<Ticket>& per : tickets) {
      for (Ticket& ticket : per) {
        const util::StatusOr<EngineResult>& result = ticket.Wait();
        ++resolved;
        if (result.ok()) continue;
        util::StatusCode code = result.status().code();
        EXPECT_TRUE(code == util::StatusCode::kCancelled ||
                    code == util::StatusCode::kDeadlineExceeded ||
                    code == util::StatusCode::kResourceExhausted)
            << result.status().ToString();
      }
    }
    ServerStats stats = server->Stats();
    EXPECT_EQ(stats.admitted, resolved);
    EXPECT_EQ(stats.admitted, stats.completed + stats.cancelled +
                                  stats.deadline_exceeded + stats.shed +
                                  stats.failed);
    EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
    EXPECT_EQ(stats.queue_depth, 0);
    EXPECT_EQ(stats.in_flight, 0);
  }
}

}  // namespace
}  // namespace rdbsc
