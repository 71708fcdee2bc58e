// Concurrency stress for the caching layer (runs under the TSan CI job):
// real submitter threads hammer one engine::Server with duplicate
// instances so the SolveCache shards and the hit/miss counters race for
// real. Invariants: every OK ticket is bit-identical to the direct cold
// solve of its instance, and every read-enabled admission is accounted
// exactly once as a hit or a miss.

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/fingerprint.h"
#include "engine/server.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rdbsc {
namespace {

using engine::CacheMode;
using engine::ServerConfig;
using engine::ServerStats;
using engine::ShutdownMode;
using engine::SubmitControls;
using engine::Ticket;
using test::SmallInstance;

ServerConfig StressCacheConfig(int num_workers) {
  ServerConfig config;
  config.engine.solver_name = "dc";
  config.engine.solver_options.seed = 7;
  config.engine.validate_instances = false;
  config.num_workers = num_workers;
  config.max_queue_depth = 256;
  config.overload_policy = engine::OverloadPolicy::kBlock;
  config.cache_mode = CacheMode::kReadWrite;
  return config;
}

// Canonical cold fingerprints (direct Engine::Run, no cache) for the
// duplicate pool every stress round draws from.
std::vector<std::string> ColdFingerprints(
    const ServerConfig& config, const std::vector<core::Instance>& pool) {
  Engine engine = Engine::Create(config.engine).value();
  std::vector<std::string> prints;
  prints.reserve(pool.size());
  for (const core::Instance& instance : pool) {
    prints.push_back(engine::ResultFingerprint(engine.Run(instance)));
  }
  return prints;
}

// The accounting satellite: N threads x M submissions over a 2-instance
// pool, drained cleanly. Whatever the interleaving, (a) every ticket's
// answer is bit-identical to the cold solve, and (b) the counters
// partition the admissions: cache_hits + cache_misses == admitted (every
// request dispatched exactly once, hitting or missing).
TEST(CacheStressTest, ConcurrentDuplicateSubmitsStayBitIdentical) {
  const std::vector<core::Instance> pool = {SmallInstance(61, 10, 20),
                                            SmallInstance(62, 10, 20)};
  for (int round = 0; round < 6; ++round) {
    ServerConfig config = StressCacheConfig(1 + round % 3);
    const std::vector<std::string> cold = ColdFingerprints(config, pool);
    auto server = std::move(engine::Server::Create(std::move(config)).value());

    constexpr int kSubmitters = 4;
    constexpr int kPerSubmitter = 6;
    std::vector<std::vector<std::pair<int, Ticket>>> tickets(kSubmitters);
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      threads.emplace_back([&, s] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          const int which = (s + i) % 2;
          tickets[s].emplace_back(
              which, server->Submit(pool[which]).value());
        }
      });
    }
    // Concurrent Stats readers race the counters on purpose (TSan food).
    std::thread poller([&] {
      for (int i = 0; i < 50; ++i) {
        ServerStats stats = server->Stats();
        EXPECT_GE(stats.submitted, 0);
      }
    });
    for (std::thread& t : threads) t.join();
    poller.join();

    for (std::vector<std::pair<int, Ticket>>& per : tickets) {
      for (auto& [which, ticket] : per) {
        const util::StatusOr<EngineResult>& result = ticket.Wait();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(engine::ResultFingerprint(result), cold[which]);
      }
    }
    server->Shutdown(ShutdownMode::kDrain);
    ServerStats stats = server->Stats();
    EXPECT_EQ(stats.admitted, kSubmitters * kPerSubmitter);
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.admitted);
    EXPECT_EQ(stats.completed, stats.admitted);
    EXPECT_GE(stats.cache_misses, 1);  // someone had to solve cold
  }
}

// The race loop: Submit + Shutdown(kCancel) + shedding under fire. Every
// admitted ticket is solved, cancelled or shed exactly once, and any
// ticket that does complete OK must still be bit-identical to the cold
// solve.
TEST(CacheStressTest, SubmitShutdownCancelRaceKeepsCacheConsistent) {
  const std::vector<core::Instance> pool = {SmallInstance(71, 10, 20),
                                            SmallInstance(72, 10, 20)};
  for (int round = 0; round < 8; ++round) {
    ServerConfig config = StressCacheConfig(2);
    config.max_queue_depth = 8;
    config.overload_policy = round % 2 == 0
                                 ? engine::OverloadPolicy::kReject
                                 : engine::OverloadPolicy::kShedOldest;
    const std::vector<std::string> cold = ColdFingerprints(config, pool);
    auto server = std::move(engine::Server::Create(std::move(config)).value());

    constexpr int kSubmitters = 4;
    constexpr int kPerSubmitter = 6;
    std::vector<std::vector<std::pair<int, Ticket>>> tickets(kSubmitters);
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      threads.emplace_back([&, s] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          const int which = i % 2;
          SubmitControls controls;
          controls.priority = i % 3;
          auto ticket = server->Submit(pool[which], controls);
          if (ticket.ok()) {
            tickets[s].emplace_back(which, std::move(ticket).value());
          }
          // Rejections (queue full / shut down) are legal here.
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(round));
    server->Shutdown(ShutdownMode::kCancel);
    for (std::thread& t : threads) t.join();

    int64_t resolved = 0;
    for (std::vector<std::pair<int, Ticket>>& per : tickets) {
      for (auto& [which, ticket] : per) {
        const util::StatusOr<EngineResult>& result = ticket.Wait();
        ++resolved;
        if (result.ok()) {
          EXPECT_EQ(engine::ResultFingerprint(result), cold[which]);
          continue;
        }
        util::StatusCode code = result.status().code();
        EXPECT_TRUE(code == util::StatusCode::kCancelled ||
                    code == util::StatusCode::kResourceExhausted)
            << result.status().ToString();
      }
    }
    ServerStats stats = server->Stats();
    EXPECT_EQ(stats.admitted, resolved);
    EXPECT_EQ(stats.admitted, stats.completed + stats.cancelled +
                                  stats.shed + stats.failed +
                                  stats.deadline_exceeded);
    // Dispatch accounting never exceeds the admissions: only requests
    // that dispatched count a hit or a miss.
    EXPECT_LE(stats.cache_hits + stats.cache_misses, stats.admitted);
    EXPECT_EQ(stats.queue_depth, 0);
    EXPECT_EQ(stats.in_flight, 0);
  }
}

}  // namespace
}  // namespace rdbsc
