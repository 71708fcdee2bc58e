// Snapshot-consistency contract of Server::Stats(): every counter
// transition happens in one critical section under the server mutex, so a
// concurrent Stats() reader must never observe a half-applied transition.
// With kReject (no shedding), the partition invariants below hold for
// EVERY snapshot, not just quiescent ones:
//
//   submitted == admitted + rejected
//   admitted  == finished + queue_depth + in_flight
//               (finished = completed + deadline_exceeded
//                         + cancelled + failed + shed)
//
// The suite hammers Submit from several threads while observer threads
// snapshot continuously; it runs in CI's TSan job (all labels), where the
// same traffic also proves Stats() itself race-free.

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "engine/server.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rdbsc::engine {
namespace {

core::Instance TinyInstance(uint64_t seed) {
  return test::SmallInstance(seed, 8, 16);
}

int64_t Finished(const ServerStats& s) {
  return s.completed + s.deadline_exceeded + s.cancelled + s.failed + s.shed;
}

void ExpectSnapshotConsistent(const ServerStats& s, const ServerConfig& cfg) {
  EXPECT_EQ(s.submitted, s.admitted + s.rejected)
      << "Submit must count itself and its admit/reject verdict atomically";
  EXPECT_EQ(s.admitted, Finished(s) + s.queue_depth + s.in_flight)
      << "every admitted request is exactly one of queued/in-flight/finished";
  EXPECT_GE(s.queue_depth, 0);
  EXPECT_LE(s.queue_depth, cfg.max_queue_depth);
  EXPECT_GE(s.in_flight, 0);
  EXPECT_LE(s.in_flight, cfg.num_workers);
  EXPECT_EQ(s.shed, 0) << "kReject never sheds";
}

void ExpectMonotone(const ServerStats& prev, const ServerStats& cur) {
  EXPECT_GE(cur.submitted, prev.submitted);
  EXPECT_GE(cur.admitted, prev.admitted);
  EXPECT_GE(cur.rejected, prev.rejected);
  EXPECT_GE(cur.completed, prev.completed);
  EXPECT_GE(Finished(cur), Finished(prev));
}

TEST(ServerStatsTest, SnapshotsStayConsistentUnderConcurrentSubmitters) {
  ServerConfig config;
  config.engine.solver_name = "greedy";
  config.num_workers = 4;
  config.max_queue_depth = 8;
  config.overload_policy = OverloadPolicy::kReject;
  config.cache_mode = CacheMode::kOff;
  config.cache_result_entries = 0;
  auto server = Server::Create(config).value();

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 40;
  std::atomic<bool> done{false};
  std::atomic<int64_t> observed_rejections{0};

  // Observers: continuous snapshots, each checked for the partition
  // invariants and for monotonicity against the previous one.
  std::vector<std::thread> observers;
  for (int o = 0; o < 2; ++o) {
    observers.emplace_back([&] {
      ServerStats prev;
      while (!done.load(std::memory_order_acquire)) {
        ServerStats cur = server->Stats();
        ExpectSnapshotConsistent(cur, config);
        ExpectMonotone(prev, cur);
        prev = cur;
      }
    });
  }

  std::vector<std::thread> submitters;
  std::vector<std::vector<Ticket>> tickets(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        auto ticket = server->Submit(
            TinyInstance(static_cast<uint64_t>(s * kPerSubmitter + i)));
        if (ticket.ok()) {
          tickets[s].push_back(std::move(ticket).value());
        } else {
          // kReject under a full queue is expected traffic here.
          EXPECT_EQ(ticket.status().code(),
                    util::StatusCode::kResourceExhausted);
          observed_rejections.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (auto& owned : tickets) {
    for (Ticket& t : owned) EXPECT_TRUE(t.Wait().ok());
  }
  server->Shutdown(ShutdownMode::kDrain);
  done.store(true, std::memory_order_release);
  for (std::thread& t : observers) t.join();

  // Quiescent final snapshot: everything admitted has completed OK.
  const ServerStats final_stats = server->Stats();
  ExpectSnapshotConsistent(final_stats, config);
  EXPECT_EQ(final_stats.submitted,
            static_cast<int64_t>(kSubmitters) * kPerSubmitter);
  EXPECT_EQ(final_stats.rejected,
            observed_rejections.load(std::memory_order_relaxed));
  EXPECT_EQ(final_stats.queue_depth, 0);
  EXPECT_EQ(final_stats.in_flight, 0);
  EXPECT_EQ(final_stats.admitted, final_stats.completed);
  EXPECT_EQ(final_stats.failed, 0);
  EXPECT_EQ(final_stats.cancelled, 0);
  EXPECT_EQ(final_stats.deadline_exceeded, 0);
}

TEST(ServerStatsTest, RejectionsPartitionUnderSaturation) {
  // One worker and a depth-1 queue guarantee rejections; the partition
  // invariants must hold right through the churn.
  ServerConfig config;
  config.engine.solver_name = "greedy";
  config.num_workers = 1;
  config.max_queue_depth = 1;
  config.overload_policy = OverloadPolicy::kReject;
  config.cache_mode = CacheMode::kOff;
  config.cache_result_entries = 0;
  auto server = Server::Create(config).value();

  std::vector<Ticket> owned;
  int64_t rejected = 0;
  for (int i = 0; i < 32; ++i) {
    auto ticket = server->Submit(TinyInstance(static_cast<uint64_t>(i)));
    if (ticket.ok()) {
      owned.push_back(std::move(ticket).value());
    } else {
      ++rejected;
    }
    ExpectSnapshotConsistent(server->Stats(), config);
  }
  for (Ticket& t : owned) EXPECT_TRUE(t.Wait().ok());
  server->Shutdown(ShutdownMode::kDrain);

  const ServerStats s = server->Stats();
  ExpectSnapshotConsistent(s, config);
  EXPECT_EQ(s.submitted, 32);
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.admitted, static_cast<int64_t>(owned.size()));
  EXPECT_EQ(s.admitted, s.completed);
}

}  // namespace
}  // namespace rdbsc::engine
