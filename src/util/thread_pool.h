#ifndef RDBSC_UTIL_THREAD_POOL_H_
#define RDBSC_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/executor.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rdbsc::util {

/// A fixed-size worker pool. Two entry points:
///
///   - Submit(f): enqueue an arbitrary callable, get a std::future for its
///     result (used by engine::Server to dispatch queued requests).
///   - ShardedFor / ParallelFor (the Executor interface): fork-join over an
///     index range (used by graph construction and the solvers).
///
/// ShardedFor lets the calling thread claim shards too, so a pool of N
/// threads reaches N+1-way parallelism at full load and -- crucially --
/// never deadlocks when a pooled task itself calls ShardedFor: even with
/// every worker busy, the caller drains its own shards to completion.
class ThreadPool final : public Executor {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Blocks: already-queued tasks run to completion, then workers join.
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Executor::width: ShardedFor shard count. One shard per worker plus
  /// one for the participating caller.
  int width() const override { return num_threads() + 1; }

  /// Enqueues `f` for execution on some worker and returns a future for
  /// its result.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    Enqueue([task] { (*task)(); });
    return result;
  }

  void ShardedFor(int64_t n, const ShardBody& body) override;

 private:
  void Enqueue(std::function<void()> task) EXCLUDES(mu_);
  void WorkerLoop() EXCLUDES(mu_);

  /// Workers are started in the constructor and joined in the destructor;
  /// the vector itself is never touched in between, so it needs no guard.
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar cv_;  ///< signalled on enqueue and on stop
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
};

}  // namespace rdbsc::util

#endif  // RDBSC_UTIL_THREAD_POOL_H_
