#ifndef RDBSC_UTIL_MUTEX_H_
#define RDBSC_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace rdbsc::util {

/// Annotatable exclusive mutex: a thin wrapper over std::mutex that
/// carries the Clang thread-safety CAPABILITY attribute, so members can
/// be declared GUARDED_BY(mu_) and helpers REQUIRES(mu_). Use MutexLock
/// for scoped critical sections; Lock/Unlock exist for the rare flow a
/// scope cannot express.
///
/// Every mutex member in this codebase is a util::Mutex (never a naked
/// std::mutex -- libstdc++'s mutex carries no annotations, so the
/// analysis cannot see through it); enforced by tools/lint_invariants.py.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped critical section over a Mutex (RAII, like std::lock_guard but
/// visible to the analysis). CondVar::Wait* take it by reference so a
/// wait can release and reacquire the underlying mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/MutexLock. Waits are written as
/// explicit loops in the caller --
///
///   util::MutexLock lock(mu_);
///   while (!predicate_over_guarded_state) cv_.Wait(lock);
///
/// -- never with a predicate lambda: the loop condition is then evaluated
/// in a scope where the analysis knows the capability is held, whereas a
/// lambda body is a separate function it cannot see into.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`'s mutex and blocks; the mutex is held
  /// again when Wait returns (spurious wakeups possible -- loop).
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Wait bounded by an absolute steady-clock time; false on timeout.
  bool WaitUntil(MutexLock& lock,
                 std::chrono::steady_clock::time_point deadline) {
    return cv_.wait_until(lock.lock_, deadline) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rdbsc::util

#endif  // RDBSC_UTIL_MUTEX_H_
