#ifndef RDBSC_ENGINE_SERVER_H_
#define RDBSC_ENGINE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>

#include "core/instance.h"
#include "engine/engine.h"
#include "engine/solve_cache.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace rdbsc::engine {

/// What Submit does once the admission queue is at max_queue_depth.
enum class OverloadPolicy {
  /// Block the submitter until a slot frees up (or the server shuts down).
  kBlock,
  /// Fail the new request immediately with kResourceExhausted.
  kReject,
  /// Drop the oldest queued request (it completes with kResourceExhausted)
  /// to make room for the new one. Age alone decides the victim --
  /// deliberately ignoring priority, so a stale high-priority request
  /// cannot pin the queue; pair high priorities with kBlock/kReject if
  /// they must never be shed.
  kShedOldest,
};

/// How Shutdown winds the server down.
enum class ShutdownMode {
  /// Stop admitting, run every queued request to completion, then stop.
  kDrain,
  /// Stop admitting, fail queued requests with kCancelled, and trip the
  /// server CancelToken so in-flight solves return kCancelled at their
  /// next deadline poll.
  kCancel,
};

/// Configuration of an admission server.
struct ServerConfig {
  /// Solver / graph-strategy / validation settings of the underlying
  /// pipeline. `engine.num_threads` is ignored: each admitted request runs
  /// serially on a fresh registry-created solver (the determinism
  /// contract), and concurrency comes from `num_workers` requests in
  /// flight at once. `engine.budget_seconds` is also ignored -- request
  /// budgets come from `default_budget_seconds` / SubmitControls.
  /// `engine.metrics`, when left null, is pointed at the server-owned
  /// registry so per-stage timings land next to the server.* metrics
  /// (Server::metrics()).
  EngineConfig engine;

  /// Dispatch threads, i.e. requests solved concurrently (clamped to 1).
  int num_workers = 1;
  /// Queued-but-not-yet-running requests admitted before `overload_policy`
  /// kicks in (clamped to 1).
  int max_queue_depth = 256;
  OverloadPolicy overload_policy = OverloadPolicy::kReject;

  /// Per-request wall-clock budget applied when SubmitControls does not
  /// override it; <= 0 means unlimited.
  double default_budget_seconds = 0.0;

  /// Default cache policy applied when SubmitControls::cache is kDefault.
  /// kOff keeps every request cold unless a submission opts in.
  CacheMode cache_mode = CacheMode::kOff;
  /// Capacity of the server-owned SolveCache (entries). 0 disables the
  /// cache entirely: every request solves cold, whatever the cache modes
  /// say.
  size_t cache_result_entries = 4096;
};

/// Per-submission overrides.
struct SubmitControls {
  /// Higher-priority requests dispatch first; ties in submission order.
  int priority = 0;
  /// < 0: use the server's default budget. 0: unlimited. The clock starts
  /// at *dispatch*, not Submit: the budget bounds the solve itself, so a
  /// result stays independent of how long the ticket sat queued (time in
  /// queue is governed by the overload policy and queue depth instead).
  double budget_seconds = -1.0;
  /// What this request may do with the server's SolveCache; kDefault
  /// falls back to ServerConfig::cache_mode. Every admitted request is
  /// dispatched on its own: a duplicate of an earlier request is answered
  /// from the cache once that request has finished.
  CacheMode cache = CacheMode::kDefault;
  /// When true the request is admitted and queued normally but completes
  /// with kCancelled at dispatch instead of solving. Cancellation is
  /// decided at admission, so -- unlike Ticket::Cancel, which races the
  /// dispatcher -- the outcome is the same on every replay whatever the
  /// worker count: scripted load harnesses (src/wl) compile their cancel
  /// ops to this.
  bool cancel_at_dispatch = false;
};

/// Counter snapshot returned by Server::Stats. Latency percentiles are
/// measured submit -> completion over every finished request (including
/// shed / cancelled ones), read from the server's cumulative
/// server.latency_seconds{phase=total} histogram -- exact count/min/max,
/// percentiles within the histogram's ~3.2% bucket resolution. Use
/// Server::RotateLatencyWindow for recent-traffic (windowed) latency.
struct ServerStats {
  int64_t submitted = 0;   ///< Submit calls, including rejected ones.
  int64_t admitted = 0;    ///< entered the queue
  int64_t rejected = 0;    ///< refused at admission (full / closed)
  int64_t shed = 0;        ///< dropped from the queue by kShedOldest
  int64_t completed = 0;   ///< finished with an OK result
  int64_t deadline_exceeded = 0;  ///< finished with kDeadlineExceeded
  int64_t cancelled = 0;   ///< finished with kCancelled (Shutdown(kCancel))
  int64_t failed = 0;      ///< finished with any other error

  int64_t cache_hits = 0;    ///< dispatched requests answered from the
                             ///< result cache
  int64_t cache_misses = 0;  ///< cache-read-enabled requests that solved cold
  int64_t cache_evictions = 0;  ///< entries evicted from the result cache

  int queue_depth = 0;     ///< waiting right now
  int in_flight = 0;       ///< solving right now

  double latency_p50_seconds = 0.0;
  double latency_p95_seconds = 0.0;
  double latency_p99_seconds = 0.0;
  double latency_max_seconds = 0.0;
};

namespace internal {
/// Shared completion slot of one admitted request. Submitters hold it
/// through Ticket; the server fills it exactly once (solve result, shed,
/// or shutdown-cancel) and notifies.
///
/// Ownership discipline (not expressible as GUARDED_BY, because the
/// guard is the *server's* mutex, an object this struct cannot name):
/// `id`..`cache_mode` are written only while the server holds its mu_ --
/// id/submit_time/instance/budget_seconds/cache_mode once at admission,
/// dispatch_time/dispatched once by RunNext at pop. Once RunNext pops the
/// ticket off the queue it is the only dispatcher, so its unlocked reads
/// of instance/budget_seconds/cache_mode are exclusive (publication
/// ordered by the mu_ handoff). Only the completion slot below has a
/// local guard.
struct TicketState {
  uint64_t id = 0;
  std::chrono::steady_clock::time_point submit_time;
  /// Set (with `dispatched`) by RunNext under the server's mu_ when the
  /// ticket is popped for solving; splits the submit->finish latency into
  /// the queue and run phases. Never set for tickets that never run
  /// (shed or cancelled).
  std::chrono::steady_clock::time_point dispatch_time;
  bool dispatched = false;
  core::Instance instance;
  double budget_seconds = 0.0;  ///< effective per-request budget; 0 = none

  /// Resolved cache policy of this request.
  CacheMode cache_mode = CacheMode::kOff;

  /// Per-request cancellation. `cancel_at_dispatch` is written once at
  /// admission under the server's mu_ (see the discipline note above);
  /// `cancel` is an atomic flag tripped by Ticket::Cancel at any time and
  /// polled by the dispatch path (before solving) and, through the request
  /// Deadline, by the running solver.
  util::CancelToken cancel;
  bool cancel_at_dispatch = false;

  mutable util::Mutex mu;
  mutable util::CondVar cv;
  bool done GUARDED_BY(mu) = false;
  util::StatusOr<EngineResult> result GUARDED_BY(mu){
      util::Status::Internal("ticket still pending")};
};
}  // namespace internal

/// Future-style handle to one admitted request. Cheap to copy; outlives
/// the server (the result slot is shared), so Wait/TryGet stay valid after
/// Shutdown. Every admitted ticket is eventually completed -- with its
/// solve result, kResourceExhausted when shed, or kCancelled on
/// Shutdown(kCancel) -- so Wait never hangs past shutdown.
class Ticket {
 public:
  /// An empty ticket: valid() is false, Wait/TryGet must not be called.
  Ticket() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const { return state_ == nullptr ? 0 : state_->id; }

  /// Blocks until the request finished and returns its result.
  const util::StatusOr<EngineResult>& Wait() const;
  /// Non-blocking: the result once finished, nullptr while pending.
  const util::StatusOr<EngineResult>* TryGet() const;
  /// Blocks up to `seconds`; true once the request finished.
  bool WaitFor(double seconds) const;
  /// Best-effort cancellation: a still-queued request completes with
  /// kCancelled at dispatch without solving, an in-flight one aborts with
  /// kCancelled at its next deadline poll, and a finished one is
  /// unaffected. Which of the three applies races the dispatcher -- for a
  /// replay-deterministic cancel, decide at admission instead
  /// (SubmitControls::cancel_at_dispatch).
  void Cancel();

 private:
  friend class Server;
  explicit Ticket(std::shared_ptr<internal::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::TicketState> state_;
};

/// Asynchronous admission layer over the Engine pipeline: Submit copies an
/// instance into a bounded priority queue and returns a Ticket; a pool of
/// `num_workers` dispatch threads pops the best queued request (highest
/// priority, then FIFO) and runs Engine::RunIsolated on it -- a fresh
/// registry-created solver, serial inside the request -- so per-ticket
/// results are bit-identical across worker counts and reruns (the PR-3
/// determinism contract, extended to the async layer and enforced by the
/// workloads/*.wl replays in tests/workload_replay_test.cc).
///
/// Submit is admission, then the overload policy, then the queue; every
/// admitted request is dispatched exactly once. Repeated traffic is served
/// through a content-addressed SolveCache: each request resolves a
/// CacheMode (SubmitControls::cache, falling back to
/// ServerConfig::cache_mode), and a read-enabled request counts exactly
/// one cache hit or miss at dispatch. Cache hits are bit-identical to cold
/// solves, so enabling the cache never changes an answer, only its latency
/// (tests/cache_stress_test.cc and
/// WorkloadReplayContract.CacheDoesNotChangeFingerprints).
///
///   auto server = engine::Server::Create({.engine = {.solver_name = "dc"}});
///   engine::Ticket t = server.value()->Submit(instance).value();
///   const util::StatusOr<EngineResult>& result = t.Wait();
///
/// All methods are thread-safe.
class Server {
 public:
  /// Resolves the engine config through the registry; kNotFound for an
  /// unknown solver name. The returned server is running.
  static util::StatusOr<std::unique_ptr<Server>> Create(ServerConfig config);

  /// Shutdown(kCancel) when the server is still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits `instance` (copied; the server owns it until completion) and
  /// returns its ticket. Fails with kResourceExhausted when the queue is
  /// full under kReject, and with kFailedPrecondition after Shutdown.
  util::StatusOr<Ticket> Submit(core::Instance instance,
                                const SubmitControls& controls = {})
      EXCLUDES(mu_);

  /// Stops admissions and winds down per `mode`; blocks until every
  /// queued/in-flight request completed and the dispatch threads joined.
  /// Idempotent, first call wins: later calls (and calls racing the
  /// first) ignore their own `mode` -- a kCancel arriving during a drain
  /// does not cancel the work the drain promised to run -- and simply
  /// wait for the wind-down to finish.
  void Shutdown(ShutdownMode mode) EXCLUDES(mu_);

  ServerStats Stats() const EXCLUDES(mu_);

  /// Detailed counters of the server-owned cache (all zeros when
  /// the cache is disabled).
  CacheStats GetCacheStats() const;

  /// The server-owned metrics registry. Always populated with the
  /// server.* metrics (counters server.submitted/admitted/rejected,
  /// server.finished{outcome=ok|deadline|cancelled|shed|
  /// failed}, server.cache{outcome=hit|miss}; histograms
  /// server.latency_seconds{phase=queue|run|total}); additionally holds
  /// the engine.* stage metrics unless ServerConfig::engine.metrics
  /// pointed them at an external registry. Snapshot() is safe at any
  /// time, including while the server is serving.
  const obs::Registry& metrics() const { return metrics_; }
  obs::Registry& metrics() { return metrics_; }

  /// Closes the current latency window and returns its snapshot
  /// (submit -> completion seconds of the requests that finished since
  /// the previous rotation); the cumulative distribution is unaffected.
  /// Drives `run_workload --server --stats-window=N` style live
  /// reporting. Thread-safe.
  obs::HistogramSnapshot RotateLatencyWindow();

  const ServerConfig& config() const { return config_; }

 private:
  // Dispatch order: highest priority first, then submission order.
  struct QueueKey {
    int priority = 0;
    uint64_t seq = 0;
    bool operator<(const QueueKey& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq < other.seq;
    }
  };

  Server() = default;

  /// Body of one queued pool task: pop the best ticket, solve, complete.
  void RunNext() EXCLUDES(mu_);
  /// Fills a ticket's result slot and wakes its waiters.
  static void Complete(const std::shared_ptr<internal::TicketState>& state,
                       util::StatusOr<EngineResult> result);
  /// Accounts one finished request (counters + latency) under mu_.
  void RecordFinishLocked(const internal::TicketState& state,
                          const util::Status& status) REQUIRES(mu_);
  /// Retires a ticket that never ran: drops its instance copy and
  /// accounts it as finished with `status`. The caller completes it once
  /// mu_ is released. Used by shed and cancel.
  void AbortTicketLocked(internal::TicketState& state,
                         const util::Status& status) REQUIRES(mu_);

  // --- Immutable after Create (no guard): configuration and the solving
  // machinery. `pool_` is additionally reset by exactly one Shutdown
  // call, strictly after closed_ blocked new Submits and the idle wait
  // saw pending_pool_tasks_ == 0, so no dispatch or submit path can
  // still reach it.
  ServerConfig config_;
  Engine engine_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<SolveCache> cache_;
  util::CancelToken cancel_;

  /// Server-owned metrics (see metrics()). Declared before the resolved
  /// handles below, which point into it. The registry and its metrics are
  /// internally synchronized; the counter/histogram *handles* are set
  /// once in Create. Counter increments nevertheless happen only while
  /// holding mu_, so a Stats() snapshot (also under mu_) always observes
  /// the partition invariants (submitted == admitted + rejected;
  /// admitted == finished + queued + in flight) exactly -- lock-free
  /// recording is reserved for the latency histograms' internals.
  obs::Registry metrics_;
  obs::Counter* c_submitted_ = nullptr;
  obs::Counter* c_admitted_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_finished_ok_ = nullptr;
  obs::Counter* c_finished_deadline_ = nullptr;
  obs::Counter* c_finished_cancelled_ = nullptr;
  obs::Counter* c_finished_shed_ = nullptr;
  obs::Counter* c_finished_failed_ = nullptr;
  obs::Counter* c_cache_hits_ = nullptr;
  obs::Counter* c_cache_misses_ = nullptr;
  obs::Histogram* lat_queue_ = nullptr;
  obs::Histogram* lat_run_ = nullptr;
  obs::Histogram* lat_total_ = nullptr;
  /// Rotating window over submit->completion latency (the phase=total
  /// stream), feeding RotateLatencyWindow.
  obs::WindowedRecorder latency_window_{1e-9};

  mutable util::Mutex mu_;
  util::CondVar space_cv_;  ///< kBlock submitters wait here
  util::CondVar idle_cv_;   ///< Shutdown waits here
  bool closed_ GUARDED_BY(mu_) = false;      ///< no further admissions
  bool joining_ GUARDED_BY(mu_) = false;     ///< one Shutdown owns the join
  bool wound_down_ GUARDED_BY(mu_) = false;  ///< dispatch threads joined
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::map<QueueKey, std::shared_ptr<internal::TicketState>> queue_
      GUARDED_BY(mu_);
  int in_flight_ GUARDED_BY(mu_) = 0;
  /// Queued-but-unfinished pool tasks; every admission enqueues exactly
  /// one, so 0 here means queue_ is empty and nothing is in flight.
  int pending_pool_tasks_ GUARDED_BY(mu_) = 0;
};

}  // namespace rdbsc::engine

#endif  // RDBSC_ENGINE_SERVER_H_
