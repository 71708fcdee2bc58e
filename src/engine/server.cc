#include "engine/server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "engine/fingerprint.h"

namespace rdbsc::engine {
namespace {

using util::SecondsSince;

// Elapsed seconds between two steady_clock points.
double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const util::StatusOr<EngineResult>& Ticket::Wait() const {
  util::MutexLock lock(state_->mu);
  while (!state_->done) state_->cv.Wait(lock);
  return state_->result;
}

const util::StatusOr<EngineResult>* Ticket::TryGet() const {
  util::MutexLock lock(state_->mu);
  return state_->done ? &state_->result : nullptr;
}

void Ticket::Cancel() { state_->cancel.Cancel(); }

bool Ticket::WaitFor(double seconds) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  util::MutexLock lock(state_->mu);
  while (!state_->done) {
    if (!state_->cv.WaitUntil(lock, deadline)) return state_->done;
  }
  return true;
}

util::StatusOr<std::unique_ptr<Server>> Server::Create(ServerConfig config) {
  config.num_workers = std::max(config.num_workers, 1);
  config.max_queue_depth = std::max(config.max_queue_depth, 1);
  // Concurrency comes from dispatching `num_workers` requests at once;
  // inside a request the pipeline runs serially on a fresh solver so the
  // result never depends on the worker count (determinism contract).
  config.engine.num_threads = 0;
  // kDefault is a SubmitControls sentinel; as a server default it means
  // "no default", i.e. off.
  if (config.cache_mode == CacheMode::kDefault) {
    config.cache_mode = CacheMode::kOff;
  }

  std::unique_ptr<Server> server(new Server());
  server->config_ = std::move(config);
  // Engine stage metrics default into the server-owned registry so one
  // snapshot shows the whole request path; an explicit external registry
  // in the config wins.
  if (server->config_.engine.metrics == nullptr) {
    server->config_.engine.metrics = &server->metrics_;
  }
  util::StatusOr<Engine> engine = Engine::Create(server->config_.engine);
  if (!engine.ok()) return engine.status();
  server->engine_ = std::move(engine).value();

  // Resolve the server.* metric handles once; the serving paths record
  // through plain pointers (see the member comment in server.h for the
  // under-mu_ counter discipline).
  obs::Registry& registry = server->metrics_;
  server->c_submitted_ = &registry.GetCounter("server.submitted");
  server->c_admitted_ = &registry.GetCounter("server.admitted");
  server->c_rejected_ = &registry.GetCounter("server.rejected");
  server->c_collapsed_ = &registry.GetCounter("server.collapsed");
  auto finished = [&registry](const char* outcome) {
    return &registry.GetCounter("server.finished", {{"outcome", outcome}});
  };
  server->c_finished_ok_ = finished("ok");
  server->c_finished_deadline_ = finished("deadline");
  server->c_finished_cancelled_ = finished("cancelled");
  server->c_finished_shed_ = finished("shed");
  server->c_finished_failed_ = finished("failed");
  server->c_cache_hits_ =
      &registry.GetCounter("server.cache", {{"outcome", "hit"}});
  server->c_cache_misses_ =
      &registry.GetCounter("server.cache", {{"outcome", "miss"}});
  auto latency = [&registry](const char* phase) {
    return &registry.GetHistogram("server.latency_seconds",
                                  {{"phase", phase}}, 1e-9);
  };
  server->lat_queue_ = latency("queue");
  server->lat_run_ = latency("run");
  server->lat_total_ = latency("total");

  server->budget_limited_ = server->config_.total_budget_seconds > 0.0;
  server->budget_remaining_ = server->config_.total_budget_seconds;
  if (server->config_.cache_result_entries > 0) {
    SolveCacheConfig cache_config;
    cache_config.result_capacity = server->config_.cache_result_entries;
    cache_config.num_shards =
        std::max(server->config_.num_workers, 4);
    server->cache_ = std::make_unique<SolveCache>(cache_config);
  }
  server->pool_ =
      std::make_unique<util::ThreadPool>(server->config_.num_workers);
  return server;
}

Server::~Server() { Shutdown(ShutdownMode::kCancel); }

void Server::Complete(const std::shared_ptr<internal::TicketState>& state,
                      util::StatusOr<EngineResult> result) {
  {
    util::MutexLock lock(state->mu);
    state->result = std::move(result);
    state->done = true;
  }
  state->cv.NotifyAll();
}

void Server::RecordFinishLocked(const internal::TicketState& state,
                                const util::Status& status) {
  const double total = SecondsSince(state.submit_time);
  lat_total_->Observe(total);
  latency_window_.Observe(total);
  if (state.dispatched) {
    // Only tickets that actually ran have a queue/run split; shed,
    // shutdown-cancelled, and collapsed-follower tickets spent their
    // whole life queued and appear in phase=total alone.
    lat_queue_->Observe(
        SecondsBetween(state.submit_time, state.dispatch_time));
    lat_run_->Observe(SecondsSince(state.dispatch_time));
  }
  switch (status.code()) {
    case util::StatusCode::kOk:
      c_finished_ok_->Increment();
      break;
    case util::StatusCode::kDeadlineExceeded:
      c_finished_deadline_->Increment();
      break;
    case util::StatusCode::kCancelled:
      c_finished_cancelled_->Increment();
      break;
    case util::StatusCode::kResourceExhausted:
      c_finished_shed_->Increment();
      break;
    default:
      c_finished_failed_->Increment();
      break;
  }
}

void Server::AbortTicketLocked(
    const std::shared_ptr<internal::TicketState>& state,
    const util::Status& status,
    std::vector<std::shared_ptr<internal::TicketState>>& out) {
  if (state->single_flight) {
    inflight_.erase(state->fingerprint);
    state->single_flight = false;
  }
  // The request never ran; drop its instance copy right away.
  state->instance = core::Instance();
  RecordFinishLocked(*state, status);
  out.push_back(state);
  // Collapsed duplicates share their leader's fate -- the leader is the
  // only copy of the work, so there is nothing left to run them against.
  for (std::shared_ptr<internal::TicketState>& follower : state->followers) {
    RecordFinishLocked(*follower, status);
    out.push_back(std::move(follower));
  }
  state->followers.clear();
}

util::StatusOr<Ticket> Server::Submit(core::Instance instance,
                                      const SubmitControls& controls) {
  // Resolve the cache policy and single-flight identity before taking
  // mu_: fingerprinting is O(instance) and must not serialize submitters.
  CacheMode mode = controls.cache == CacheMode::kDefault
                       ? config_.cache_mode
                       : controls.cache;
  if (cache_ == nullptr) mode = CacheMode::kOff;
  const double requested_budget = controls.budget_seconds >= 0.0
                                      ? controls.budget_seconds
                                      : config_.default_budget_seconds;
  // Single-flight needs outcome equivalence between "ran myself" and
  // "shared the leader's result"; a finite budget breaks that (the leader
  // may time out where this request would not), so only unlimited-budget
  // requests participate. A pool-limited server caps every budget, which
  // makes them finite too.
  // A request cancelled at dispatch must neither lead a group (followers
  // would inherit its kCancelled outcome) nor ride one (it would receive
  // the leader's OK result instead of cancelling).
  const bool single_flight_eligible =
      mode != CacheMode::kOff && requested_budget <= 0.0 &&
      !budget_limited_ && !controls.cancel_at_dispatch;
  // Only computed when this request could lead or ride a single-flight
  // group: RunIsolated derives its own cache key at dispatch, so hashing
  // here for ineligible requests would be pure admission-path overhead.
  util::Hash128 fingerprint{};
  if (single_flight_eligible) {
    fingerprint = engine_.ResultCacheKey(instance);
  }

  std::vector<std::shared_ptr<internal::TicketState>> aborted;
  Ticket ticket;
  {
    util::MutexLock lock(mu_);
    c_submitted_->Increment();
    if (closed_) {
      c_rejected_->Increment();
      return util::Status::FailedPrecondition("server is shut down");
    }

    // Single-flight collapse: an identical request is already queued or
    // in flight -- ride it instead of occupying a queue slot and a solve.
    // The follower consumes no pool budget (it runs nothing) and skips
    // overload handling entirely.
    if (single_flight_eligible && CacheModeReads(mode)) {
      if (auto it = inflight_.find(fingerprint); it != inflight_.end()) {
        const std::shared_ptr<internal::TicketState>& leader = it->second;
        // No priority inversion through the collapse: a follower more
        // urgent than its still-queued leader promotes the leader to its
        // own priority (keeping the leader's sequence number, so FIFO
        // order within the new priority band is preserved). An in-flight
        // leader is already past scheduling -- nothing to promote.
        if (controls.priority > leader->priority) {
          auto queued =
              queue_.find(QueueKey{leader->priority, leader->id});
          if (queued != queue_.end()) {
            queue_.erase(queued);
            leader->priority = controls.priority;
            queue_.emplace(QueueKey{leader->priority, leader->id}, leader);
          }
        }
        auto state = std::make_shared<internal::TicketState>();
        state->id = next_seq_++;
        state->priority = controls.priority;
        state->submit_time = std::chrono::steady_clock::now();
        state->cache_mode = mode;
        leader->followers.push_back(state);
        c_admitted_->Increment();
        c_collapsed_->Increment();
        return Ticket(std::move(state));
      }
    }

    // Pool-exhaustion is checked before overload handling: a request that
    // cannot be funded must not block for queue space, and above all must
    // not shed an already-admitted (and already-funded) victim only to be
    // rejected itself a few lines later.
    if (budget_limited_ && budget_remaining_ <= 0.0) {
      c_rejected_->Increment();
      return util::Status::ResourceExhausted("server budget pool exhausted");
    }

    // Overload handling at the queue bound.
    while (static_cast<int>(queue_.size()) >= config_.max_queue_depth) {
      switch (config_.overload_policy) {
        case OverloadPolicy::kReject:
          c_rejected_->Increment();
          return util::Status::ResourceExhausted(
              "admission queue full (kReject)");
        case OverloadPolicy::kBlock:
          while (!closed_ &&
                 static_cast<int>(queue_.size()) >= config_.max_queue_depth) {
            space_cv_.Wait(lock);
          }
          if (closed_) {
            c_rejected_->Increment();
            return util::Status::FailedPrecondition("server is shut down");
          }
          continue;
        case OverloadPolicy::kShedOldest: {
          // The oldest queued request (smallest sequence number across all
          // priorities) is dropped to make room.
          auto oldest = queue_.begin();
          for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->first.seq < oldest->first.seq) oldest = it;
          }
          std::shared_ptr<internal::TicketState> victim = oldest->second;
          queue_.erase(oldest);
          // The victim never ran: return its budget to the pool and drop
          // its instance copy (AbortTicketLocked also releases any
          // collapsed duplicates riding it).
          if (budget_limited_) {
            budget_remaining_ += victim->budget_seconds;
          }
          AbortTicketLocked(
              victim, util::Status::ResourceExhausted("shed by queue overflow"),
              aborted);
          continue;
        }
      }
    }

    // Per-request budget, deducted from the server-wide pool. The pool is
    // re-checked here because a kBlock wait releases mu_: a competing
    // submitter may have drained the remainder while this one slept.
    double budget = requested_budget;
    if (budget_limited_) {
      if (budget_remaining_ <= 0.0) {
        c_rejected_->Increment();
        // This submitter may have consumed a queue-pop notification on
        // its way here (kBlock); pass the baton so the next blocked
        // submitter wakes up to claim the slot -- or to be rejected like
        // this one -- instead of hanging forever.
        space_cv_.NotifyOne();
        return util::Status::ResourceExhausted(
            "server budget pool exhausted");
      }
      if (budget <= 0.0 || budget > budget_remaining_) {
        budget = budget_remaining_;
      }
      budget_remaining_ -= budget;
    }

    auto state = std::make_shared<internal::TicketState>();
    state->id = next_seq_++;
    state->priority = controls.priority;
    state->submit_time = std::chrono::steady_clock::now();
    state->instance = std::move(instance);
    state->budget_seconds = budget;
    state->cache_mode = mode;
    state->cancel_at_dispatch = controls.cancel_at_dispatch;
    if (single_flight_eligible) {
      // A leader may have registered this fingerprint while mu_ was
      // released (a kBlock wait above), and write-only duplicates skip
      // the collapse check entirely -- so registration must be
      // conditional on actually inserting. Marking single_flight without
      // owning the entry would make this ticket's completion erase a
      // still-live leader's registration.
      if (auto [it, inserted] = inflight_.emplace(fingerprint, state);
          inserted) {
        state->fingerprint = fingerprint;
        state->single_flight = true;
      }
    }
    queue_.emplace(QueueKey{controls.priority, state->id}, state);
    c_admitted_->Increment();
    ++pending_pool_tasks_;
    ticket = Ticket(state);
    // One generic drain task per admission: each pool task pops whatever
    // is the best queued request at run time, so priorities hold even
    // though the pool's own queue is FIFO. A task finding the queue empty
    // (its request was shed or cancelled first) simply retires. Enqueued
    // under mu_ so Shutdown cannot observe the incremented task count and
    // join the pool before the task exists.
    pool_->Submit([this] { RunNext(); });
  }

  for (const auto& state : aborted) {
    Complete(state,
             util::Status::ResourceExhausted("shed by queue overflow"));
  }
  return ticket;
}

void Server::RunNext() {
  std::shared_ptr<internal::TicketState> state;
  bool is_leader = false;
  std::vector<std::shared_ptr<internal::TicketState>> aborted;
  {
    util::MutexLock lock(mu_);
    if (queue_.empty()) {
      if (--pending_pool_tasks_ == 0) idle_cv_.NotifyAll();
      return;
    }
    auto it = queue_.begin();
    state = it->second;
    queue_.erase(it);
    // Per-ticket cancellation that landed before dispatch: retire the
    // request without solving. cancel_at_dispatch admissions always take
    // this path (the deterministic scripted-cancel contract); a racing
    // Ticket::Cancel takes it only when it beat the pop. AbortTicketLocked
    // also releases any followers a Ticket::Cancel'd leader carried
    // (cancel_at_dispatch requests never register as leaders).
    if (state->cancel_at_dispatch || state->cancel.cancelled()) {
      // The request never ran: its budget goes back to the pool.
      if (budget_limited_) budget_remaining_ += state->budget_seconds;
      AbortTicketLocked(state,
                        util::Status::Cancelled("request cancelled"),
                        aborted);
      if (--pending_pool_tasks_ == 0) idle_cv_.NotifyAll();
    } else {
      is_leader = state->single_flight;
      state->dispatched = true;
      state->dispatch_time = std::chrono::steady_clock::now();
      ++in_flight_;
    }
  }
  // A queue slot freed; wake one kBlock submitter.
  space_cv_.NotifyOne();
  if (!aborted.empty()) {
    for (const auto& cancelled : aborted) {
      Complete(cancelled, util::Status::Cancelled("request cancelled"));
    }
    return;
  }

  // A single-flight leader's fingerprint was already computed at
  // admission; reuse it so dispatch does not hash the instance again.
  // The deadline carries both the server-wide shutdown token and the
  // ticket's own, so Ticket::Cancel reaches an in-flight solve too.
  util::Deadline deadline(state->budget_seconds, &cancel_, &state->cancel);
  util::StatusOr<EngineResult> result = engine_.RunIsolated(
      state->instance, deadline, cache_.get(), state->cache_mode,
      is_leader ? &state->fingerprint : nullptr);
  // Nothing reads the instance after dispatch; release the copy now so
  // tickets held long after completion don't pin task/worker vectors.
  state->instance = core::Instance();

  std::vector<std::shared_ptr<internal::TicketState>> followers;
  {
    util::MutexLock lock(mu_);
    --in_flight_;
    // Retire the single-flight registration before the completion below:
    // once the entry is gone, a racing Submit starts a fresh leader (and
    // likely hits the cache the just-finished run populated).
    if (state->single_flight) {
      inflight_.erase(state->fingerprint);
      state->single_flight = false;
    }
    followers = std::move(state->followers);
    state->followers.clear();
    const util::Status status =
        result.ok() ? util::Status::OK() : result.status();
    RecordFinishLocked(*state, status);
    for (const auto& follower : followers) {
      RecordFinishLocked(*follower, status);
    }
    if (CacheModeReads(state->cache_mode)) {
      if (result.ok() && result.value().from_cache) {
        c_cache_hits_->Increment();
      } else {
        c_cache_misses_->Increment();
      }
    }
    if (--pending_pool_tasks_ == 0) idle_cv_.NotifyAll();
  }
  // Every collapsed duplicate receives a copy of the leader's outcome --
  // the single-flight contract: one solve, N identical answers.
  for (const auto& follower : followers) {
    Complete(follower, result);
  }
  Complete(state, std::move(result));
}

void Server::Shutdown(ShutdownMode mode) {
  std::vector<std::shared_ptr<internal::TicketState>> cancelled;
  {
    util::MutexLock lock(mu_);
    // The first call wins and its mode sticks: a Shutdown(kCancel)
    // racing (or following) an in-progress Shutdown(kDrain) must not
    // cancel the queued work the drain promised to complete -- later
    // calls just wait for the wind-down below.
    const bool first = !closed_;
    closed_ = true;
    if (first && mode == ShutdownMode::kCancel) {
      cancel_.Cancel();
      cancelled.reserve(queue_.size());
      for (auto& [key, state] : queue_) {
        AbortTicketLocked(state, util::Status::Cancelled("server shutdown"),
                          cancelled);
      }
      queue_.clear();
    }
  }
  space_cv_.NotifyAll();
  for (const auto& state : cancelled) {
    Complete(state, util::Status::Cancelled("server shutdown"));
  }

  bool join_here = false;
  {
    util::MutexLock lock(mu_);
    while (pending_pool_tasks_ != 0) idle_cv_.Wait(lock);
    if (!joining_) {
      joining_ = true;
      join_here = true;
    }
  }
  if (join_here) {
    pool_.reset();  // joins the dispatch threads
    {
      util::MutexLock lock(mu_);
      wound_down_ = true;
    }
    idle_cv_.NotifyAll();
  } else {
    util::MutexLock lock(mu_);
    while (!wound_down_) idle_cv_.Wait(lock);
  }
}

ServerStats Server::Stats() const {
  ServerStats stats;
  obs::HistogramSnapshot latency;
  {
    // Counters only move under mu_, so one locked pass reads a mutually
    // consistent snapshot: the partition invariants hold exactly even
    // while requests are in flight.
    util::MutexLock lock(mu_);
    stats.submitted = c_submitted_->value();
    stats.admitted = c_admitted_->value();
    stats.rejected = c_rejected_->value();
    stats.collapsed = c_collapsed_->value();
    stats.completed = c_finished_ok_->value();
    stats.deadline_exceeded = c_finished_deadline_->value();
    stats.cancelled = c_finished_cancelled_->value();
    stats.shed = c_finished_shed_->value();
    stats.failed = c_finished_failed_->value();
    stats.cache_hits = c_cache_hits_->value();
    stats.cache_misses = c_cache_misses_->value();
    stats.queue_depth = static_cast<int>(queue_.size());
    stats.in_flight = in_flight_;
    stats.budget_remaining_seconds =
        budget_limited_ ? std::max(budget_remaining_, 0.0) : -1.0;
    latency = lat_total_->Snapshot();
  }
  if (cache_ != nullptr) {
    CacheStats cache_stats = cache_->Stats();
    stats.cache_evictions = cache_stats.result_evictions;
  }
  stats.latency_p50_seconds = latency.p50();
  stats.latency_p95_seconds = latency.p95();
  stats.latency_p99_seconds = latency.p99();
  stats.latency_max_seconds = latency.max();
  return stats;
}

obs::HistogramSnapshot Server::RotateLatencyWindow() {
  return latency_window_.Rotate();
}

CacheStats Server::GetCacheStats() const {
  return cache_ == nullptr ? CacheStats{} : cache_->Stats();
}

}  // namespace rdbsc::engine
