#include "engine/server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

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
    // Only tickets that actually ran have a queue/run split; shed and
    // cancelled tickets spent their whole life queued and appear in
    // phase=total alone.
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

void Server::AbortTicketLocked(internal::TicketState& state,
                               const util::Status& status) {
  // The request never ran; drop its instance copy right away.
  state.instance = core::Instance();
  RecordFinishLocked(state, status);
}

util::StatusOr<Ticket> Server::Submit(core::Instance instance,
                                      const SubmitControls& controls) {
  CacheMode mode = controls.cache == CacheMode::kDefault
                       ? config_.cache_mode
                       : controls.cache;
  if (cache_ == nullptr) mode = CacheMode::kOff;

  std::vector<std::shared_ptr<internal::TicketState>> shed;
  Ticket ticket;
  {
    util::MutexLock lock(mu_);
    c_submitted_->Increment();
    if (closed_) {
      c_rejected_->Increment();
      return util::Status::FailedPrecondition("server is shut down");
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
          shed.push_back(std::move(oldest->second));
          queue_.erase(oldest);
          AbortTicketLocked(
              *shed.back(),
              util::Status::ResourceExhausted("shed by queue overflow"));
          continue;
        }
      }
    }

    auto state = std::make_shared<internal::TicketState>();
    state->id = next_seq_++;
    state->submit_time = std::chrono::steady_clock::now();
    state->instance = std::move(instance);
    state->budget_seconds = controls.budget_seconds >= 0.0
                                ? controls.budget_seconds
                                : config_.default_budget_seconds;
    state->cache_mode = mode;
    state->cancel_at_dispatch = controls.cancel_at_dispatch;
    queue_.emplace(QueueKey{controls.priority, state->id}, state);
    c_admitted_->Increment();
    ++pending_pool_tasks_;
    ticket = Ticket(std::move(state));
    // One generic drain task per admission: each pool task pops whatever
    // is the best queued request at run time, so priorities hold even
    // though the pool's own queue is FIFO. A task finding the queue empty
    // (its request was shed or cancelled first) simply retires. Enqueued
    // under mu_ so Shutdown cannot observe the incremented task count and
    // join the pool before the task exists.
    pool_->Submit([this] { RunNext(); });
  }

  for (const auto& state : shed) {
    Complete(state,
             util::Status::ResourceExhausted("shed by queue overflow"));
  }
  return ticket;
}

void Server::RunNext() {
  std::shared_ptr<internal::TicketState> state;
  bool cancelled = false;
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
    // Ticket::Cancel takes it only when it beat the pop.
    cancelled = state->cancel_at_dispatch || state->cancel.cancelled();
    if (cancelled) {
      AbortTicketLocked(*state, util::Status::Cancelled("request cancelled"));
      if (--pending_pool_tasks_ == 0) idle_cv_.NotifyAll();
    } else {
      state->dispatched = true;
      state->dispatch_time = std::chrono::steady_clock::now();
      ++in_flight_;
    }
  }
  // A queue slot freed; wake one kBlock submitter.
  space_cv_.NotifyOne();
  if (cancelled) {
    Complete(state, util::Status::Cancelled("request cancelled"));
    return;
  }

  // The deadline carries both the server-wide shutdown token and the
  // ticket's own, so Ticket::Cancel reaches an in-flight solve too.
  util::Deadline deadline(state->budget_seconds, &cancel_, &state->cancel);
  util::StatusOr<EngineResult> result = engine_.RunIsolated(
      state->instance, deadline, cache_.get(), state->cache_mode);
  // Nothing reads the instance after dispatch; release the copy now so
  // tickets held long after completion don't pin task/worker vectors.
  state->instance = core::Instance();

  {
    util::MutexLock lock(mu_);
    --in_flight_;
    RecordFinishLocked(*state,
                       result.ok() ? util::Status::OK() : result.status());
    if (CacheModeReads(state->cache_mode)) {
      if (result.ok() && result.value().from_cache) {
        c_cache_hits_->Increment();
      } else {
        c_cache_misses_->Increment();
      }
    }
    if (--pending_pool_tasks_ == 0) idle_cv_.NotifyAll();
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
        AbortTicketLocked(*state, util::Status::Cancelled("server shutdown"));
        cancelled.push_back(std::move(state));
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
    stats.completed = c_finished_ok_->value();
    stats.deadline_exceeded = c_finished_deadline_->value();
    stats.cancelled = c_finished_cancelled_->value();
    stats.shed = c_finished_shed_->value();
    stats.failed = c_finished_failed_->value();
    stats.cache_hits = c_cache_hits_->value();
    stats.cache_misses = c_cache_misses_->value();
    stats.queue_depth = static_cast<int>(queue_.size());
    stats.in_flight = in_flight_;
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
