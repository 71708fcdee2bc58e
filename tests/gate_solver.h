#ifndef RDBSC_TESTS_GATE_SOLVER_H_
#define RDBSC_TESTS_GATE_SOLVER_H_

// Gate tickets for engine::Server tests that must keep a dispatch worker
// busy while they arrange the queue behind it. A server configured with
// GatedSolverName() solves every instance as D&C, except that inside a
// Gates scope the solve of GateInstance(k) first waits until the test
// opens gate k (or the request's deadline trips: a ticket cancel or
// Shutdown(kCancel)). So a gate holds the worker for exactly as long as
// the test needs, however fast the machine solves.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string_view>

#include "core/instance.h"
#include "core/registry.h"
#include "core/solver.h"
#include "test_util.h"

namespace rdbsc::test {

/// Gate instances are the only one-task instances the server tests submit;
/// gate k has 8 + k workers.
inline core::Instance GateInstance(int k = 0) {
  return SmallInstance(1, /*num_tasks=*/1, /*num_workers=*/8 + k);
}

namespace gate_internal {

struct State {
  std::mutex mu;
  std::condition_variable cv;
  bool closed = false;  // false outside a Gates scope: nothing waits
  std::set<int> open;
};

inline State& GetState() {
  static State state;
  return state;
}

class GatedSolver : public core::Solver {
 public:
  explicit GatedSolver(const core::SolverOptions& options)
      : dc_(core::SolverRegistry::Global().Create("dc", options).value()) {}
  std::string_view name() const override { return "GATED-DC"; }

 protected:
  util::StatusOr<core::SolveResult> SolveImpl(
      const core::Instance& instance, const core::CandidateGraph& graph,
      const util::Deadline& deadline, util::Executor& executor,
      core::SolveStats* partial_stats) override {
    if (instance.num_tasks() == 1) {
      const int k = instance.num_workers() - 8;
      State& state = GetState();
      std::unique_lock<std::mutex> lock(state.mu);
      while (state.closed && !state.open.contains(k)) {
        if (deadline.Exhausted()) {
          return BudgetError(deadline, {}, partial_stats);
        }
        state.cv.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
    core::SolveRequest request;
    request.instance = &instance;
    request.graph = &graph;
    request.deadline = &deadline;
    request.partial_stats = partial_stats;
    request.executor = &executor;
    return dc_->Solve(request);
  }

 private:
  std::unique_ptr<core::Solver> dc_;
};

}  // namespace gate_internal

/// Registers the gated D&C solver (once) and returns its registry name.
inline const char* GatedSolverName() {
  static const char* const name = [] {
    constexpr const char* kName = "test-gated-dc";
    const util::Status status = core::SolverRegistry::Global().Register(
        kName, [](const core::SolverOptions& options) {
          return std::make_unique<gate_internal::GatedSolver>(options);
        });
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::abort();
    }
    return kName;
  }();
  return name;
}

/// Closes every gate for its lifetime; destruction opens them all. Declare
/// it after the server it gates, so that a test that returns early never
/// leaves a solve waiting while the server drains.
class Gates {
 public:
  Gates() {
    gate_internal::State& state = gate_internal::GetState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.open.clear();
    state.closed = true;
  }
  ~Gates() {
    gate_internal::State& state = gate_internal::GetState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.closed = false;
    state.cv.notify_all();
  }
  Gates(const Gates&) = delete;
  Gates& operator=(const Gates&) = delete;

  /// Lets the solve of GateInstance(k) run, now or whenever it starts.
  void Open(int k) {
    gate_internal::State& state = gate_internal::GetState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.open.insert(k);
    state.cv.notify_all();
  }
};

}  // namespace rdbsc::test

#endif  // RDBSC_TESTS_GATE_SOLVER_H_
