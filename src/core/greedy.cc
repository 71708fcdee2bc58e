#include "core/greedy.h"

#include "core/dominance.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <vector>

#include "core/registry.h"
#include "util/math.h"

namespace rdbsc::core {
namespace {

// One candidate (task, worker) edge with its increase-pair inputs.
struct Candidate {
  TaskId task = kNoTask;
  WorkerId worker = kNoWorker;
  double wt = 0.0;  // the worker's reliability weight -ln(1-p)
  // Valid while the task roster is unchanged (refreshed when it changes):
  double lb_dd = 0.0;  // lower bound of Delta E[STD]
  double ub_dd = 0.0;  // upper bound of Delta E[STD]
  bool has_exact = false;
  double exact_dd = 0.0;  // exact Delta E[STD]
  // Per round; dmr is only meaningful on the arg-min task's pairs:
  double dmr = 0.0;  // Delta of the minimum reduced reliability
  int64_t survived_round = -1;  // last round the pair survived pruning
  bool alive = true;
};

// The two smallest reduced reliabilities over all tasks (empty tasks carry
// R = 0), so Delta_min_R of any single-task change is O(1).
struct MinPair {
  double min1 = std::numeric_limits<double>::infinity();
  TaskId arg1 = kNoTask;
  double min2 = std::numeric_limits<double>::infinity();
};

MinPair ComputeMins(const AssignmentState& state, int num_tasks) {
  MinPair mp;
  for (TaskId i = 0; i < num_tasks; ++i) {
    double r = state.TaskReducedReliability(i);
    if (r < mp.min1) {
      mp.min2 = mp.min1;
      mp.min1 = r;
      mp.arg1 = i;
    } else if (r < mp.min2) {
      mp.min2 = r;
    }
  }
  return mp;
}

}  // namespace

util::StatusOr<SolveResult> GreedySolver::SolveImpl(
    const Instance& instance, const CandidateGraph& graph,
    const util::Deadline& deadline, util::Executor& /*executor*/,
    SolveStats* partial_stats) {
  auto t0 = std::chrono::steady_clock::now();
  SolveResult result;
  AssignmentState state(instance);

  // Line 2 of Fig. 3: all valid pairs.
  std::vector<Candidate> pairs;
  std::vector<std::vector<size_t>> task_pairs(instance.num_tasks());
  std::vector<std::vector<size_t>> worker_pairs(instance.num_workers());
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    double wt = util::ReliabilityWeight(instance.worker(j).confidence);
    for (TaskId i : graph.TasksOf(j)) {
      task_pairs[i].push_back(pairs.size());
      worker_pairs[j].push_back(pairs.size());
      pairs.push_back(Candidate{.task = i, .worker = j, .wt = wt});
    }
  }

  std::vector<size_t> alive;  // candidate indices still assignable
  alive.reserve(pairs.size());
  for (size_t c = 0; c < pairs.size(); ++c) alive.push_back(c);

  // Tasks whose roster changed since their pairs were last previewed:
  // every task before round 1, then only the previous winner's task.
  std::vector<TaskId> changed(instance.num_tasks());
  for (TaskId i = 0; i < instance.num_tasks(); ++i) changed[i] = i;

  std::vector<size_t> gains;      // arg-min task pairs with dmr > 0
  std::vector<size_t> survivors;  // ranked: gains, then dmr == 0 pairs
  std::vector<size_t> reference;  // the tie rule's order (see below)
  std::vector<BiPoint> increase_pairs;

  for (int64_t round = 0; !alive.empty(); ++round) {
    if (deadline.Exhausted()) {
      result.stats.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      return BudgetError(deadline, result.stats, partial_stats);
    }
    MinPair mp = ComputeMins(state, instance.num_tasks());

    // Refresh the diversity bounds of the changed rosters' pairs.
    for (TaskId i : changed) {
      if (task_pairs[i].empty()) continue;
      DiversityBounds before = state.TaskStdBounds(i);
      for (size_t c : task_pairs[i]) {
        Candidate& cand = pairs[c];
        if (!cand.alive) continue;
        DiversityBounds after = state.PreviewTaskStdBounds(i, cand.worker);
        cand.lb_dd = std::max(0.0, after.lb - before.ub);
        cand.ub_dd = std::max(0.0, after.ub - before.lb);
        cand.has_exact = false;
      }
    }

    // dmr = max(0, min(excl, R_i + wt) - min1), excl being the smallest R
    // of the other tasks. For i != arg1, excl = min1 <= R_i <= R_i + wt,
    // so dmr is exactly 0: only the arg-min task's pairs can raise min R.
    const double r_arg1 = state.TaskReducedReliability(mp.arg1);
    for (size_t c : task_pairs[mp.arg1]) {
      Candidate& cand = pairs[c];
      cand.dmr = std::max(0.0, std::min(mp.min2, r_arg1 + cand.wt) - mp.min1);
    }
    auto dmr = [&pairs, &mp](size_t c) {
      return pairs[c].task == mp.arg1 ? pairs[c].dmr : 0.0;
    };

    // Lemma 4.3 pruning: a pair is beaten when some other pair has a
    // reliability delta at least as large and a diversity lower bound
    // exceeding this pair's diversity upper bound. Walking the pairs by
    // dmr descending, only the few positive-dmr pairs need ranking; all
    // others form one dmr == 0 group judged against a single max-lb pass.
    survivors.clear();
    const bool ranked = options_.use_pruning && alive.size() > 1;
    auto keep_unless_beaten = [&](size_t c, double max_lb) {
      if (max_lb > pairs[c].ub_dd) {
        ++result.stats.pruned_pairs;
      } else {
        pairs[c].survived_round = round;
        survivors.push_back(c);
      }
    };
    if (ranked) {
      gains.clear();
      for (size_t c : task_pairs[mp.arg1]) {
        if (pairs[c].alive && pairs[c].dmr > 0.0) gains.push_back(c);
      }
      std::sort(gains.begin(), gains.end(), [&pairs](size_t a, size_t b) {
        return pairs[a].dmr > pairs[b].dmr;
      });
      double max_lb = -std::numeric_limits<double>::infinity();
      for (size_t g = 0, h = 0; g < gains.size(); g = h) {
        for (h = g; h < gains.size() && pairs[gains[h]].dmr ==
                                            pairs[gains[g]].dmr;
             ++h) {
          max_lb = std::max(max_lb, pairs[gains[h]].lb_dd);
        }
        for (size_t k = g; k < h; ++k) keep_unless_beaten(gains[k], max_lb);
      }
      for (size_t c : alive) {
        if (dmr(c) == 0.0) max_lb = std::max(max_lb, pairs[c].lb_dd);
      }
      for (size_t c : alive) {
        if (dmr(c) == 0.0) keep_unless_beaten(c, max_lb);
      }
    } else {
      survivors = alive;
    }

    // Diversity increase for the survivors (lines 4-5 of Fig. 3): exact,
    // or the Section 4.3 optimistic bound estimate.
    increase_pairs.clear();
    for (size_t c : survivors) {
      Candidate& cand = pairs[c];
      if (!cand.has_exact) {
        if (options_.greedy_increment ==
            SolverOptions::GreedyIncrement::kExact) {
          double after = state.PreviewTaskStd(cand.task, cand.worker);
          cand.exact_dd = after - state.TaskExpectedStd(cand.task);
          ++result.stats.exact_std_evals;
        } else {
          cand.exact_dd = cand.ub_dd;
        }
        cand.has_exact = true;
      }
      increase_pairs.push_back({dmr(c), cand.exact_dd});
    }

    // Skyline filter and dominance-count ranking of the (dmr, dstd)
    // increase pairs (lines 6-8), via the shared dominance utilities.
    size_t best_local = TopDominating(increase_pairs);
    size_t winner = survivors[best_local];

    // Tie rule: TopDominating hands an exact tie to the first tied point.
    // Ranked rounds order survivors as an unstable std::sort of all alive
    // pairs by dmr descending lists them (the full per-round ranking the
    // fingerprints and golden tests were captured from); unranked rounds
    // keep alive order, which survivors already has. Workers that finished
    // at one site observe a task identically and tie often, so on a tie
    // re-run that sort and take its first tied survivor.
    const BiPoint top = increase_pairs[best_local];
    auto is_top = [&top](const BiPoint& p) {
      return p.x == top.x && p.y == top.y;
    };
    if (ranked && std::ranges::count_if(increase_pairs, is_top) > 1) {
      reference.assign(alive.begin(), alive.end());
      std::sort(reference.begin(), reference.end(),
                [&dmr](size_t a, size_t b) { return dmr(a) > dmr(b); });
      for (size_t c : reference) {
        if (pairs[c].survived_round == round &&
            is_top({dmr(c), pairs[c].exact_dd})) {
          winner = c;
          break;
        }
      }
    }

    // Commit the winning pair and retire its worker (lines 8-9).
    const Candidate& win = pairs[winner];
    state.Add(win.task, win.worker);
    changed.assign(1, win.task);
    for (size_t c : worker_pairs[win.worker]) pairs[c].alive = false;
    std::erase_if(alive, [&pairs](size_t c) { return !pairs[c].alive; });
  }

  result.assignment = state.assignment();
  result.objectives = state.Objectives();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

namespace internal {

void RegisterGreedySolver(SolverRegistry& registry) {
  RegisterBuiltin(registry, "greedy", [](const SolverOptions& options) {
    return std::make_unique<GreedySolver>(options);
  });
}

}  // namespace internal

}  // namespace rdbsc::core
