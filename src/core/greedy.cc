#include "core/greedy.h"

#include "core/dominance.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/registry.h"
#include "util/math.h"

namespace rdbsc::core {
namespace {

// One candidate (task, worker) edge with its increase-pair inputs. Its
// Delta E[STD] bounds live in two arrays beside it (see SolveImpl).
struct Candidate {
  TaskId task = kNoTask;
  WorkerId worker = kNoWorker;
  double wt = 0.0;  // the worker's reliability weight -ln(1-p)
  Observation obs;  // the worker as the task would see it
  // Valid while the task roster is unchanged (refreshed when it changes):
  bool has_exact = false;
  double exact_dd = 0.0;  // exact Delta E[STD]
  // Per round; dmr is only meaningful on the arg-min task's pairs:
  double dmr = 0.0;  // Delta of the minimum reduced reliability
  int64_t survived_round = -1;  // last round the pair survived pruning
  bool alive = true;
};

// The largest values[k] over k in `at`. The values are +0 or more, never
// NaN or -0 (each is a std::max(0.0, x)), so the maximum is one double
// whatever the order, and four accumulators break the dependency chain.
double MaxOver(const std::vector<double>& values,
               const std::vector<size_t>& at) {
  double m0 = -std::numeric_limits<double>::infinity();
  double m1 = m0, m2 = m0, m3 = m0;
  size_t k = 0;
  for (; k + 4 <= at.size(); k += 4) {
    m0 = std::max(m0, values[at[k]]);
    m1 = std::max(m1, values[at[k + 1]]);
    m2 = std::max(m2, values[at[k + 2]]);
    m3 = std::max(m3, values[at[k + 3]]);
  }
  for (; k < at.size(); ++k) m0 = std::max(m0, values[at[k]]);
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

// A pair's place in the tie rule's reference order.
struct RankKey {
  double dmr = 0.0;
  size_t pair = 0;
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
  SolveResult result;
  AssignmentState state(instance);

  // Line 2 of Fig. 3: all valid pairs, worker-major, so worker j's pairs
  // are the index range [worker_begin[j], worker_begin[j + 1]). Each
  // task's pairs, ascending, are one slice of task_pairs (CSR by task).
  const int num_tasks = instance.num_tasks();
  std::vector<Candidate> pairs;
  pairs.reserve(static_cast<size_t>(graph.NumEdges()));
  std::vector<size_t> worker_begin(instance.num_workers() + 1);
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    worker_begin[j] = pairs.size();
    double wt = util::ReliabilityWeight(instance.worker(j).confidence);
    for (TaskId i : graph.TasksOf(j)) {
      pairs.push_back(Candidate{
          .task = i, .worker = j, .wt = wt, .obs = state.ObservationFor(i, j)});
    }
  }
  worker_begin.back() = pairs.size();
  std::vector<size_t> task_begin(num_tasks + 1, 0);
  for (const Candidate& cand : pairs) ++task_begin[cand.task + 1];
  for (TaskId i = 0; i < num_tasks; ++i) task_begin[i + 1] += task_begin[i];
  std::vector<size_t> task_pairs(pairs.size());
  {
    std::vector<size_t> cursor(task_begin.begin(), task_begin.end() - 1);
    for (size_t c = 0; c < pairs.size(); ++c) {
      task_pairs[cursor[pairs[c].task]++] = c;
    }
  }
  auto pairs_of_task = [&task_pairs, &task_begin](TaskId i) {
    return std::span<const size_t>(task_pairs.data() + task_begin[i],
                                   task_begin[i + 1] - task_begin[i]);
  };

  // Lower and upper bounds of each pair's Delta E[STD], by pair index,
  // valid while its task's roster is unchanged. The prune passes read
  // only these, so they sit apart from the wider Candidate records.
  std::vector<double> lb_dd(pairs.size());
  std::vector<double> ub_dd(pairs.size());

  std::vector<size_t> alive;  // candidate indices still assignable, ascending
  alive.reserve(pairs.size());
  for (size_t c = 0; c < pairs.size(); ++c) alive.push_back(c);

  // Tasks whose roster changed since their pairs were last previewed:
  // every task before round 1, then only the previous winner's task.
  std::vector<TaskId> changed(num_tasks);
  for (TaskId i = 0; i < num_tasks; ++i) changed[i] = i;

  std::vector<size_t> gains;      // arg-min task pairs with dmr > 0
  std::vector<size_t> survivors;  // ranked: gains, then dmr == 0 pairs
  std::vector<RankKey> reference;  // the tie rule's order (see below)
  std::vector<BiPoint> increase_pairs;

  for (int64_t round = 0; !alive.empty(); ++round) {
    if (deadline.Exhausted()) {
      return BudgetError(deadline, result.stats, partial_stats);
    }
    MinPair mp = ComputeMins(state, num_tasks);

    // Refresh the diversity bounds of the changed rosters' pairs.
    for (TaskId i : changed) {
      if (pairs_of_task(i).empty()) continue;
      DiversityBounds before = state.TaskStdBounds(i);
      for (size_t c : pairs_of_task(i)) {
        Candidate& cand = pairs[c];
        if (!cand.alive) continue;
        DiversityBounds after = state.PreviewTaskStdBounds(i, cand.obs);
        lb_dd[c] = std::max(0.0, after.lb - before.ub);
        ub_dd[c] = std::max(0.0, after.ub - before.lb);
        cand.has_exact = false;
      }
    }

    // dmr = max(0, min(excl, R_i + wt) - min1), excl being the smallest R
    // of the other tasks. For i != arg1, excl = min1 <= R_i <= R_i + wt,
    // so dmr is exactly 0: only the arg-min task's pairs can raise min R.
    const double r_arg1 = state.TaskReducedReliability(mp.arg1);
    for (size_t c : pairs_of_task(mp.arg1)) {
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
    // others form one dmr == 0 group judged against the max lb of every
    // alive pair, gains and dmr == 0 pairs together.
    survivors.clear();
    const bool ranked = options_.use_pruning && alive.size() > 1;
    if (ranked) {
      gains.clear();
      for (size_t c : pairs_of_task(mp.arg1)) {
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
          max_lb = std::max(max_lb, lb_dd[gains[h]]);
        }
        for (size_t k = g; k < h; ++k) {
          if (max_lb > ub_dd[gains[k]]) {
            ++result.stats.pruned_pairs;
          } else {
            survivors.push_back(gains[k]);
          }
        }
      }
      // The dmr == 0 group, in one branch-free pass: with no gains that
      // is every alive pair.
      max_lb = std::max(max_lb, MaxOver(lb_dd, alive));
      size_t kept = survivors.size();
      int64_t beaten = 0;
      survivors.resize(kept + alive.size());
      for (size_t c : alive) {
        const bool judged = gains.empty() || dmr(c) == 0.0;
        const bool below = max_lb > ub_dd[c];
        survivors[kept] = c;
        kept += judged && !below ? 1 : 0;
        beaten += judged && below ? 1 : 0;
      }
      survivors.resize(kept);
      result.stats.pruned_pairs += beaten;
      for (size_t c : survivors) pairs[c].survived_round = round;
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
          cand.exact_dd = ub_dd[c];
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
    // re-run that sort and take its first tied survivor. It sorts compact
    // {dmr, pair} keys with the same comparator: introsort moves elements
    // only as the comparisons direct, and every comparison sees the same
    // dmr values, so the permutation is the one the index sort produced.
    const BiPoint top = increase_pairs[best_local];
    auto is_top = [&top](const BiPoint& p) {
      return p.x == top.x && p.y == top.y;
    };
    if (ranked && std::ranges::count_if(increase_pairs, is_top) > 1) {
      reference.clear();
      for (size_t c : alive) reference.push_back({dmr(c), c});
      std::sort(reference.begin(), reference.end(),
                [](const RankKey& a, const RankKey& b) {
                  return a.dmr > b.dmr;
                });
      for (const RankKey& key : reference) {
        if (pairs[key.pair].survived_round == round &&
            is_top({key.dmr, pairs[key.pair].exact_dd})) {
          winner = key.pair;
          break;
        }
      }
    }

    // Commit the winning pair and retire its worker (lines 8-9).
    const Candidate& win = pairs[winner];
    state.Add(win.task, win.worker);
    changed.assign(1, win.task);
    const size_t retired_begin = worker_begin[win.worker];
    const size_t retired_end = worker_begin[win.worker + 1];
    for (size_t c = retired_begin; c < retired_end; ++c) {
      pairs[c].alive = false;
    }
    alive.erase(std::lower_bound(alive.begin(), alive.end(), retired_begin),
                std::lower_bound(alive.begin(), alive.end(), retired_end));
  }

  result.assignment = state.assignment();
  result.objectives = state.Objectives();
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
