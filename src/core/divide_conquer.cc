#include "core/divide_conquer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dominance.h"
#include "core/greedy.h"
#include "core/registry.h"
#include "core/sampling.h"
#include "util/kmeans.h"
#include "util/math.h"
#include "util/rng.h"

namespace rdbsc::core {
namespace {

// A subproblem in global id space: a task subset, a worker subset, and the
// validity edges restricted to them.
struct Sub {
  std::vector<TaskId> tasks;
  std::vector<WorkerId> workers;
  // edges[k] = valid tasks (global ids, within `tasks`) of workers[k].
  std::vector<std::vector<TaskId>> edges;
};

// One worker-task assignment pair in global id space.
using Pair = std::pair<TaskId, WorkerId>;

class DcRunner {
 public:
  DcRunner(const Instance& instance, const SolverOptions& options,
           const util::Deadline& deadline, util::Executor& executor)
      : instance_(instance),
        options_(options),
        deadline_(deadline),
        executor_(executor),
        rng_(options.seed),
        merge_state_(instance),
        in_left_(static_cast<size_t>(instance.num_tasks()), 0),
        task1_(static_cast<size_t>(instance.num_workers()), kNoTask),
        task2_(static_cast<size_t>(instance.num_workers()), kNoTask),
        first_conflict_(static_cast<size_t>(instance.num_tasks()), -1),
        slot_of_task_(static_cast<size_t>(instance.num_tasks()), -1) {}

  util::StatusOr<std::vector<Pair>> Run(const CandidateGraph& graph,
                                        SolveStats* stats) {
    Sub root;
    root.tasks.resize(instance_.num_tasks());
    for (TaskId i = 0; i < instance_.num_tasks(); ++i) root.tasks[i] = i;
    for (WorkerId j = 0; j < instance_.num_workers(); ++j) {
      if (graph.Degree(j) == 0) continue;
      root.workers.push_back(j);
      const auto row = graph.TasksOf(j);
      root.edges.emplace_back(row.begin(), row.end());
    }
    stats_ = stats;

    // Phase 1 (serial): BG_Partition recursion. All rng_ draws happen
    // here, in the exact order of the recursive formulation, so phases 2-3
    // can run leaves in any order without perturbing the random stream.
    util::StatusOr<int> root_node = Descend(std::move(root));
    if (!root_node.ok()) return root_node.status();

    // Phase 2 (sharded): the leaves are fully independent subproblems --
    // each carries its own pre-drawn seed and shares only the read-only
    // instance and the runner deadline.
    const int num_leaves = static_cast<int>(leaves_.size());
    std::vector<std::vector<Pair>> leaf_pairs(num_leaves);
    std::vector<util::Status> leaf_status(num_leaves);
    std::vector<SolveStats> leaf_stats(num_leaves);
    std::atomic<bool> failed{false};
    executor_.ShardedFor(
        num_leaves, [&](int /*shard*/, int64_t begin, int64_t end) {
          for (int64_t leaf = begin; leaf < end; ++leaf) {
            if (failed.load(std::memory_order_relaxed)) return;
            util::StatusOr<std::vector<Pair>> solved = SolveLeaf(
                leaves_[leaf].sub, leaves_[leaf].seed, &leaf_stats[leaf]);
            if (solved.ok()) {
              leaf_pairs[leaf] = std::move(solved).value();
            } else {
              leaf_status[leaf] = solved.status();
              failed.store(true, std::memory_order_relaxed);
            }
          }
        });
    for (int leaf = 0; leaf < num_leaves; ++leaf) {
      if (!leaf_status[leaf].ok()) return leaf_status[leaf];
      if (stats_ != nullptr) {
        stats_->exact_std_evals += leaf_stats[leaf].exact_std_evals;
        stats_->sample_size =
            std::max(stats_->sample_size, leaf_stats[leaf].sample_size);
      }
    }

    // Phase 3 (serial): SA_Merge bottom-up in tree order -- merge takes no
    // random draws, so this reproduces the recursive result exactly.
    return Combine(root_node.value(), &leaf_pairs);
  }

  // EvaluateAssignment on the merge state: a replay after Reset equals a
  // fresh state's. Leaves the state loaded; call after the last Merge.
  ObjectiveValue Evaluate(const Assignment& assignment) {
    merge_state_.Reset(assignment);
    return merge_state_.Objectives();
  }

 private:
  // One node of the materialized BG_Partition tree (Fig. 6 call graph).
  struct Node {
    int left = -1;
    int right = -1;
    int leaf_index = -1;  ///< into leaves_ when this is a leaf
  };
  struct Leaf {
    Sub sub;
    uint64_t seed;  ///< embedded-solver seed, drawn in recursion order
  };

  // The recursive descent of RDB-SC_DC (Fig. 6), with the leaf *solves*
  // deferred: this phase only partitions and records leaves.
  util::StatusOr<int> Descend(Sub sub) {
    if (util::Status budget = deadline_.Check(); !budget.ok()) {
      return budget;
    }
    if (static_cast<int>(sub.tasks.size()) <= options_.gamma ||
        sub.workers.empty()) {
      return MakeLeaf(std::move(sub));
    }
    Sub left, right;
    if (!Partition(sub, &left, &right)) return MakeLeaf(std::move(sub));
    util::StatusOr<int> l = Descend(std::move(left));
    if (!l.ok()) return l.status();
    util::StatusOr<int> r = Descend(std::move(right));
    if (!r.ok()) return r.status();
    nodes_.push_back(Node{l.value(), r.value(), -1});
    return static_cast<int>(nodes_.size()) - 1;
  }

  int MakeLeaf(Sub sub) {
    // Matches the recursive formulation's draw: one fork per leaf, taken
    // when the recursion reaches it.
    leaves_.push_back(Leaf{std::move(sub), rng_.Fork().NextU64()});
    nodes_.push_back(
        Node{-1, -1, static_cast<int>(leaves_.size()) - 1});
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Bottom-up SA_Merge over the materialized tree.
  util::StatusOr<std::vector<Pair>> Combine(
      int node_index, std::vector<std::vector<Pair>>* leaf_pairs) {
    const Node& node = nodes_[node_index];
    if (node.leaf_index >= 0) {
      return std::move((*leaf_pairs)[node.leaf_index]);
    }
    util::StatusOr<std::vector<Pair>> s1 = Combine(node.left, leaf_pairs);
    if (!s1.ok()) return s1.status();
    util::StatusOr<std::vector<Pair>> s2 = Combine(node.right, leaf_pairs);
    if (!s2.ok()) return s2.status();
    return Merge(s1.value(), s2.value());
  }

  // Leaf: materialize a local Instance and run the embedded solver.
  // Called from pool threads; must only touch the leaf's own state.
  util::StatusOr<std::vector<Pair>> SolveLeaf(const Sub& sub, uint64_t seed,
                                              SolveStats* leaf_stats) const {
    std::vector<Task> tasks;
    tasks.reserve(sub.tasks.size());
    std::unordered_map<TaskId, TaskId> global_to_local;
    for (size_t a = 0; a < sub.tasks.size(); ++a) {
      global_to_local[sub.tasks[a]] = static_cast<TaskId>(a);
      tasks.push_back(instance_.task(sub.tasks[a]));
    }
    std::vector<Worker> workers;
    workers.reserve(sub.workers.size());
    std::vector<std::vector<TaskId>> local_edges(sub.workers.size());
    for (size_t k = 0; k < sub.workers.size(); ++k) {
      workers.push_back(instance_.worker(sub.workers[k]));
      for (TaskId g : sub.edges[k]) {
        local_edges[k].push_back(global_to_local.at(g));
      }
    }
    Instance local(std::move(tasks), std::move(workers), instance_.now(),
                   instance_.policy());
    CandidateGraph local_graph =
        CandidateGraph::FromEdges(local, std::move(local_edges));

    SolverOptions leaf_options = options_;
    leaf_options.seed = seed;
    // The leaf solver shares this runner's deadline so a budget covers the
    // whole divide-and-conquer tree, not each leaf separately. Leaves run
    // serially inside: the fan-out happens at leaf granularity.
    SolveRequest leaf_request;
    leaf_request.instance = &local;
    leaf_request.graph = &local_graph;
    leaf_request.deadline = &deadline_;
    util::StatusOr<SolveResult> solved =
        options_.leaf_use_greedy
            ? GreedySolver(leaf_options).Solve(leaf_request)
            : SamplingSolver(leaf_options).Solve(leaf_request);
    if (!solved.ok()) return solved.status();
    const SolveResult& leaf = solved.value();
    leaf_stats->exact_std_evals = leaf.stats.exact_std_evals;
    leaf_stats->sample_size = leaf.stats.sample_size;

    std::vector<Pair> pairs;
    for (WorkerId lj = 0; lj < local.num_workers(); ++lj) {
      TaskId li = leaf.assignment.TaskOf(lj);
      if (li != kNoTask) {
        pairs.emplace_back(sub.tasks[li], sub.workers[lj]);
      }
    }
    return pairs;
  }

  // BG_Partition (Fig. 7). Returns false when the split degenerates.
  bool Partition(const Sub& sub, Sub* left, Sub* right) {
    std::vector<util::KmPoint> points;
    points.reserve(sub.tasks.size());
    for (TaskId i : sub.tasks) {
      points.push_back({instance_.task(i).location.x,
                        instance_.task(i).location.y});
    }
    util::TwoMeansResult clusters = util::TwoMeans(points, rng_);

    for (size_t a = 0; a < sub.tasks.size(); ++a) {
      if (clusters.label[a] == 0) {
        left->tasks.push_back(sub.tasks[a]);
        in_left_[sub.tasks[a]] = 1;
      } else {
        right->tasks.push_back(sub.tasks[a]);
      }
    }
    const bool split = !left->tasks.empty() && !right->tasks.empty();

    for (size_t k = 0; split && k < sub.workers.size(); ++k) {
      std::vector<TaskId> left_edges;
      std::vector<TaskId> right_edges;
      for (TaskId g : sub.edges[k]) {
        (in_left_[g] ? left_edges : right_edges).push_back(g);
      }
      // Workers reaching only one side are isolated there; straddling
      // workers are duplicated into both subproblems (Fig. 8).
      if (!left_edges.empty()) {
        left->workers.push_back(sub.workers[k]);
        left->edges.push_back(std::move(left_edges));
      }
      if (!right_edges.empty()) {
        right->workers.push_back(sub.workers[k]);
        right->edges.push_back(std::move(right_edges));
      }
    }
    for (TaskId i : left->tasks) in_left_[i] = 0;
    return split;
  }

  // SA_Merge (Fig. 9).
  util::StatusOr<std::vector<Pair>> Merge(const std::vector<Pair>& s1,
                                          const std::vector<Pair>& s2) {
    // Conflicting workers: assigned in both halves (their copies disagree).
    for (const Pair& p : s1) task1_[p.second] = p.first;
    for (const Pair& p : s2) task2_[p.second] = p.first;
    std::vector<WorkerId> conflicts;
    for (const Pair& p : s1) {
      if (task2_[p.second] != kNoTask) conflicts.push_back(p.second);
    }
    std::sort(conflicts.begin(), conflicts.end());

    if (conflicts.empty()) {
      for (const Pair& p : s1) task1_[p.second] = kNoTask;
      for (const Pair& p : s2) task2_[p.second] = kNoTask;
      std::vector<Pair> merged = s1;
      merged.insert(merged.end(), s2.begin(), s2.end());
      return merged;
    }

    // The two options of conflict c: its copy's task on each side.
    std::vector<TaskId> side1(conflicts.size()), side2(conflicts.size());
    for (size_t c = 0; c < conflicts.size(); ++c) {
      side1[c] = task1_[conflicts[c]];
      side2[c] = task2_[conflicts[c]];
    }

    // Only the halves' tasks can ever hold a worker in the merge state.
    std::vector<TaskId> merge_tasks;
    merge_tasks.reserve(s1.size() + s2.size());
    for (const Pair& p : s1) merge_tasks.push_back(p.first);
    for (const Pair& p : s2) merge_tasks.push_back(p.first);
    std::sort(merge_tasks.begin(), merge_tasks.end());
    merge_tasks.erase(std::unique(merge_tasks.begin(), merge_tasks.end()),
                      merge_tasks.end());

    // The evaluation state over the full instance is shared by every merge
    // of the solve and emptied on every way out of this one, the budget
    // error included, so each merge starts from a fresh state's bits.
    struct ClearOnExit {
      AssignmentState& state;
      const std::vector<TaskId>& tasks;
      ~ClearOnExit() { state.Clear(tasks); }
    } clear_on_exit{merge_state_, merge_tasks};
    AssignmentState& state = merge_state_;

    // Load every non-conflicting pair (Lemma 6.1: those assignments are
    // stable).
    for (const Pair& p : s1) {
      if (task2_[p.second] == kNoTask) state.Add(p.first, p.second);
    }
    for (const Pair& p : s2) {
      if (task1_[p.second] == kNoTask) state.Add(p.first, p.second);
    }
    for (const Pair& p : s1) task1_[p.second] = kNoTask;
    for (const Pair& p : s2) task2_[p.second] = kNoTask;

    // Dependency components: conflicting workers sharing a task option must
    // be resolved together (Lemma 6.2); singletons are ICWs. A union-find
    // over the conflicts joins each one to the first conflict seen on
    // either of its tasks; components are numbered in order of their
    // smallest conflict index, and list their conflicts ascending.
    std::vector<int> parent(conflicts.size());
    for (size_t c = 0; c < conflicts.size(); ++c) {
      parent[c] = static_cast<int>(c);
    }
    auto find = [&parent](int c) {
      while (parent[c] != c) c = parent[c] = parent[parent[c]];
      return c;
    };
    for (size_t c = 0; c < conflicts.size(); ++c) {
      for (TaskId t : {side1[c], side2[c]}) {
        int& first = first_conflict_[t];
        if (first < 0) {
          first = static_cast<int>(c);
        } else {
          parent[find(static_cast<int>(c))] = find(first);
        }
      }
    }
    for (size_t c = 0; c < conflicts.size(); ++c) {
      first_conflict_[side1[c]] = -1;
      first_conflict_[side2[c]] = -1;
    }
    std::vector<int> group_of_root(conflicts.size(), -1);
    std::vector<std::vector<int>> groups;
    for (size_t c = 0; c < conflicts.size(); ++c) {
      int& group = group_of_root[find(static_cast<int>(c))];
      if (group < 0) {
        group = static_cast<int>(groups.size());
        groups.emplace_back();
      }
      groups[group].push_back(static_cast<int>(c));
    }

    for (const std::vector<int>& group : groups) {
      if (util::Status budget = deadline_.Check(); !budget.ok()) {
        return budget;
      }
      ResolveGroup(group, conflicts, side1, side2, merge_tasks, &state);
    }

    std::vector<Pair> merged;
    for (WorkerId j = 0; j < instance_.num_workers(); ++j) {
      TaskId i = state.TaskOf(j);
      if (i != kNoTask) merged.emplace_back(i, j);
    }
    return merged;
  }

  // Keeps exactly one copy of each conflicting worker in `group`, choosing
  // the combination with the best merged objectives.
  //
  // The 2^k enumeration adds the group's workers in bit order, scores the
  // state and removes them again in bit order. Groups share no task, so
  // throughout, a task the group touches holds its base list (the workers
  // it had when the group started) followed by the group workers on it in
  // ascending bit order. Its E[STD] is therefore a function of which of
  // those workers are on it, and each (task, on-mask) value is computed
  // once and fed through AddKnown/RemoveKnown, which apply the same
  // running-total update as Add/Remove: every combo's objectives, rounding
  // drift included, match scoring it with Add, Objectives() and Remove.
  void ResolveGroup(const std::vector<int>& group,
                    const std::vector<WorkerId>& conflicts,
                    const std::vector<TaskId>& side1,
                    const std::vector<TaskId>& side2,
                    const std::vector<TaskId>& merge_tasks,
                    AssignmentState* state) {
    const int k = static_cast<int>(group.size());
    ++stats_->merge_groups;
    if (k > options_.max_dcw_group) {
      // Oversized DCW group: greedy per-worker fallback.
      for (int c : group) {
        WorkerId w = conflicts[c];
        ObjectiveValue keep1 = state->PreviewAdd(side1[c], w);
        ObjectiveValue keep2 = state->PreviewAdd(side2[c], w);
        state->Add(Better(keep1, keep2) ? side1[c] : side2[c], w);
        stats_->merge_std_evals += 3;  // two previews and the commit
      }
      return;
    }

    // Dense per-group tables. Slot s is the s-th distinct task the group
    // touches; option (b, side) is worker group[b]'s copy on that side and
    // owns bit `bit` of its slot's on-mask. Bits are handed out in (b,
    // side) order, so ascending bits are ascending group order.
    GroupTables& g = group_tables_;
    g.slots.clear();
    g.options.resize(static_cast<size_t>(2 * k));
    for (int b = 0; b < k; ++b) {
      const int c = group[b];
      for (int side = 0; side < 2; ++side) {
        const TaskId t = side == 0 ? side1[c] : side2[c];
        int& slot = slot_of_task_[t];
        if (slot < 0) {
          slot = static_cast<int>(g.slots.size());
          g.slots.push_back({t, state->TaskObservations(t).size(), 0, 0});
        }
        GroupTables::Slot& sl = g.slots[slot];
        g.options[2 * b + side] = {slot, uint32_t{1} << sl.width,
                                   state->ObservationFor(t, conflicts[c])};
        ++sl.width;
      }
    }
    size_t memo_size = 0;
    for (GroupTables::Slot& sl : g.slots) {
      sl.memo_begin = memo_size;
      memo_size += size_t{1} << sl.width;
    }
    g.memo.assign(memo_size, std::numeric_limits<double>::quiet_NaN());
    g.on.assign(g.slots.size(), 0);

    // The min reduced reliability of the tasks the group cannot change.
    double outside_min_r = std::numeric_limits<double>::infinity();
    for (TaskId t : merge_tasks) {
      if (slot_of_task_[t] < 0 && !state->WorkersOf(t).empty()) {
        outside_min_r =
            std::min(outside_min_r, state->TaskReducedReliability(t));
      }
    }

    auto add = [&](int b, uint32_t side) {
      const GroupTables::Option& o = g.options[2 * b + side];
      g.on[o.slot] |= o.bit;
      state->AddKnown(g.slots[o.slot].task, conflicts[group[b]], o.obs,
                      SlotStd(o.slot, *state));
    };

    // Exhaustive 2^k enumeration (Lemma 6.2): bit b of `combo` selects the
    // side whose copy of worker group[b] survives.
    const uint32_t num_combos = uint32_t{1} << k;
    std::vector<BiPoint>& combo_points = g.combo_points;
    combo_points.resize(num_combos);
    for (uint32_t combo = 0; combo < num_combos; ++combo) {
      for (int b = 0; b < k; ++b) add(b, (combo >> b) & 1);
      // Some touched task holds a group worker now, so min_r is finite.
      double min_r = outside_min_r;
      for (const GroupTables::Slot& sl : g.slots) {
        if (!state->WorkersOf(sl.task).empty()) {
          min_r = std::min(min_r, state->TaskReducedReliability(sl.task));
        }
      }
      combo_points[combo] = {util::ReducedToProbability(min_r),
                             state->TotalExpectedStd()};
      for (int b = 0; b < k; ++b) {
        const GroupTables::Option& o = g.options[2 * b + ((combo >> b) & 1)];
        g.on[o.slot] &= ~o.bit;
        state->RemoveKnown(conflicts[group[b]], SlotStd(o.slot, *state));
      }
    }
    stats_->merge_combos += num_combos;

    uint32_t best = static_cast<uint32_t>(TopDominating(combo_points));
    for (int b = 0; b < k; ++b) add(b, (best >> b) & 1);
    for (const GroupTables::Slot& sl : g.slots) slot_of_task_[sl.task] = -1;
  }

  // E[STD] of slot s's task with the group workers of its current on-mask:
  // the base list plus those workers in ascending bit order, memoized.
  double SlotStd(int s, const AssignmentState& state) {
    GroupTables& g = group_tables_;
    const GroupTables::Slot& sl = g.slots[s];
    const uint32_t on = g.on[s];
    double& value = g.memo[sl.memo_begin + on];
    if (std::isnan(value)) {
      const std::vector<Observation>& current =
          state.TaskObservations(sl.task);
      g.scratch.assign(current.begin(),
                       current.begin() + static_cast<ptrdiff_t>(sl.base));
      // Options are stored in ascending bit order within each slot.
      for (const GroupTables::Option& o : g.options) {
        if (o.slot == s && (on & o.bit)) g.scratch.push_back(o.obs);
      }
      value = ExpectedStd(instance_.task(sl.task), g.scratch);
      ++stats_->merge_std_evals;
    }
    return value;
  }

  // Deterministic total order on objectives used for tie-breaking.
  static bool Better(const ObjectiveValue& a, const ObjectiveValue& b) {
    if (a.total_std != b.total_std) return a.total_std > b.total_std;
    return a.min_reliability > b.min_reliability;
  }

  const Instance& instance_;
  const SolverOptions& options_;
  const util::Deadline& deadline_;
  util::Executor& executor_;
  util::Rng rng_;
  SolveStats* stats_ = nullptr;
  std::vector<Node> nodes_;
  std::vector<Leaf> leaves_;

  // SA_Merge's evaluation state, one per solve (see Merge).
  AssignmentState merge_state_;
  // Per-task / per-worker scratch, all-clear between uses: Partition's
  // left-side marks, Merge's task of each worker in either half (kNoTask
  // elsewhere) and the first conflict seen on each task (-1 elsewhere).
  std::vector<uint8_t> in_left_;
  std::vector<TaskId> task1_;
  std::vector<TaskId> task2_;
  std::vector<int> first_conflict_;

  // ResolveGroup's per-group tables, reused across groups and merges.
  struct GroupTables {
    struct Slot {
      TaskId task;
      size_t base;        ///< observations on the task before the group
      int width;          ///< group options landing on the task (d_t)
      size_t memo_begin;  ///< into memo, 2^width entries
    };
    struct Option {
      int slot;
      uint32_t bit;
      Observation obs;
    };
    std::vector<Slot> slots;
    std::vector<Option> options;  ///< [2 * b + side]
    std::vector<double> memo;  ///< NaN = not yet evaluated
    std::vector<uint32_t> on;  ///< per-slot on-mask of the current combo
    std::vector<Observation> scratch;
    std::vector<BiPoint> combo_points;
  };
  GroupTables group_tables_;
  // Task -> its slot in the group being resolved, -1 elsewhere.
  std::vector<int> slot_of_task_;
};

}  // namespace

util::StatusOr<SolveResult> DivideConquerSolver::SolveImpl(
    const Instance& instance, const CandidateGraph& graph,
    const util::Deadline& deadline, util::Executor& executor,
    SolveStats* partial_stats) {
  auto t0 = std::chrono::steady_clock::now();
  SolveResult result;
  DcRunner runner(instance, options_, deadline, executor);
  util::StatusOr<std::vector<Pair>> pairs = runner.Run(graph, &result.stats);
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!pairs.ok()) {
    return BudgetError(deadline, result.stats, partial_stats);
  }

  result.assignment = Assignment(instance.num_workers());
  for (const Pair& p : pairs.value()) {
    result.assignment.Assign(p.second, p.first);
  }
  result.objectives = runner.Evaluate(result.assignment);
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

namespace internal {

void RegisterDivideConquerSolvers(SolverRegistry& registry) {
  RegisterBuiltin(registry, "dc", [](const SolverOptions& options) {
    return std::make_unique<DivideConquerSolver>(options);
  });
  RegisterBuiltin(registry, "gtruth", [](const SolverOptions& options) {
    return std::make_unique<GroundTruthSolver>(options);
  });
}

}  // namespace internal

}  // namespace rdbsc::core
