#include "core/divide_conquer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/dominance.h"
#include "core/greedy.h"
#include "core/registry.h"
#include "core/sampling.h"
#include "util/kmeans.h"
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
        rng_(options.seed) {}

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
    leaves_.push_back(Leaf{std::move(sub), rng_.Fork().engine()()});
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

    std::unordered_set<TaskId> in_left;
    for (size_t a = 0; a < sub.tasks.size(); ++a) {
      if (clusters.label[a] == 0) {
        left->tasks.push_back(sub.tasks[a]);
        in_left.insert(sub.tasks[a]);
      } else {
        right->tasks.push_back(sub.tasks[a]);
      }
    }
    if (left->tasks.empty() || right->tasks.empty()) return false;

    for (size_t k = 0; k < sub.workers.size(); ++k) {
      std::vector<TaskId> left_edges;
      std::vector<TaskId> right_edges;
      for (TaskId g : sub.edges[k]) {
        (in_left.contains(g) ? left_edges : right_edges).push_back(g);
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
    return true;
  }

  // SA_Merge (Fig. 9).
  util::StatusOr<std::vector<Pair>> Merge(const std::vector<Pair>& s1,
                                          const std::vector<Pair>& s2) {
    // Conflicting workers: assigned in both halves (their copies disagree).
    std::unordered_map<WorkerId, TaskId> task1, task2;
    for (const Pair& p : s1) task1[p.second] = p.first;
    for (const Pair& p : s2) task2[p.second] = p.first;

    std::vector<WorkerId> conflicts;
    // LINT-ALLOW(unordered-iter): membership scan; conflicts sorted below
    for (const auto& [w, t] : task1) {
      if (task2.contains(w)) conflicts.push_back(w);
    }
    std::sort(conflicts.begin(), conflicts.end());

    if (conflicts.empty()) {
      std::vector<Pair> merged = s1;
      merged.insert(merged.end(), s2.begin(), s2.end());
      return merged;
    }

    // Evaluation state over the full instance, loaded with every
    // non-conflicting pair (Lemma 6.1: those assignments are stable).
    AssignmentState state(instance_);
    std::unordered_set<WorkerId> conflict_set(conflicts.begin(),
                                              conflicts.end());
    for (const Pair& p : s1) {
      if (!conflict_set.contains(p.second)) state.Add(p.first, p.second);
    }
    for (const Pair& p : s2) {
      if (!conflict_set.contains(p.second)) state.Add(p.first, p.second);
    }

    // Dependency components: conflicting workers sharing a task option must
    // be resolved together (Lemma 6.2); singletons are ICWs.
    std::unordered_map<TaskId, std::vector<int>> by_task;
    for (size_t c = 0; c < conflicts.size(); ++c) {
      by_task[task1[conflicts[c]]].push_back(static_cast<int>(c));
      by_task[task2[conflicts[c]]].push_back(static_cast<int>(c));
    }
    std::vector<int> component(conflicts.size(), -1);
    int num_components = 0;
    for (size_t seed = 0; seed < conflicts.size(); ++seed) {
      if (component[seed] != -1) continue;
      std::vector<int> stack{static_cast<int>(seed)};
      component[seed] = num_components;
      while (!stack.empty()) {
        int c = stack.back();
        stack.pop_back();
        for (TaskId t : {task1[conflicts[c]], task2[conflicts[c]]}) {
          for (int other : by_task[t]) {
            if (component[other] == -1) {
              component[other] = num_components;
              stack.push_back(other);
            }
          }
        }
      }
      ++num_components;
    }
    std::vector<std::vector<int>> groups(num_components);
    for (size_t c = 0; c < conflicts.size(); ++c) {
      groups[component[c]].push_back(static_cast<int>(c));
    }

    for (const std::vector<int>& group : groups) {
      if (util::Status budget = deadline_.Check(); !budget.ok()) {
        return budget;
      }
      ResolveGroup(group, conflicts, task1, task2, &state);
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
  void ResolveGroup(const std::vector<int>& group,
                    const std::vector<WorkerId>& conflicts,
                    std::unordered_map<WorkerId, TaskId>& task1,
                    std::unordered_map<WorkerId, TaskId>& task2,
                    AssignmentState* state) {
    const int k = static_cast<int>(group.size());
    if (k > options_.max_dcw_group) {
      // Oversized DCW group: greedy per-worker fallback.
      for (int c : group) {
        WorkerId w = conflicts[c];
        ObjectiveValue keep1 = state->PreviewAdd(task1[w], w);
        ObjectiveValue keep2 = state->PreviewAdd(task2[w], w);
        state->Add(Better(keep1, keep2) ? task1[w] : task2[w], w);
      }
      return;
    }

    // Exhaustive 2^k enumeration (Lemma 6.2): bit b of `combo` selects the
    // side whose copy of worker group[b] survives.
    std::vector<ObjectiveValue> values;
    values.reserve(size_t{1} << k);
    for (uint32_t combo = 0; combo < (uint32_t{1} << k); ++combo) {
      for (int b = 0; b < k; ++b) {
        WorkerId w = conflicts[group[b]];
        state->Add((combo >> b) & 1 ? task2[w] : task1[w], w);
      }
      values.push_back(state->Objectives());
      for (int b = 0; b < k; ++b) state->Remove(conflicts[group[b]]);
    }

    std::vector<BiPoint> combo_points(values.size());
    for (size_t a = 0; a < values.size(); ++a) {
      combo_points[a] = {values[a].min_reliability, values[a].total_std};
    }
    uint32_t best = static_cast<uint32_t>(TopDominating(combo_points));
    for (int b = 0; b < k; ++b) {
      WorkerId w = conflicts[group[b]];
      state->Add((best >> b) & 1 ? task2[w] : task1[w], w);
    }
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
  result.objectives = EvaluateAssignment(instance, result.assignment);
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
