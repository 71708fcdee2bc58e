#include "core/divide_conquer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/sampling.h"
#include "util/kmeans.h"
#include "util/math.h"
#include "util/rng.h"

namespace rdbsc::core {
namespace {

using Clock = std::chrono::steady_clock;

float SecondsSince(Clock::time_point t0) {
  return static_cast<float>(
      std::chrono::duration<double>(Clock::now() - t0).count());
}

// A subproblem in global id space, as CSR: a task subset (ascending), a
// worker subset, and the validity edges restricted to them.
struct Sub {
  std::vector<TaskId> tasks;
  std::vector<WorkerId> workers;
  // workers[k]'s valid tasks (global ids, within `tasks`, ascending) are
  // edges[offsets[k], offsets[k + 1]).
  std::vector<TaskId> edges;
  std::vector<int64_t> offsets;
};

// One worker-task assignment pair in global id space, with the evidence
// its leaf computed.
using Pick = internal::DrawnPick;

// Adds a pick to `state` as Add(task, worker) would, from its evidence:
// the carried observation, and on an empty roster the carried E[STD].
void LoadPick(AssignmentState& state, const Pick& p) {
  if (state.WorkersOf(p.task).empty()) {
    state.AddKnown(p.task, p.worker, p.obs, p.e1);
  } else {
    state.Add(p.task, p.worker, p.obs);
  }
}

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
        pick1_(static_cast<size_t>(instance.num_workers()), -1),
        pick2_(static_cast<size_t>(instance.num_workers()), -1),
        first_conflict_(static_cast<size_t>(instance.num_tasks()), -1),
        scorer_(instance.num_tasks()) {}

  util::StatusOr<std::vector<Pick>> Run(const CandidateGraph& graph,
                                        SolveStats* stats) {
    stats_ = stats;
    Clock::time_point t0 = Clock::now();
    Sub root;
    root.tasks.resize(instance_.num_tasks());
    for (TaskId i = 0; i < instance_.num_tasks(); ++i) root.tasks[i] = i;
    size_t active = 0;
    for (WorkerId j = 0; j < instance_.num_workers(); ++j) {
      active += graph.Degree(j) > 0 ? 1 : 0;
    }
    root.workers.reserve(active);
    root.offsets.reserve(active + 1);
    root.edges.reserve(static_cast<size_t>(graph.NumEdges()));
    root.offsets.push_back(0);
    for (WorkerId j = 0; j < instance_.num_workers(); ++j) {
      if (graph.Degree(j) == 0) continue;
      root.workers.push_back(j);
      const auto row = graph.TasksOf(j);
      root.edges.insert(root.edges.end(), row.begin(), row.end());
      root.offsets.push_back(static_cast<int64_t>(root.edges.size()));
    }

    // Phase 1 (serial): BG_Partition recursion. All rng_ draws happen
    // here, in the exact order of the recursive formulation, so phases 2-3
    // can run leaves in any order without perturbing the random stream.
    util::StatusOr<int> root_node = Descend(std::move(root));
    stats_->partition_seconds = SecondsSince(t0);
    if (!root_node.ok()) return root_node.status();

    // Phase 2 (sharded): the leaves are fully independent subproblems --
    // each carries its own pre-drawn seed and shares only the read-only
    // instance and the runner deadline.
    t0 = Clock::now();
    const int num_leaves = static_cast<int>(leaves_.size());
    std::vector<std::vector<Pick>> leaf_picks(num_leaves);
    std::vector<util::Status> leaf_status(num_leaves);
    std::vector<SolveStats> leaf_stats(num_leaves);
    std::atomic<bool> failed{false};
    executor_.ShardedFor(
        num_leaves, [&](int /*shard*/, int64_t begin, int64_t end) {
          for (int64_t leaf = begin; leaf < end; ++leaf) {
            if (failed.load(std::memory_order_relaxed)) return;
            util::StatusOr<std::vector<Pick>> solved = SolveLeaf(
                leaves_[leaf].sub, leaves_[leaf].seed, &leaf_stats[leaf]);
            if (solved.ok()) {
              leaf_picks[leaf] = std::move(solved).value();
            } else {
              leaf_status[leaf] = solved.status();
              failed.store(true, std::memory_order_relaxed);
            }
          }
        });
    stats_->leaf_seconds = SecondsSince(t0);
    for (int leaf = 0; leaf < num_leaves; ++leaf) {
      if (!leaf_status[leaf].ok()) return leaf_status[leaf];
      stats_->exact_std_evals += leaf_stats[leaf].exact_std_evals;
      stats_->sample_size =
          std::max(stats_->sample_size, leaf_stats[leaf].sample_size);
    }

    // Phase 3 (serial): SA_Merge bottom-up in tree order -- merge takes no
    // random draws, so this reproduces the recursive result exactly.
    t0 = Clock::now();
    util::StatusOr<std::vector<Pick>> merged =
        Combine(root_node.value(), &leaf_picks);
    stats_->merge_seconds = SecondsSince(t0);
    return merged;
  }

  // EvaluateAssignment of Run's picks on the merge state, which every
  // Merge leaves empty: Reset's replay, Add in ascending worker order, made
  // from the picks' evidence. Leaves the state loaded; call once, last.
  ObjectiveValue Evaluate(const std::vector<Pick>& picks) {
    for (size_t a = 0; a < picks.size(); ++a) {
      pick1_[picks[a].worker] = static_cast<int>(a);
    }
    for (WorkerId j = 0; j < instance_.num_workers(); ++j) {
      if (pick1_[j] >= 0) {
        LoadPick(merge_state_, picks[pick1_[j]]);
        pick1_[j] = -1;
      }
    }
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
  util::StatusOr<std::vector<Pick>> Combine(
      int node_index, std::vector<std::vector<Pick>>* leaf_picks) {
    const Node& node = nodes_[node_index];
    if (node.leaf_index >= 0) {
      return std::move((*leaf_picks)[node.leaf_index]);
    }
    util::StatusOr<std::vector<Pick>> s1 = Combine(node.left, leaf_picks);
    if (!s1.ok()) return s1.status();
    util::StatusOr<std::vector<Pick>> s2 = Combine(node.right, leaf_picks);
    if (!s2.ok()) return s2.status();
    return Merge(s1.value(), s2.value());
  }

  // Leaf: Figure 5 straight on the leaf's rows, in instance ids. Called
  // from pool threads; must only touch the leaf's own state.
  util::StatusOr<std::vector<Pick>> SolveLeaf(const Sub& sub, uint64_t seed,
                                              SolveStats* leaf_stats) const {
    std::vector<internal::WorkerRow> rows(sub.workers.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      rows[k] = {sub.workers[k],
                 std::span<const TaskId>(sub.edges).subspan(
                     static_cast<size_t>(sub.offsets[k]),
                     static_cast<size_t>(sub.offsets[k + 1] -
                                         sub.offsets[k]))};
    }
    SolverOptions leaf_options = options_;
    leaf_options.seed = seed;
    // The leaf shares this runner's deadline so a budget covers the whole
    // divide-and-conquer tree, not each leaf separately. It scores its
    // samples serially: the fan-out happens at leaf granularity.
    internal::RowSample sample;
    if (util::Status s = internal::SampleRows(
            instance_, std::move(rows), leaf_options, deadline_,
            util::SerialExec(), &sample);
        !s.ok()) {
      return s;
    }
    leaf_stats->exact_std_evals = sample.stats.exact_std_evals;
    leaf_stats->sample_size = sample.stats.sample_size;
    return std::move(sample.picks);
  }

  // BG_Partition (Fig. 7). Returns false when the split degenerates.
  bool Partition(const Sub& sub, Sub* left, Sub* right) {
    points_.clear();
    for (TaskId i : sub.tasks) {
      points_.push_back({instance_.task(i).location.x,
                         instance_.task(i).location.y});
    }
    const util::TwoMeansResult clusters = util::TwoMeans(points_, rng_);
    const auto num_left = static_cast<size_t>(
        std::count(clusters.label.begin(), clusters.label.end(), 0));
    if (num_left == 0 || num_left == sub.tasks.size()) return false;

    left->tasks.reserve(num_left);
    right->tasks.reserve(sub.tasks.size() - num_left);
    for (size_t a = 0; a < sub.tasks.size(); ++a) {
      if (clusters.label[a] == 0) {
        left->tasks.push_back(sub.tasks[a]);
        in_left_[sub.tasks[a]] = 1;
      } else {
        right->tasks.push_back(sub.tasks[a]);
      }
    }

    // Size each child's arrays once: count its workers and edges first.
    size_t left_workers = 0, right_workers = 0, left_edges = 0;
    for (size_t k = 0; k < sub.workers.size(); ++k) {
      int64_t on_left = 0;
      for (int64_t e = sub.offsets[k]; e < sub.offsets[k + 1]; ++e) {
        on_left += in_left_[sub.edges[e]];
      }
      left_workers += on_left > 0 ? 1 : 0;
      right_workers += on_left < sub.offsets[k + 1] - sub.offsets[k] ? 1 : 0;
      left_edges += static_cast<size_t>(on_left);
    }
    left->workers.reserve(left_workers);
    left->offsets.reserve(left_workers + 1);
    left->edges.reserve(left_edges);
    right->workers.reserve(right_workers);
    right->offsets.reserve(right_workers + 1);
    right->edges.reserve(sub.edges.size() - left_edges);
    left->offsets.push_back(0);
    right->offsets.push_back(0);

    // Workers reaching only one side are isolated there; straddling
    // workers are duplicated into both subproblems (Fig. 8).
    for (size_t k = 0; k < sub.workers.size(); ++k) {
      for (int64_t e = sub.offsets[k]; e < sub.offsets[k + 1]; ++e) {
        const TaskId g = sub.edges[e];
        (in_left_[g] ? left->edges : right->edges).push_back(g);
      }
      for (Sub* side : {left, right}) {
        const auto size = static_cast<int64_t>(side->edges.size());
        if (size > side->offsets.back()) {
          side->workers.push_back(sub.workers[k]);
          side->offsets.push_back(size);
        }
      }
    }
    for (TaskId i : left->tasks) in_left_[i] = 0;
    return true;
  }

  // SA_Merge (Fig. 9).
  util::StatusOr<std::vector<Pick>> Merge(const std::vector<Pick>& s1,
                                          const std::vector<Pick>& s2) {
    // Each worker's pick in either half, by index; conflicting workers are
    // those with a pick in both (their copies disagree).
    for (size_t a = 0; a < s1.size(); ++a) {
      pick1_[s1[a].worker] = static_cast<int>(a);
    }
    for (size_t a = 0; a < s2.size(); ++a) {
      pick2_[s2[a].worker] = static_cast<int>(a);
    }
    // Only the halves' tasks can ever hold a worker in the merge state.
    std::vector<TaskId> merge_tasks;
    // The evaluation state over the full instance and the pick indexes are
    // shared by every merge of the solve and emptied on every way out of
    // this one, the budget error included, so each merge starts from a
    // fresh state's bits.
    struct ClearOnExit {
      DcRunner& runner;
      const std::vector<Pick>& s1;
      const std::vector<Pick>& s2;
      const std::vector<TaskId>& tasks;
      ~ClearOnExit() {
        runner.merge_state_.Clear(tasks);
        for (const Pick& p : s1) runner.pick1_[p.worker] = -1;
        for (const Pick& p : s2) runner.pick2_[p.worker] = -1;
      }
    } clear_on_exit{*this, s1, s2, merge_tasks};

    std::vector<WorkerId> conflicts;
    for (const Pick& p : s1) {
      if (pick2_[p.worker] >= 0) conflicts.push_back(p.worker);
    }
    std::sort(conflicts.begin(), conflicts.end());

    if (conflicts.empty()) {
      std::vector<Pick> merged = s1;
      merged.insert(merged.end(), s2.begin(), s2.end());
      return merged;
    }

    // The two options of conflict c: its copy's pick on each side.
    std::vector<Pick> side1(conflicts.size()), side2(conflicts.size());
    for (size_t c = 0; c < conflicts.size(); ++c) {
      side1[c] = s1[pick1_[conflicts[c]]];
      side2[c] = s2[pick2_[conflicts[c]]];
    }

    merge_tasks.reserve(s1.size() + s2.size());
    for (const Pick& p : s1) merge_tasks.push_back(p.task);
    for (const Pick& p : s2) merge_tasks.push_back(p.task);
    std::sort(merge_tasks.begin(), merge_tasks.end());
    merge_tasks.erase(std::unique(merge_tasks.begin(), merge_tasks.end()),
                      merge_tasks.end());
    AssignmentState& state = merge_state_;

    // Load every non-conflicting pick (Lemma 6.1: those assignments are
    // stable).
    for (const Pick& p : s1) {
      if (pick2_[p.worker] < 0) LoadPick(state, p);
    }
    for (const Pick& p : s2) {
      if (pick1_[p.worker] < 0) LoadPick(state, p);
    }

    // Dependency components: conflicting workers sharing a task option must
    // be resolved together (Lemma 6.2); singletons are ICWs. A union-find
    // over the conflicts joins each one to the first conflict seen on
    // either of its tasks; components are numbered in order of their
    // smallest conflict index, and list their conflicts ascending.
    const size_t num_conflicts = conflicts.size();
    std::vector<int> parent(num_conflicts);
    for (size_t c = 0; c < num_conflicts; ++c) {
      parent[c] = static_cast<int>(c);
    }
    auto find = [&parent](int c) {
      while (parent[c] != c) c = parent[c] = parent[parent[c]];
      return c;
    };
    for (size_t c = 0; c < num_conflicts; ++c) {
      for (TaskId t : {side1[c].task, side2[c].task}) {
        int& first = first_conflict_[t];
        if (first < 0) {
          first = static_cast<int>(c);
        } else {
          parent[find(static_cast<int>(c))] = find(first);
        }
      }
    }
    for (size_t c = 0; c < num_conflicts; ++c) {
      first_conflict_[side1[c].task] = -1;
      first_conflict_[side2[c].task] = -1;
    }
    // Groups as CSR: group g's conflicts are members[begin[g], begin[g+1]),
    // by a stable counting sort of the conflicts on their group number.
    std::vector<int> group_of_root(num_conflicts, -1);
    std::vector<int> begin(1, 0);
    for (size_t c = 0; c < num_conflicts; ++c) {
      int& root_group = group_of_root[find(static_cast<int>(c))];
      if (root_group < 0) {
        root_group = static_cast<int>(begin.size()) - 1;
        begin.push_back(0);
      }
      ++begin[root_group + 1];
    }
    for (size_t g = 1; g < begin.size(); ++g) begin[g] += begin[g - 1];
    std::vector<int> members(num_conflicts);
    {
      std::vector<int> cursor(begin.begin(), begin.end() - 1);
      for (size_t c = 0; c < num_conflicts; ++c) {
        members[cursor[group_of_root[find(static_cast<int>(c))]]++] =
            static_cast<int>(c);
      }
    }

    for (size_t g = 0; g + 1 < begin.size(); ++g) {
      if (util::Status budget = deadline_.Check(); !budget.ok()) {
        return budget;
      }
      ResolveGroup(std::span<const int>(members).subspan(
                       static_cast<size_t>(begin[g]),
                       static_cast<size_t>(begin[g + 1] - begin[g])),
                   side1, side2, merge_tasks, &state);
    }

    // Every worker in the state, in ascending order, as the pick it kept.
    std::vector<Pick> merged;
    merged.reserve(s1.size() + s2.size() - num_conflicts);
    for (WorkerId j = 0; j < instance_.num_workers(); ++j) {
      const TaskId i = state.TaskOf(j);
      if (i == kNoTask) continue;
      const int a = pick1_[j];
      merged.push_back(a >= 0 && s1[a].task == i ? s1[a] : s2[pick2_[j]]);
    }
    return merged;
  }

  // Keeps exactly one copy of each conflicting worker in `group`, choosing
  // the combination with the best merged objectives: by the exhaustive
  // scoring of internal::KeepComboScorer, or per worker for a group above
  // max_dcw_group.
  void ResolveGroup(std::span<const int> group,
                    const std::vector<Pick>& side1,
                    const std::vector<Pick>& side2,
                    const std::vector<TaskId>& merge_tasks,
                    AssignmentState* state) {
    ++stats_->merge_groups;
    if (static_cast<int>(group.size()) > options_.max_dcw_group) {
      // Oversized DCW group: greedy per-worker fallback.
      for (int c : group) {
        const WorkerId w = side1[c].worker;
        ObjectiveValue keep1 = state->PreviewAdd(side1[c].task, w);
        ObjectiveValue keep2 = state->PreviewAdd(side2[c].task, w);
        const Pick& kept = Better(keep1, keep2) ? side1[c] : side2[c];
        state->Add(kept.task, w, kept.obs);
        stats_->merge_std_evals += 3;  // two previews and the commit
      }
      return;
    }
    group_side1_.clear();
    group_side2_.clear();
    for (int c : group) {
      group_side1_.push_back(side1[c]);
      group_side2_.push_back(side2[c]);
    }
    const std::vector<BiPoint>& points =
        scorer_.Score(*state, group_side1_, group_side2_, merge_tasks,
                      &stats_->merge_std_evals);
    stats_->merge_combos += static_cast<int64_t>(points.size());
    scorer_.Commit(*state, static_cast<uint32_t>(TopDominating(points)),
                   &stats_->merge_std_evals);
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

  // Partition's 2-means input, reused across splits.
  std::vector<util::KmPoint> points_;
  // SA_Merge's evaluation state, one per solve (see Merge).
  AssignmentState merge_state_;
  // Per-task / per-worker scratch, all-clear between uses: Partition's
  // left-side marks, Merge's index of each worker's pick in either half
  // (-1 elsewhere; Evaluate borrows pick1_) and the first conflict seen
  // on each task (-1 elsewhere).
  std::vector<uint8_t> in_left_;
  std::vector<int> pick1_;
  std::vector<int> pick2_;
  std::vector<int> first_conflict_;

  // ResolveGroup's scorer and group columns, reused across groups.
  internal::KeepComboScorer scorer_;
  std::vector<Pick> group_side1_;
  std::vector<Pick> group_side2_;
};

}  // namespace

namespace internal {

KeepComboScorer::KeepComboScorer(int num_tasks)
    : slot_of_task_(static_cast<size_t>(num_tasks), -1) {}

const std::vector<BiPoint>& KeepComboScorer::Score(
    AssignmentState& state, std::span<const DrawnPick> side1,
    std::span<const DrawnPick> side2, std::span<const TaskId> merge_tasks,
    int64_t* std_evals) {
  const int k = static_cast<int>(side1.size());
  assert(k <= kMaxDcwGroup && side2.size() == side1.size());
  group_.resize(static_cast<size_t>(k));

  // Slot s is the s-th distinct task the group touches; option (b, side)
  // is worker b's copy on that side and owns bit `bit` of its slot's
  // on-mask. Bits are handed out in (b, side) order, so ascending bits are
  // ascending group order.
  slots_.clear();
  slot_task_.clear();
  slot_r_.clear();
  slot_std_.clear();
  options_.resize(static_cast<size_t>(2 * k));
  for (int b = 0; b < k; ++b) {
    assert(side1[b].worker == side2[b].worker);
    group_[b] = side1[b].worker;
    for (int side = 0; side < 2; ++side) {
      const DrawnPick& pick = side == 0 ? side1[b] : side2[b];
      const TaskId t = pick.task;
      int& slot = slot_of_task_[t];
      if (slot < 0) {
        slot = static_cast<int>(slots_.size());
        slots_.push_back({state.TaskObservations(t).size(), 0, 0,
                          static_cast<int>(state.WorkersOf(t).size()), 0});
        slot_task_.push_back(t);
        slot_r_.push_back(state.TaskReducedReliability(t));
        slot_std_.push_back(state.TaskExpectedStd(t));
      }
      Slot& sl = slots_[slot];
      options_[2 * b + side] = {slot, uint32_t{1} << sl.width,
                                state.WorkerWeight(pick.worker), pick.obs};
      ++sl.width;
    }
  }
  size_t memo_size = 0;
  for (Slot& sl : slots_) {
    sl.memo_begin = memo_size;
    memo_size += size_t{1} << sl.width;
  }
  memo_.assign(memo_size, std::numeric_limits<double>::quiet_NaN());
  // No group option on is the task's roster as it stands: the state
  // already holds its E[STD]. One option on a task with an empty roster is
  // that option's pick alone, which its leaf evaluated.
  for (size_t s = 0; s < slots_.size(); ++s) {
    memo_[slots_[s].memo_begin] = slot_std_[s];
  }
  for (int b = 0; b < k; ++b) {
    for (int side = 0; side < 2; ++side) {
      const Option& o = options_[2 * b + side];
      const Slot& sl = slots_[o.slot];
      if (sl.base == 0) {
        memo_[sl.memo_begin + o.bit] = (side == 0 ? side1[b] : side2[b]).e1;
      }
    }
  }

  // The min reduced reliability of the tasks the group cannot change.
  double outside_min_r = std::numeric_limits<double>::infinity();
  for (TaskId t : merge_tasks) {
    if (slot_of_task_[t] < 0 && !state.WorkersOf(t).empty()) {
      outside_min_r = std::min(outside_min_r, state.TaskReducedReliability(t));
    }
  }
  for (TaskId t : slot_task_) slot_of_task_[t] = -1;

  // Exhaustive 2^k enumeration (Lemma 6.2), replaying AddKnown and
  // RemoveKnown's arithmetic step for step (see the class comment).
  double total = state.TotalExpectedStd();
  const size_t num_slots = slots_.size();
  const uint32_t num_combos = uint32_t{1} << k;
  points_.resize(num_combos);
  for (uint32_t combo = 0; combo < num_combos; ++combo) {
    for (int b = 0; b < k; ++b) {
      const Option& o = options_[2 * b + ((combo >> b) & 1)];
      Slot& sl = slots_[o.slot];
      sl.on |= o.bit;
      ++sl.count;
      slot_r_[o.slot] += o.weight;
      const double fresh = SlotStd(state, o.slot, sl.on, std_evals);
      total += fresh - slot_std_[o.slot];
      slot_std_[o.slot] = fresh;
    }
    // Some touched task holds a group worker now, so min_r is finite.
    double min_r = outside_min_r;
    for (size_t s = 0; s < num_slots; ++s) {
      if (slots_[s].count > 0) min_r = std::min(min_r, slot_r_[s]);
    }
    points_[combo] = {util::ReducedToProbability(min_r), total};
    for (int b = 0; b < k; ++b) {
      const Option& o = options_[2 * b + ((combo >> b) & 1)];
      Slot& sl = slots_[o.slot];
      sl.on &= ~o.bit;
      slot_r_[o.slot] -= o.weight;
      if (--sl.count == 0) slot_r_[o.slot] = 0.0;  // as Detach does
      const double fresh = SlotStd(state, o.slot, sl.on, std_evals);
      total += fresh - slot_std_[o.slot];
      slot_std_[o.slot] = fresh;
    }
  }
  // The drift is carried, not undone: the next group starts from it.
  state.WriteBackSums(slot_task_, slot_r_, slot_std_, total);
  return points_;
}

void KeepComboScorer::Commit(AssignmentState& state, uint32_t combo,
                             int64_t* std_evals) {
  for (size_t b = 0; b < group_.size(); ++b) {
    const Option& o = options_[2 * b + ((combo >> b) & 1)];
    Slot& sl = slots_[o.slot];
    sl.on |= o.bit;
    state.AddKnown(slot_task_[o.slot], group_[b], o.obs,
                   SlotStd(state, o.slot, sl.on, std_evals));
  }
}

double KeepComboScorer::EvaluateSlot(const AssignmentState& state, int s,
                                     uint32_t on, int64_t* std_evals) {
  const std::vector<Observation>& current =
      state.TaskObservations(slot_task_[s]);
  scratch_.assign(current.begin(),
                  current.begin() + static_cast<ptrdiff_t>(slots_[s].base));
  // Options are stored in ascending bit order within each slot.
  for (const Option& o : options_) {
    if (o.slot == s && (on & o.bit)) scratch_.push_back(o.obs);
  }
  ++*std_evals;
  return memo_[slots_[s].memo_begin + on] =
             ExpectedStd(state.instance().task(slot_task_[s]), scratch_);
}

}  // namespace internal

util::StatusOr<SolveResult> DivideConquerSolver::SolveImpl(
    const Instance& instance, const CandidateGraph& graph,
    const util::Deadline& deadline, util::Executor& executor,
    SolveStats* partial_stats) {
  if (util::Status invalid = internal::ValidateSamplingOptions(options_);
      !invalid.ok()) {
    return invalid;
  }
  if (options_.max_dcw_group > internal::kMaxDcwGroup) {
    return util::Status::InvalidArgument(
        "SolverOptions::max_dcw_group must be at most 31");
  }
  SolveResult result;
  DcRunner runner(instance, options_, deadline, executor);
  util::StatusOr<std::vector<Pick>> picks = runner.Run(graph, &result.stats);
  if (!picks.ok()) {
    return BudgetError(deadline, result.stats, partial_stats);
  }

  result.assignment = Assignment(instance.num_workers());
  for (const Pick& p : picks.value()) {
    result.assignment.Assign(p.worker, p.task);
  }
  result.objectives = runner.Evaluate(picks.value());
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
