#ifndef RDBSC_CORE_KERNELS_H_
#define RDBSC_CORE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model.h"
#include "util/arena.h"
#include "util/deadline.h"

namespace rdbsc::core {

class Instance;

/// Batched geometry kernels for the O(m*n) pair-validation hot path.
/// CandidateGraph::Build is the one builder every solving path uses; the
/// grid index's retrieval (src/index) runs the same per-block kernel over
/// its cells but serves only the benches and tests that measure it.
///
/// Exact-equality contract: every entry point in this header produces the
/// SAME edge set as looping the scalar IsValidPair oracle over the same
/// pairs, bit for bit, on every ISA and at every thread count. The
/// vectorized classification never decides a pair on its own terms: it
/// partitions each worker row into certain-accept / certain-reject /
/// uncertain using margin-padded predicates whose margins provably
/// dominate the floating-point error of both formulations, and hands the
/// (empirically ~0%) uncertain remainder to IsValidPair. The scalar path
/// therefore remains the reference implementation and test oracle.
///
/// The margins (see kernels.cc):
///   - distance-vs-slack: squared comparison d2 <> (slack*v)^2 with a
///     1e-9 relative band plus an absolute guard scaled to the operand
///     magnitudes, so the band survives cancellation when |end| ~ |depart|
///     dwarfs the slack;
///   - direction: the cone half-angle is widened/narrowed by 1e-6 rad
///     (three orders above Contains' 1e-9 tolerance and seven above the
///     cos-space rounding error), turned into signed-square cosine
///     thresholds so the test is a dot product, not atan2;
///   - degenerate operands (coincident points, non-finite fields,
///     non-positive velocity, huge coordinates) are never classified --
///     they fall through to the oracle wholesale.
///
/// Block skipping (InstanceSoA, ValidPairsRows) brings the grid index's
/// cell pruning (Section 7) into the vector scan. An instance with more
/// than kMaxUnorderedTasks tasks keeps its task block in Hilbert-curve
/// order of task location, so each run of kBlockTasks consecutive tasks is
/// spatially compact, and summarises each run by its bounding box and
/// latest `end` (BlockSummary). Before classifying a row, a branch-free
/// loop tests the worker against every summary and rejects a block only
/// when no task in it can form a valid pair: the box lies farther than
/// v * (end_max - depart) or wholly outside the cone widened by the same
/// 1e-6 rad, with the kernel's relative and absolute margins. Degenerate
/// blocks (a non-finite field, huge coordinates) carry infinite half
/// extents and are never rejected; a worker inside a box loses it only
/// when every task in it has ended. Surviving blocks run the unchanged
/// classification and oracle recheck. Each row is emitted in ascending
/// task id whatever the block order, so CandidateGraph rows, edge order
/// and every solver input are those of a plain ascending scan. A smaller
/// instance is neither reordered nor summarised: with one or two blocks a
/// row can skip too little to pay for the order, the summaries and the
/// re-sort.

/// Struct-of-arrays view of a task set: the four columns the validity
/// predicates read. They are all IsValidPair reads of a task, so TaskAt
/// rebuilds the task the uncertain band is rechecked on, bit for bit.
struct TaskBlock {
  std::vector<double> x, y, start, end;
  std::vector<TaskId> id;       ///< external ids, block order
  std::vector<int32_t> suspect; ///< block indices with non-finite fields

  void Reserve(size_t n);
  void Add(TaskId task_id, const Task& t);
  size_t size() const { return x.size(); }

  /// The task at block index k as IsValidPair and the degenerate-task
  /// checks see it: location, start and end from the columns (beta, which
  /// they do not read, keeps its default).
  Task TaskAt(size_t k) const {
    Task t;
    t.location = {x[k], y[k]};
    t.start = start[k];
    t.end = end[k];
    return t;
  }
};

/// Per-worker constants of the branch-free predicates, precomputed once
/// per (worker, retrieval pass): departure time, and the cone encoded as a
/// unit mid-direction plus signed-square cosine thresholds of the widened
/// (reject) and narrowed (accept) half-angles.
struct WorkerGeom {
  double wx = 0.0, wy = 0.0;
  double depart = 0.0;       ///< max(now, available_from)
  double velocity = 0.0;
  double ux = 1.0, uy = 0.0; ///< unit vector of the cone mid direction
  double cin_ss = 1.0;       ///< cos(half - eps) * |cos(half - eps)|
  double cout_ss = -1.0;     ///< cos(half + eps) * |cos(half + eps)|
  /// sin(half + eps) for the block test; 0 when half + eps reaches pi,
  /// which never rejects a block. The test takes the cosine back from
  /// cout_ss instead of a field of its own: instances cache one
  /// WorkerGeom per worker, and solver-heavy runs cache many instances.
  double wide_sin = 0.0;
  bool full_circle = true;
  bool scalar_only = false;  ///< degenerate worker: whole row to the oracle
};

/// Precomputes the kernel constants for one worker at clock `now`.
WorkerGeom PrecomputeWorker(const Worker& w, double now);

/// Per-pair verdict of the classification pass.
enum PairClass : uint8_t {
  kPairReject = 0,
  kPairAccept = 1,
  kPairUncertain = 2,
};

/// Classifies every task of `block` against one (non-scalar_only) worker,
/// writing one PairClass per task to `cls` (length block.size()). Every
/// kPairAccept/kPairReject verdict agrees with IsValidPair; kPairUncertain
/// makes no claim. Exposed for the property tests; ValidPairsRow is the
/// end-to-end entry point.
void ClassifyRow(const WorkerGeom& g, ArrivalPolicy policy,
                 const TaskBlock& block, uint8_t* cls);

/// Appends to `out` the ids (block order) of the tasks of `block` forming
/// a valid pair with `w` -- exactly the ids a scalar IsValidPair loop
/// would emit. `cls_scratch` must hold block.size() bytes. Returns the
/// number of ids appended.
size_t ValidPairsRow(const WorkerGeom& g, const Worker& w, double now,
                     ArrivalPolicy policy, const TaskBlock& block,
                     uint8_t* cls_scratch, std::vector<TaskId>* out);

/// Tasks per block of a spatially ordered task block: one block test
/// decides for this many tasks.
inline constexpr size_t kBlockTasks = 32;

/// Instances of at most this many tasks (two blocks) keep task-id order
/// and no summaries. On dense instances (the serve_hot request shape:
/// wide cones, long periods) two summarised blocks cost 6-16% more build
/// time than the plain scan on a 4-core x86-64 VM, three broke even, and
/// more won.
inline constexpr size_t kMaxUnorderedTasks = 2 * kBlockTasks;

/// Conservative summary of one block of kBlockTasks consecutive tasks:
/// every task lies in the box (cx +- half_w, cy +- half_h) and ends by
/// `end_max`. Infinite half extents mark a degenerate block, which is
/// never rejected.
struct BlockSummary {
  double cx = 0.0, cy = 0.0;
  double half_w = 0.0, half_h = 0.0;
  double end_max = 0.0;
};

/// The block test for one summary: false only when no task of the block
/// can form a valid pair with the worker (IsValidPair rejects them all).
/// Always true for a scalar_only worker. The same loop, over a row's
/// summary columns, is what ValidPairsRows runs.
bool BlockMayHoldPair(const WorkerGeom& g, const BlockSummary& s);

/// Columnar companion of an Instance: the task block plus per-worker
/// geometry; the workers themselves are read from the instance. Built
/// once per instance and cached on it
/// (Instance::soa()); immutable afterwards, so solver shards share it
/// freely. With more than kMaxUnorderedTasks tasks the block is in
/// Hilbert-curve order of task location (block.id maps back to task ids)
/// and carries one BlockSummary per kBlockTasks tasks; otherwise it is in
/// task-id order with no summaries.
class InstanceSoA {
 public:
  static InstanceSoA Build(const Instance& instance);

  const TaskBlock& task_block() const { return tasks_; }
  /// Number of block summaries: 0, or ceil(m / kBlockTasks) when
  /// m > kMaxUnorderedTasks.
  size_t num_blocks() const { return summary_.size() / kSummaryColumns; }
  BlockSummary block_summary(size_t b) const;
  /// Writes one byte per block to `survive` (num_blocks() bytes): 0 when
  /// the block test rejects block b for `g`, 1 otherwise.
  void TestBlocks(const WorkerGeom& g, uint8_t* survive) const;
  const std::vector<WorkerGeom>& worker_geoms() const { return geoms_; }
  double now() const { return now_; }
  ArrivalPolicy policy() const { return policy_; }
  int num_workers() const { return static_cast<int>(geoms_.size()); }

 private:
  TaskBlock tasks_;
  /// Block summary columns, num_blocks() entries each: cx, cy, half_w,
  /// half_h, end_max. Empty for m <= kMaxUnorderedTasks.
  static constexpr size_t kSummaryColumns = 5;
  std::vector<double> summary_;
  std::vector<WorkerGeom> geoms_;
  double now_ = 0.0;
  ArrivalPolicy policy_ = ArrivalPolicy::kStrict;
};

/// One assembled edge row: a pointer into an Arena plus its length.
struct EdgeRow {
  const TaskId* data = nullptr;
  int32_t count = 0;
};

/// (worker row, task block) tests a build ran, and how many of them
/// rejected the block. Sums, so shard totals equal the serial build's.
struct BlockTestCounts {
  int64_t tested = 0;
  int64_t skipped = 0;
};

/// Row driver used by the CandidateGraph::Build shards: computes the valid
/// task ids of workers [begin, end) of `instance` over its SoA view
/// (Instance::soa()), ascending, parking each row in `arena` as an
/// exact-size span recorded in rows[j]. Only blocks that survive the
/// block test are classified; `counts` accumulates the tests. `deadline`
/// is polled between row blocks (every kKernelRowsPerPoll rows); returns
/// false when it trips, leaving the remaining rows untouched.
bool ValidPairsRows(const Instance& instance, int64_t begin, int64_t end,
                    const util::Deadline& deadline, util::Arena* arena,
                    EdgeRow* rows, BlockTestCounts* counts);

/// Rows between deadline polls in ValidPairsRows; each row is O(m).
inline constexpr int kKernelRowsPerPoll = 32;

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_KERNELS_H_
