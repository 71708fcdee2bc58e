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

/// Batched geometry kernels for the O(m*n) pair-validation hot path
/// (CandidateGraph::Build and GridIndex retrieval; Figs. 16/17).
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

/// Struct-of-arrays view of a task set: the four columns the validity
/// predicates read, plus index-aligned copies of the original tasks so the
/// uncertain band can be rechecked exactly.
struct TaskBlock {
  std::vector<double> x, y, start, end;
  std::vector<TaskId> id;       ///< external ids, block order
  std::vector<Task> oracle;     ///< aligned originals for the exact recheck
  std::vector<int32_t> suspect; ///< block indices with non-finite fields

  void Reserve(size_t n);
  void Add(TaskId task_id, const Task& t);
  size_t size() const { return x.size(); }
};

/// Per-worker constants of the branch-free predicates, precomputed once
/// per (worker, retrieval pass): departure time, and the cone encoded as a
/// unit mid-direction plus signed-square cosine thresholds of the widened
/// (reject) and narrowed (accept) half-angles.
struct WorkerGeom {
  double wx = 0.0, wy = 0.0;
  double depart = 0.0;       ///< max(now, available_from)
  double velocity = 0.0;
  double abs_depart1 = 1.0;  ///< |depart| + 1, scales the time guards
  double ux = 1.0, uy = 0.0; ///< unit vector of the cone mid direction
  double cin_ss = 1.0;       ///< cos(half - eps) * |cos(half - eps)|
  double cout_ss = -1.0;     ///< cos(half + eps) * |cos(half + eps)|
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

/// Columnar companion of an Instance: the task block plus per-worker
/// geometry and oracle copies. Built once per instance and cached on it
/// (Instance::soa()); immutable afterwards, so solver shards share it
/// freely.
class InstanceSoA {
 public:
  static InstanceSoA Build(const Instance& instance);

  const TaskBlock& task_block() const { return tasks_; }
  const std::vector<WorkerGeom>& worker_geoms() const { return geoms_; }
  const Worker& oracle_worker(WorkerId j) const {
    return workers_[static_cast<size_t>(j)];
  }
  double now() const { return now_; }
  ArrivalPolicy policy() const { return policy_; }
  int num_workers() const { return static_cast<int>(geoms_.size()); }

 private:
  TaskBlock tasks_;
  std::vector<WorkerGeom> geoms_;
  std::vector<Worker> workers_;
  double now_ = 0.0;
  ArrivalPolicy policy_ = ArrivalPolicy::kStrict;
};

/// One assembled edge row: a pointer into an Arena plus its length.
struct EdgeRow {
  const TaskId* data = nullptr;
  int32_t count = 0;
};

/// Row driver used by the CandidateGraph::Build shards: computes the valid
/// task ids of workers [begin, end) of `soa`, parking each row in `arena`
/// as an exact-size span recorded in rows[j]. `deadline` is polled between
/// row blocks (every kKernelRowsPerPoll rows); returns false when it
/// trips, leaving the remaining rows untouched.
bool ValidPairsRows(const InstanceSoA& soa, int64_t begin, int64_t end,
                    const util::Deadline& deadline, util::Arena* arena,
                    EdgeRow* rows);

/// Rows between deadline polls in ValidPairsRows; each row is O(m).
inline constexpr int kKernelRowsPerPoll = 32;

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_KERNELS_H_
