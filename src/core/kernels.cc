#include "core/kernels.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>

#include "core/instance.h"
#include "geo/angle.h"

namespace rdbsc::core {
namespace {

// Margin design. Every certain verdict must hold for the ORACLE's
// formulation (hypot + division + addition + atan2), not merely for the
// kernel's squared/cosine reformulation, so each margin is sized to
// dominate the combined rounding error of both on any ISA (including FMA
// contraction in the vector variant):
//
//   - kRelMargin pads the squared comparison d2 <> r^2: both sides carry
//     O(1e-16) relative error, so a 1e-9 relative band is ~1e7x headroom.
//   - kAbsTimeEps scales an ABSOLUTE guard on the slack (end - depart):
//     when |end| ~ |depart| >> slack, the subtraction cancels and a purely
//     relative band on the slack would shrink below one ulp of the
//     operands; the guard 1e-12 * (|bound| + |depart| + 1) stays ~1e4 ulps
//     wide at every magnitude.
//   - kAngleEps widens/narrows the cone half-angle by 1e-6 rad, dominating
//     AngularInterval::Contains' 1e-9 tolerance and the ~1e-8 rad
//     worst-case error of the cosine-space test near the cone axis.
//   - d2 outside (kD2Tiny, kHuge) -- coincident points, denormals,
//     overflow -- is never classified; those pairs go to the oracle.
constexpr double kRelMargin = 1e-9;
constexpr double kAbsTimeEps = 1e-12;
constexpr double kAngleEps = 1e-6;
constexpr double kD2Tiny = 2.2250738585072014e-308;  // DBL_MIN
constexpr double kHuge = 1e300;
// A task with a coordinate this large makes its block degenerate (never
// rejected), so every summarised center-to-worker d2 stays far below
// kHuge unless the worker itself is huge.
constexpr double kHugeCoord = 1e100;

// The classification loop, templated on the arrival policy and the
// full-circle fast path so the body is branch-free. GCC vectorises it at
// -O3 in the AVX2 instances below (16 pairs a step, then a shorter vector
// step and scalar code for the remainder); under the default flags the
// baseline-ISA instances stay scalar. always_inline lets the
// runtime-dispatched wrappers below recompile the same body under a wider
// target ISA.
template <bool kWait, bool kFullCircle>
[[gnu::always_inline]] inline void ClassifyLoop(
    const WorkerGeom& g, size_t n, const double* __restrict tx,
    const double* __restrict ty, const double* __restrict ts,
    const double* __restrict te, uint8_t* __restrict cls) {
  const double wx = g.wx, wy = g.wy;
  const double depart = g.depart, v = g.velocity;
  const double ad1 = std::fabs(depart) + 1.0;  // scales the time guards
  const double ux = g.ux, uy = g.uy;
  const double cin = g.cin_ss, cout = g.cout_ss;
  for (size_t k = 0; k < n; ++k) {
    const double dx = tx[k] - wx;
    const double dy = ty[k] - wy;
    const double d2 = dx * dx + dy * dy;
    // Degenerate magnitudes are never classified; everything below may
    // assume d2 is a normal positive double, so no product involving it
    // runs into inf-vs-inf comparisons.
    const bool d2_ok = (d2 > kD2Tiny) & (d2 < kHuge);

    // Upper time bound, arrival <= end, as d2 <> ((end - depart) * v)^2.
    // Certain verdicts also require the threshold below kHuge: a threshold
    // that large (or inf, from slack overflow) says nothing about the
    // oracle's depart + dist/v, which may itself overflow.
    const double ge = kAbsTimeEps * (std::fabs(te[k]) + ad1);
    const double se = te[k] - depart;
    const double r_acc_e = (se - ge) * v;
    const double r_rej_e = (se + ge) * v;
    const double acc_e = r_acc_e * r_acc_e * (1.0 - kRelMargin);
    const double rej_e = r_rej_e * r_rej_e * (1.0 + kRelMargin);
    bool accept = (se > ge) & (d2 < acc_e) & (acc_e < kHuge);
    bool reject = (se < -ge) | (d2 > rej_e);

    // Lower time bound, arrival >= start. kAllowWait clamps the arrival up
    // to start, which turns the bound into `start <= end` -- exact, no
    // arithmetic, so no margin.
    if constexpr (kWait) {
      accept = accept & (ts[k] <= te[k]);
      reject = reject | (ts[k] > te[k]);
    } else {
      // depart >= start settles it alone: fl(depart + travel) >= depart
      // because travel >= 0 and rounding is monotone.
      const bool low_auto = depart >= ts[k];
      const double gs = kAbsTimeEps * (std::fabs(ts[k]) + ad1);
      const double ss = ts[k] - depart;
      const double r_acc_s = (ss + gs) * v;
      const double r_rej_s = (ss - gs) * v;
      const double acc_s = r_acc_s * r_acc_s * (1.0 + kRelMargin);
      const double rej_s = r_rej_s * r_rej_s * (1.0 - kRelMargin);
      accept = accept & (low_auto | (d2 > acc_s));
      reject = reject |
               ((!low_auto) & (ss > gs) & (d2 < rej_s) & (rej_s < kHuge));
    }

    // Direction: deviation phi from the cone axis tested in signed-square
    // cosine space, dot * |dot| <> c * |c| * d2 (equivalent to
    // cos(phi) <> c whenever d2 > 0, monotone across the whole circle).
    if constexpr (!kFullCircle) {
      const double dot = dx * ux + dy * uy;
      const double sd = dot * std::fabs(dot);
      accept = accept & (sd > cin * d2);
      reject = reject | (sd < cout * d2);
    }

    accept = accept & d2_ok;
    reject = reject & d2_ok;
    // Arithmetic on the masks (accept -> 1, reject -> 0, neither -> 2;
    // accept wins): a select here is control flow, which keeps GCC from
    // vectorising the loop.
    cls[k] = static_cast<uint8_t>(static_cast<uint8_t>(accept) |
                                  static_cast<uint8_t>(!(accept | reject))
                                      << 1);
  }
}

// The block test, over the summary columns of one row's blocks: writes 1
// to survive[b] unless no task of block b can pair with the worker. With
// d = c - w the worker-to-center offset and (hx, hy) the padded half
// extents, it rejects a block when its box lies
//   - beyond the reach: the worker-to-box distance exceeds
//     (end_max - depart + ge) * v, the per-pair reject's guarded slack
//     taken at end_max. The guarded slack is monotone in end, so every
//     task's travel exceeds its own guarded slack, and ge dominates the
//     oracle's rounding of depart + travel as it does for the per-pair
//     reject; a negative reach means every task ended before depart. The
//     squared distance carries the per-pair relative band;
//   - wholly outside the cone widened to H = half + kAngleEps, tested on
//     the outward normals n1, n2 of the cone's two boundary lines (the box
//     spans n.d +- (|nx| hx + |ny| hy) along n). For H < pi/2 the cone is
//     the intersection of the half-planes n1.p <= 0 and n2.p <= 0 and lies
//     in front of the worker, so a box past either line or wholly behind
//     the worker is outside; for H >= pi/2 the cone's complement is the
//     intersection of n1.p > 0 and n2.p > 0, so the box must be past both.
//     kAngleEps covers Contains' tolerance as in the per-pair test, and
//     kBlockPadEps * (|dx| + |dy| + hx + hy) the few-ulp error of the dot
//     products and the normals.
// The half extents carry a kRelMargin pad, which covers their rounding
// and the rounding of d where the distance cancels. A worker inside the
// box is at distance 0 and on no line's far side, so only expired blocks
// reject it. Blocks with infinite half extents (degenerate) and workers
// too far out for these products (huge coordinates) reject nothing.
constexpr double kBlockPadEps = 1e-12;

[[gnu::always_inline]] inline void BlockTestLoop(
    const WorkerGeom& g, size_t nb, const double* __restrict cx,
    const double* __restrict cy, const double* __restrict half_w,
    const double* __restrict half_h, const double* __restrict end_max,
    uint8_t* __restrict survive) {
  const double wx = g.wx, wy = g.wy;
  const double depart = g.depart, v = g.velocity;
  const double ad1 = std::fabs(depart) + 1.0;
  const double ux = g.ux, uy = g.uy;
  // cos H within an ulp of the cosine PrecomputeWorker squared: sqrt is
  // correctly rounded. wide_sin = 0 (full circle, or H reaching pi) turns
  // the cone test off.
  const double wc = std::copysign(std::sqrt(std::fabs(g.cout_ss)), g.cout_ss);
  const double ws = g.wide_sin;
  const bool cone = ws > 0.0;
  const bool convex = cone & (wc > 0.0);
  // Outward normals of the boundary rays R(+H) u and R(-H) u.
  const double n1x = -(ux * ws + uy * wc), n1y = ux * wc - uy * ws;
  const double n2x = uy * wc - ux * ws, n2y = -(ux * wc + uy * ws);
  const double a1x = std::fabs(n1x), a1y = std::fabs(n1y);
  const double a2x = std::fabs(n2x), a2y = std::fabs(n2y);
  const double aux = std::fabs(ux), auy = std::fabs(uy);
  for (size_t b = 0; b < nb; ++b) {
    const double dx = cx[b] - wx;
    const double dy = cy[b] - wy;
    const double hx = half_w[b] * (1.0 + kRelMargin);
    const double hy = half_h[b] * (1.0 + kRelMargin);
    const double adx = std::fabs(dx), ady = std::fabs(dy);
    // max(x, 0) as arithmetic, exact, so the loop stays branch-free.
    const double gx = adx - hx, gy = ady - hy;
    const double ex = 0.5 * (gx + std::fabs(gx));
    const double ey = 0.5 * (gy + std::fabs(gy));
    const double e2 = ex * ex + ey * ey;
    const double ge = kAbsTimeEps * (std::fabs(end_max[b]) + ad1);
    const double reach = (end_max[b] - depart + ge) * v;
    const bool far =
        (reach < 0.0) | (e2 > reach * reach * (1.0 + kRelMargin));
    const double pad = kBlockPadEps * (adx + ady + hx + hy);
    const bool past1 = n1x * dx + n1y * dy - (a1x * hx + a1y * hy) > pad;
    const bool past2 = n2x * dx + n2y * dy - (a2x * hx + a2y * hy) > pad;
    const bool behind = ux * dx + uy * dy + (aux * hx + auy * hy) < -pad;
    const bool outside =
        cone & ((past1 & past2) | (convex & (past1 | past2 | behind)));
    const bool sane = (hx < kHugeCoord) & (adx + ady < kHugeCoord);
    survive[b] = static_cast<uint8_t>(!((far | outside) & sane));
  }
}

using ClassifyFn = void (*)(const WorkerGeom&, size_t, const double*,
                            const double*, const double*, const double*,
                            uint8_t*);

using BlockTestFn = void (*)(const WorkerGeom&, size_t, const double*,
                             const double*, const double*, const double*,
                             const double*, uint8_t*);

template <bool kWait, bool kFullCircle>
void ClassifyDefault(const WorkerGeom& g, size_t n, const double* tx,
                     const double* ty, const double* ts, const double* te,
                     uint8_t* cls) {
  ClassifyLoop<kWait, kFullCircle>(g, n, tx, ty, ts, te, cls);
}

void BlockTestDefault(const WorkerGeom& g, size_t nb, const double* cx,
                      const double* cy, const double* half_w,
                      const double* half_h, const double* end_max,
                      uint8_t* survive) {
  BlockTestLoop(g, nb, cx, cy, half_w, half_h, end_max, survive);
}

#if defined(__x86_64__) && defined(__GNUC__)
#define RDBSC_KERNELS_DYNAMIC_AVX2 1
// The identical loops recompiled for AVX2+FMA and picked at runtime via
// cpuid. The margins above make FMA contraction and vector-width
// differences output-invisible, so dispatch cannot perturb the edge set.
// tools/check_vectorized.py fails if GCC stops vectorising any instance.
template <bool kWait, bool kFullCircle>
__attribute__((target("avx2,fma"))) void ClassifyAvx2(
    const WorkerGeom& g, size_t n, const double* tx, const double* ty,
    const double* ts, const double* te, uint8_t* cls) {
  ClassifyLoop<kWait, kFullCircle>(g, n, tx, ty, ts, te, cls);
}

__attribute__((target("avx2,fma"))) void BlockTestAvx2(
    const WorkerGeom& g, size_t nb, const double* cx, const double* cy,
    const double* half_w, const double* half_h, const double* end_max,
    uint8_t* survive) {
  BlockTestLoop(g, nb, cx, cy, half_w, half_h, end_max, survive);
}
#endif

// Dispatch table, classify indexed [policy == kAllowWait][full_circle],
// resolved once per process from cpuid (no ambient time/rng involved).
struct KernelTable {
  ClassifyFn classify[2][2];
  BlockTestFn block_test;
};

const KernelTable& GetKernelTable() {
  static const KernelTable table = [] {
    KernelTable t;
    t.classify[0][0] = &ClassifyDefault<false, false>;
    t.classify[0][1] = &ClassifyDefault<false, true>;
    t.classify[1][0] = &ClassifyDefault<true, false>;
    t.classify[1][1] = &ClassifyDefault<true, true>;
    t.block_test = &BlockTestDefault;
#ifdef RDBSC_KERNELS_DYNAMIC_AVX2
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      t.classify[0][0] = &ClassifyAvx2<false, false>;
      t.classify[0][1] = &ClassifyAvx2<false, true>;
      t.classify[1][0] = &ClassifyAvx2<true, false>;
      t.classify[1][1] = &ClassifyAvx2<true, true>;
      t.block_test = &BlockTestAvx2;
    }
#endif
    return t;
  }();
  return table;
}

// Classifies block slots [lo, hi) into cls[lo, hi); slots of tasks with
// non-finite fields are never classified. Inlined: the grid retrieval
// calls it once per (worker, cell) pair.
[[gnu::always_inline]] inline void ClassifyRange(const WorkerGeom& g,
                                                 ArrivalPolicy policy,
                                                 const TaskBlock& block,
                                                 size_t lo, size_t hi,
                                                 uint8_t* cls) {
  const int wait = policy == ArrivalPolicy::kAllowWait ? 1 : 0;
  const int full = g.full_circle ? 1 : 0;
  GetKernelTable().classify[wait][full](
      g, hi - lo, block.x.data() + lo, block.y.data() + lo,
      block.start.data() + lo, block.end.data() + lo, cls + lo);
  for (int32_t idx : block.suspect) {
    const auto k = static_cast<size_t>(idx);
    if (k >= lo && k < hi) cls[k] = kPairUncertain;
  }
}

// Appends, in slot order, the ids of slots [lo, hi) that are certain
// accepts or uncertain and valid under the oracle.
void EmitValid(const Worker& w, double now, ArrivalPolicy policy,
               const TaskBlock& block, size_t lo, size_t hi,
               const uint8_t* cls, std::vector<TaskId>* out) {
  for (size_t k = lo; k < hi; ++k) {
    const uint8_t c = cls[k];
    // Debug builds cross-check every certain verdict against the oracle,
    // so the unit/sanitizer suites exercise the margins on every pair.
    assert(c == kPairUncertain ||
           (c == kPairAccept) == IsValidPair(block.TaskAt(k), w, now, policy));
    if (c == kPairAccept ||
        (c == kPairUncertain &&
         IsValidPair(block.TaskAt(k), w, now, policy))) {
      out->push_back(block.id[k]);
    }
  }
}

bool DegenerateTask(const Task& t) {
  return !(std::isfinite(t.start) && std::isfinite(t.end) &&
           std::fabs(t.location.x) < kHugeCoord &&
           std::fabs(t.location.y) < kHugeCoord);
}

// Side of the grid the spatial order quantises locations to: 256 cells
// an axis, so the Hilbert index fits 16 bits and sorts in two byte passes.
constexpr uint32_t kOrderSide = 256;

// Position of cell (x, y) along the Hilbert curve filling the grid, two
// bits a level from the top. Each level reads the cell's quadrant in the
// frame the levels above left (their complements and x/y swaps commute,
// so two bits hold it), appends the quadrant's rank along the curve and
// turns the frame where the curve enters the quadrant; branch-free, as
// the quadrants are unpredictable.
uint32_t HilbertIndex(uint32_t x, uint32_t y) {
  uint32_t d = 0, flip = 0, swap = 0;
  for (int level = std::countr_zero(kOrderSide) - 1; level >= 0; --level) {
    const uint32_t bx = ((x >> level) & 1) ^ flip;
    const uint32_t by = ((y >> level) & 1) ^ flip;
    const uint32_t rx = bx ^ ((bx ^ by) & swap);
    const uint32_t ry = by ^ ((bx ^ by) & swap);
    d = (d << 2) | ((3 * rx) ^ ry);
    const uint32_t turn = ry ^ 1;
    flip ^= rx & turn;
    swap ^= turn;
  }
  return d;
}

// Task ids in Hilbert-curve order of their location over a kOrderSide^2
// grid spanning the non-degenerate tasks' bounding box, by a stable radix
// sort, so ties keep id order; degenerate tasks go last, in id order. The
// curve's runs of kBlockTasks tasks are compact, which is what keeps the
// block boxes small.
std::vector<TaskId> SpatialOrder(const std::vector<Task>& tasks) {
  double x0 = std::numeric_limits<double>::infinity(), x1 = -x0;
  double y0 = x0, y1 = -x0;
  std::vector<TaskId> order, degenerate;
  order.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    if (DegenerateTask(t)) {
      degenerate.push_back(static_cast<TaskId>(i));
      continue;
    }
    order.push_back(static_cast<TaskId>(i));
    x0 = std::min(x0, t.location.x);
    x1 = std::max(x1, t.location.x);
    y0 = std::min(y0, t.location.y);
    y1 = std::max(y1, t.location.y);
  }
  constexpr double kLast = kOrderSide - 1;
  const double sx = x1 > x0 ? kOrderSide / (x1 - x0) : 0.0;
  const double sy = y1 > y0 ? kOrderSide / (y1 - y0) : 0.0;
  // Grid cells first, then the curve in a loop GCC vectorises.
  const size_t n = tasks.size();
  std::vector<uint32_t> qx(n), qy(n), key(n);
  for (size_t i = 0; i < n; ++i) {
    // NaN fails the > and lands in cell 0; degenerate keys go unused.
    const double fx = (tasks[i].location.x - x0) * sx;
    const double fy = (tasks[i].location.y - y0) * sy;
    qx[i] = static_cast<uint32_t>(fx > 0.0 ? std::min(fx, kLast) : 0.0);
    qy[i] = static_cast<uint32_t>(fy > 0.0 ? std::min(fy, kLast) : 0.0);
  }
  for (size_t i = 0; i < n; ++i) key[i] = HilbertIndex(qx[i], qy[i]);
  std::vector<TaskId> sorted(order.size());
  for (int shift : {0, 8}) {
    size_t start[257] = {};
    for (TaskId i : order) ++start[((key[i] >> shift) & 0xFF) + 1];
    for (int c = 0; c < 256; ++c) start[c + 1] += start[c];
    for (TaskId i : order) sorted[start[(key[i] >> shift) & 0xFF]++] = i;
    order.swap(sorted);
  }
  order.insert(order.end(), degenerate.begin(), degenerate.end());
  return order;
}

}  // namespace

void TaskBlock::Reserve(size_t n) {
  x.reserve(n);
  y.reserve(n);
  start.reserve(n);
  end.reserve(n);
  id.reserve(n);
}

void TaskBlock::Add(TaskId task_id, const Task& t) {
  const int32_t k = static_cast<int32_t>(x.size());
  x.push_back(t.location.x);
  y.push_back(t.location.y);
  start.push_back(t.start);
  end.push_back(t.end);
  id.push_back(task_id);
  if (!(std::isfinite(t.location.x) && std::isfinite(t.location.y) &&
        std::isfinite(t.start) && std::isfinite(t.end))) {
    suspect.push_back(k);
  }
}

WorkerGeom PrecomputeWorker(const Worker& w, double now) {
  WorkerGeom g;
  g.wx = w.location.x;
  g.wy = w.location.y;
  g.depart = std::max(now, w.available_from);
  g.velocity = w.velocity;
  // Non-positive or non-finite geometry falls back to the oracle wholesale
  // (e.g. velocity <= 0 pairs with end = +inf are oracle business).
  g.scalar_only = !(w.velocity > 0.0) || !std::isfinite(w.velocity) ||
                  !std::isfinite(g.wx) || !std::isfinite(g.wy) ||
                  !std::isfinite(g.depart);
  const double width = w.direction.width();
  g.full_circle = width >= geo::kTwoPi;
  if (!g.full_circle) {
    if (!std::isfinite(w.direction.lo()) || !std::isfinite(width)) {
      g.scalar_only = true;
      return g;
    }
    const double half = 0.5 * width;
    const double mid = w.direction.lo() + half;
    g.ux = std::cos(mid);
    g.uy = std::sin(mid);
    // Widened/narrowed half-angle thresholds as signed-square cosines.
    // When the narrowed angle clamps to 0 (or the widened one to pi) the
    // corresponding test could only fire from rounding noise, so it is
    // disabled with a sentinel no normal |cos|^2 <= 1 + eps can cross.
    const double th_in = half - kAngleEps;
    if (th_in > 0.0) {
      const double c = std::cos(th_in);
      g.cin_ss = c * std::fabs(c);
    } else {
      g.cin_ss = 2.0;  // never certain-inside
    }
    const double th_out = half + kAngleEps;
    if (th_out < std::numbers::pi) {
      const double c = std::cos(th_out);
      g.cout_ss = c * std::fabs(c);
      g.wide_sin = std::sin(th_out);
    } else {
      g.cout_ss = -2.0;  // never certain-outside
    }
  }
  return g;
}

void ClassifyRow(const WorkerGeom& g, ArrivalPolicy policy,
                 const TaskBlock& block, uint8_t* cls) {
  assert(!g.scalar_only && "scalar-only workers are oracle business");
  ClassifyRange(g, policy, block, 0, block.size(), cls);
}

size_t ValidPairsRow(const WorkerGeom& g, const Worker& w, double now,
                     ArrivalPolicy policy, const TaskBlock& block,
                     uint8_t* cls_scratch, std::vector<TaskId>* out) {
  const size_t n = block.size();
  const size_t before = out->size();
  if (g.scalar_only) {
    for (size_t k = 0; k < n; ++k) {
      if (IsValidPair(block.TaskAt(k), w, now, policy)) {
        out->push_back(block.id[k]);
      }
    }
    return out->size() - before;
  }
  ClassifyRange(g, policy, block, 0, n, cls_scratch);
  EmitValid(w, now, policy, block, 0, n, cls_scratch, out);
  return out->size() - before;
}

bool BlockMayHoldPair(const WorkerGeom& g, const BlockSummary& s) {
  if (g.scalar_only) return true;
  uint8_t survive = 1;
  BlockTestLoop(g, 1, &s.cx, &s.cy, &s.half_w, &s.half_h, &s.end_max,
                &survive);
  return survive != 0;
}

InstanceSoA InstanceSoA::Build(const Instance& instance) {
  InstanceSoA soa;
  soa.now_ = instance.now();
  soa.policy_ = instance.policy();
  const auto m = static_cast<size_t>(instance.num_tasks());
  soa.tasks_.Reserve(m);
  if (m <= kMaxUnorderedTasks) {
    // Too few blocks to skip: no order and no summary.
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      soa.tasks_.Add(i, instance.task(i));
    }
  } else {
    for (TaskId i : SpatialOrder(instance.tasks())) {
      soa.tasks_.Add(i, instance.task(i));
    }
    const TaskBlock& block = soa.tasks_;
    const size_t nb = (m + kBlockTasks - 1) / kBlockTasks;
    soa.summary_.resize(kSummaryColumns * nb);
    double* col = soa.summary_.data();
    for (size_t b = 0; b < nb; ++b) {
      const size_t lo = b * kBlockTasks, hi = std::min(m, lo + kBlockTasks);
      double x0 = block.x[lo], x1 = x0, y0 = block.y[lo], y1 = y0;
      double end_max = block.end[lo];
      bool degenerate = false;
      for (size_t k = lo; k < hi; ++k) {
        x0 = std::min(x0, block.x[k]);
        x1 = std::max(x1, block.x[k]);
        y0 = std::min(y0, block.y[k]);
        y1 = std::max(y1, block.y[k]);
        end_max = std::max(end_max, block.end[k]);
        degenerate = degenerate || DegenerateTask(block.TaskAt(k));
      }
      const double inf = std::numeric_limits<double>::infinity();
      const double cx = 0.5 * (x0 + x1), cy = 0.5 * (y0 + y1);
      col[b] = cx;
      col[nb + b] = cy;
      col[2 * nb + b] = degenerate ? inf : std::max(x1 - cx, cx - x0);
      col[3 * nb + b] = degenerate ? inf : std::max(y1 - cy, cy - y0);
      col[4 * nb + b] = end_max;
    }
  }
  soa.geoms_.reserve(instance.workers().size());
  for (const Worker& w : instance.workers()) {
    soa.geoms_.push_back(PrecomputeWorker(w, soa.now_));
  }
  return soa;
}

BlockSummary InstanceSoA::block_summary(size_t b) const {
  const size_t nb = num_blocks();
  return {summary_[b], summary_[nb + b], summary_[2 * nb + b],
          summary_[3 * nb + b], summary_[4 * nb + b]};
}

void InstanceSoA::TestBlocks(const WorkerGeom& g, uint8_t* survive) const {
  const size_t nb = num_blocks();
  if (g.scalar_only) {
    std::fill(survive, survive + nb, uint8_t{1});
    return;
  }
  const double* col = summary_.data();
  GetKernelTable().block_test(g, nb, col, col + nb, col + 2 * nb,
                              col + 3 * nb, col + 4 * nb, survive);
}

bool ValidPairsRows(const Instance& instance, int64_t begin, int64_t end,
                    const util::Deadline& deadline, util::Arena* arena,
                    EdgeRow* rows, BlockTestCounts* counts) {
  const InstanceSoA& soa = instance.soa();
  const TaskBlock& block = soa.task_block();
  const size_t m = block.size();
  const size_t nb = soa.num_blocks();
  const double now = soa.now();
  const ArrivalPolicy policy = soa.policy();
  std::vector<uint8_t> cls(m);
  std::vector<uint8_t> survive(nb);
  // One bit per task id, set and cleared again within a row.
  std::vector<uint64_t> hits(nb == 0 ? 0 : (m + 63) / 64);
  std::vector<TaskId> scratch;
  int64_t tested = 0, skipped = 0;
  for (int64_t j = begin; j < end; ++j) {
    if ((j - begin) % kKernelRowsPerPoll == 0 && deadline.Exhausted()) {
      counts->tested += tested;
      counts->skipped += skipped;
      return false;
    }
    scratch.clear();
    const WorkerGeom& g = soa.worker_geoms()[static_cast<size_t>(j)];
    const Worker& w = instance.worker(static_cast<WorkerId>(j));
    if (nb == 0 || g.scalar_only) {
      ValidPairsRow(g, w, now, policy, block, cls.data(), &scratch);
    } else {
      soa.TestBlocks(g, survive.data());
      tested += static_cast<int64_t>(nb);
      // Each run of surviving blocks is one classify call.
      for (size_t b = 0; b < nb;) {
        if (survive[b] == 0) {
#ifndef NDEBUG
          const size_t stop = std::min(m, (b + 1) * kBlockTasks);
          for (size_t k = b * kBlockTasks; k < stop; ++k) {
            assert(!IsValidPair(block.TaskAt(k), w, now, policy) &&
                   "block test rejected a block holding a valid pair");
          }
#endif
          ++skipped;
          ++b;
          continue;
        }
        size_t e = b + 1;
        while (e < nb && survive[e] != 0) ++e;
        const size_t lo = b * kBlockTasks, hi = std::min(m, e * kBlockTasks);
        ClassifyRange(g, policy, block, lo, hi, cls.data());
        EmitValid(w, now, policy, block, lo, hi, cls.data(), &scratch);
        b = e;
      }
    }
    // A summarised block is in Hilbert order; the id mask puts the row
    // back in ascending order in O(ids + m / 64), dense rows included.
    if (nb != 0 && scratch.size() > 1) {
      for (TaskId id : scratch) {
        hits[static_cast<size_t>(id) / 64] |= uint64_t{1} << (id % 64);
      }
      scratch.clear();
      for (size_t word = 0; word < hits.size(); ++word) {
        for (uint64_t bits = hits[word]; bits != 0; bits &= bits - 1) {
          scratch.push_back(
              static_cast<TaskId>(word * 64 + std::countr_zero(bits)));
        }
        hits[word] = 0;
      }
    }
    TaskId* dst = arena->AllocateArray<TaskId>(scratch.size());
    if (!scratch.empty()) {
      std::memcpy(dst, scratch.data(), scratch.size() * sizeof(TaskId));
    }
    rows[j] = {dst, static_cast<int32_t>(scratch.size())};
  }
  counts->tested += tested;
  counts->skipped += skipped;
  return true;
}

}  // namespace rdbsc::core
