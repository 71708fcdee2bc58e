#include "core/kernels.h"

#include <cassert>
#include <cmath>
#include <cstring>
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
  const double depart = g.depart, v = g.velocity, ad1 = g.abs_depart1;
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

using ClassifyFn = void (*)(const WorkerGeom&, size_t, const double*,
                            const double*, const double*, const double*,
                            uint8_t*);

template <bool kWait, bool kFullCircle>
void ClassifyDefault(const WorkerGeom& g, size_t n, const double* tx,
                     const double* ty, const double* ts, const double* te,
                     uint8_t* cls) {
  ClassifyLoop<kWait, kFullCircle>(g, n, tx, ty, ts, te, cls);
}

#if defined(__x86_64__) && defined(__GNUC__)
#define RDBSC_KERNELS_DYNAMIC_AVX2 1
// The identical loop recompiled for AVX2+FMA and picked at runtime via
// cpuid. The margins above make FMA contraction and vector-width
// differences output-invisible, so dispatch cannot perturb the edge set.
// tools/check_vectorized.py fails if GCC stops vectorising any instance.
template <bool kWait, bool kFullCircle>
__attribute__((target("avx2,fma"))) void ClassifyAvx2(
    const WorkerGeom& g, size_t n, const double* tx, const double* ty,
    const double* ts, const double* te, uint8_t* cls) {
  ClassifyLoop<kWait, kFullCircle>(g, n, tx, ty, ts, te, cls);
}
#endif

// Dispatch table indexed [policy == kAllowWait][full_circle], resolved
// once per process from cpuid (no ambient time/rng involved).
struct ClassifyTable {
  ClassifyFn fn[2][2];
};

const ClassifyTable& GetClassifyTable() {
  static const ClassifyTable table = [] {
    ClassifyTable t;
    t.fn[0][0] = &ClassifyDefault<false, false>;
    t.fn[0][1] = &ClassifyDefault<false, true>;
    t.fn[1][0] = &ClassifyDefault<true, false>;
    t.fn[1][1] = &ClassifyDefault<true, true>;
#ifdef RDBSC_KERNELS_DYNAMIC_AVX2
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      t.fn[0][0] = &ClassifyAvx2<false, false>;
      t.fn[0][1] = &ClassifyAvx2<false, true>;
      t.fn[1][0] = &ClassifyAvx2<true, false>;
      t.fn[1][1] = &ClassifyAvx2<true, true>;
    }
#endif
    return t;
  }();
  return table;
}

}  // namespace

void TaskBlock::Reserve(size_t n) {
  x.reserve(n);
  y.reserve(n);
  start.reserve(n);
  end.reserve(n);
  id.reserve(n);
  oracle.reserve(n);
}

void TaskBlock::Add(TaskId task_id, const Task& t) {
  const int32_t k = static_cast<int32_t>(x.size());
  x.push_back(t.location.x);
  y.push_back(t.location.y);
  start.push_back(t.start);
  end.push_back(t.end);
  id.push_back(task_id);
  oracle.push_back(t);
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
  g.abs_depart1 = std::fabs(g.depart) + 1.0;
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
    } else {
      g.cout_ss = -2.0;  // never certain-outside
    }
  }
  return g;
}

void ClassifyRow(const WorkerGeom& g, ArrivalPolicy policy,
                 const TaskBlock& block, uint8_t* cls) {
  assert(!g.scalar_only && "scalar-only workers are oracle business");
  const int wait = policy == ArrivalPolicy::kAllowWait ? 1 : 0;
  const int full = g.full_circle ? 1 : 0;
  GetClassifyTable().fn[wait][full](g, block.size(), block.x.data(),
                                    block.y.data(), block.start.data(),
                                    block.end.data(), cls);
  // Tasks with non-finite fields are never classified.
  for (int32_t idx : block.suspect) cls[idx] = kPairUncertain;
}

size_t ValidPairsRow(const WorkerGeom& g, const Worker& w, double now,
                     ArrivalPolicy policy, const TaskBlock& block,
                     uint8_t* cls_scratch, std::vector<TaskId>* out) {
  const size_t n = block.size();
  const size_t before = out->size();
  if (g.scalar_only) {
    for (size_t k = 0; k < n; ++k) {
      if (IsValidPair(block.oracle[k], w, now, policy)) {
        out->push_back(block.id[k]);
      }
    }
    return out->size() - before;
  }
  ClassifyRow(g, policy, block, cls_scratch);
  for (size_t k = 0; k < n; ++k) {
    const uint8_t c = cls_scratch[k];
    // Debug builds cross-check every certain verdict against the oracle,
    // so the unit/sanitizer suites exercise the margins on every pair.
    assert(c == kPairUncertain ||
           (c == kPairAccept) == IsValidPair(block.oracle[k], w, now, policy));
    if (c == kPairAccept ||
        (c == kPairUncertain &&
         IsValidPair(block.oracle[k], w, now, policy))) {
      out->push_back(block.id[k]);
    }
  }
  return out->size() - before;
}

InstanceSoA InstanceSoA::Build(const Instance& instance) {
  InstanceSoA soa;
  soa.now_ = instance.now();
  soa.policy_ = instance.policy();
  soa.tasks_.Reserve(static_cast<size_t>(instance.num_tasks()));
  for (TaskId i = 0; i < instance.num_tasks(); ++i) {
    soa.tasks_.Add(i, instance.task(i));
  }
  soa.workers_ = instance.workers();
  soa.geoms_.reserve(soa.workers_.size());
  for (const Worker& w : soa.workers_) {
    soa.geoms_.push_back(PrecomputeWorker(w, soa.now_));
  }
  return soa;
}

bool ValidPairsRows(const InstanceSoA& soa, int64_t begin, int64_t end,
                    const util::Deadline& deadline, util::Arena* arena,
                    EdgeRow* rows) {
  const TaskBlock& block = soa.task_block();
  std::vector<uint8_t> cls(block.size());
  std::vector<TaskId> scratch;
  for (int64_t j = begin; j < end; ++j) {
    if ((j - begin) % kKernelRowsPerPoll == 0 && deadline.Exhausted()) {
      return false;
    }
    scratch.clear();
    ValidPairsRow(soa.worker_geoms()[static_cast<size_t>(j)],
                  soa.oracle_worker(static_cast<WorkerId>(j)), soa.now(),
                  soa.policy(), block, cls.data(), &scratch);
    TaskId* dst = arena->AllocateArray<TaskId>(scratch.size());
    if (!scratch.empty()) {
      std::memcpy(dst, scratch.data(), scratch.size() * sizeof(TaskId));
    }
    rows[j] = {dst, static_cast<int32_t>(scratch.size())};
  }
  return true;
}

}  // namespace rdbsc::core
