#include "core/diversity.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "geo/angle.h"
#include "util/math.h"

namespace rdbsc::core {
namespace {

using geo::kTwoPi;
using util::ClampConfidence;
using util::EntropyTerm;

// Entropy of a two-way split a : (1-a); the diversity of a two-ray world.
double TwoWayEntropy(double a) { return EntropyTerm(a) + EntropyTerm(1.0 - a); }

// True when the rest of an Eq. 9 / Eq. 10 row provably cannot change
// `expected` by a single bit, so the row may stop; `between_absent` is the
// row's running product of (1 - p) right after its latest update. Every
// later term of the row is EntropyTerm(x) * p_a * p_k * between_absent',
// evaluated left to right, and:
//  - |EntropyTerm(x)| <= 1/e for x in [0, 1], and EntropyTerm(x) >=
//    -1.1e-9 for the x <= 1 + 1e-9 its precondition admits (Observation
//    angles lie in [0, 2*pi) and arrivals are clamped into the period, so
//    x stays there);
//  - p_a and p_k are clamped confidences in [0, 1 - 1e-12] or the temporal
//    boundaries' 1.0, so multiplying by them never grows a magnitude, and
//    neither does rounding, which is monotone;
//  - between_absent' <= between_absent: fl(x * (1 - p)) <= x for 1 - p in
//    [0, 1], so the running product never grows along a row.
// So every later term has |term| <= 0.5 * between_absent, rounding
// included. Let expected lie in [2^e, 2^(e+1)). The test below gives
// between_absent < expected * 2^-55 <= 2^(e-54), so |term| <= 2^(e-55):
// below half the smaller of the two spacings next to expected (2^(e-53)
// just under a power of two, 2^(e-52) elsewhere). Round-to-nearest then
// returns expected unchanged from each skipped `expected += term`, and by
// induction from all of them, so stopping is bit-identical to the full
// row. When expected is 0, negative, NaN or so small that expected * 2^-55
// underflows to 0, the test is false and the full row runs.
bool RowTailIsInvisible(double between_absent, double expected) {
  return between_absent < expected * 0x1p-55;
}

// Observations sorted by approach angle, with circular gap g[i] from ray i
// to ray i+1 (cyclic).
struct AngularLayout {
  std::vector<double> angle;
  std::vector<double> confidence;
  std::vector<double> gap;
};

// Observations sorted by arrival, with the virtual boundary dividers at
// `start` and `end` prepended/appended (probability 1 each).
struct TemporalLayout {
  std::vector<double> time;  // size r + 2, time[0] = start, back() = end
  std::vector<double> confidence;
};

// Per-thread buffers behind every E[STD] and bound evaluation, so that
// once a thread has seen its largest roster these functions allocate
// nothing. Each buffer has one user at a time: the two layouts are filled
// and consumed by one call each, `values` by Std's two sequential passes
// and `absent` by ExpectedStdBounds, which calls Std and SortByAngle only
// before or after its own use of `absent`.
struct Scratch {
  std::vector<size_t> order;
  AngularLayout angular;
  TemporalLayout temporal;
  std::vector<double> values;
  std::vector<double> absent;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

// Fills `order` with 0..r-1 sorted by `less`. std::sort on the same index
// array with the same comparator always yields the same permutation, so
// reusing the buffer keeps the tie order of a fresh vector. Small rosters,
// the common case, run std::sort's own small-range insertion sort inline.
template <typename Less>
void SortOrder(size_t r, Less less, std::vector<size_t>* order) {
  order->resize(r);
  size_t* o = order->data();
  for (size_t i = 0; i < r; ++i) o[i] = i;
  if (r <= internal::kInsertionSortMax) {
    internal::InsertionSortOrder(o, r, less);
  } else {
    std::sort(o, o + r, less);
  }
}

const AngularLayout& SortByAngle(const std::vector<Observation>& obs) {
  Scratch& scratch = ThreadScratch();
  AngularLayout& layout = scratch.angular;
  const size_t r = obs.size();
  SortOrder(
      r, [&obs](size_t a, size_t b) { return obs[a].angle < obs[b].angle; },
      &scratch.order);
  layout.angle.resize(r);
  layout.confidence.resize(r);
  layout.gap.resize(r);
  double* angle = layout.angle.data();
  double* confidence = layout.confidence.data();
  double* gap = layout.gap.data();
  for (size_t k = 0; k < r; ++k) {
    const size_t i = scratch.order[k];
    angle[k] = geo::NormalizeAngle(obs[i].angle);
    confidence[k] = ClampConfidence(obs[i].confidence);
  }
  // The final gap wraps around; it is set so that the gaps sum to 2*pi,
  // which also covers all-equal angles, whose wrap CcwDelta reports as 0.
  double sum = 0.0;
  for (size_t i = 0; i + 1 < r; ++i) {
    gap[i] = geo::CcwDelta(angle[i], angle[i + 1]);
    sum += gap[i];
  }
  if (r > 0) gap[r - 1] = kTwoPi - sum;
  return layout;
}

const TemporalLayout& SortByArrival(const std::vector<Observation>& obs,
                                    double start, double end) {
  Scratch& scratch = ThreadScratch();
  TemporalLayout& layout = scratch.temporal;
  const size_t r = obs.size();
  SortOrder(
      r, [&obs](size_t a, size_t b) { return obs[a].arrival < obs[b].arrival; },
      &scratch.order);
  layout.time.resize(r + 2);
  layout.confidence.resize(r + 2);
  double* time = layout.time.data();
  double* confidence = layout.confidence.data();
  time[0] = start;
  confidence[0] = 1.0;
  for (size_t k = 0; k < r; ++k) {
    const size_t i = scratch.order[k];
    time[k + 1] = std::clamp(obs[i].arrival, start, end);
    confidence[k + 1] = ClampConfidence(obs[i].confidence);
  }
  time[r + 1] = end;
  confidence[r + 1] = 1.0;
  return layout;
}

// SpatialDiversity / TemporalDiversity on a buffer they may reorder.
double SpatialDiversityInPlace(std::vector<double>* angles) {
  const size_t r = angles->size();
  if (r < 2) return 0.0;
  std::vector<double>& sorted = *angles;
  for (double& a : sorted) a = geo::NormalizeAngle(a);
  std::sort(sorted.begin(), sorted.end());
  double entropy = 0.0;
  double sum = 0.0;
  for (size_t i = 0; i + 1 < r; ++i) {
    double gap = sorted[i + 1] - sorted[i];
    sum += gap;
    entropy += EntropyTerm(gap / kTwoPi);
  }
  entropy += EntropyTerm((kTwoPi - sum) / kTwoPi);
  return entropy;
}

double TemporalDiversityInPlace(std::vector<double>* arrivals, double start,
                                double end) {
  assert(end > start);
  if (arrivals->empty()) return 0.0;
  std::vector<double>& sorted = *arrivals;
  std::sort(sorted.begin(), sorted.end());
  const double duration = end - start;
  double entropy = 0.0;
  double prev = start;
  for (double t : sorted) {
    double clamped = std::clamp(t, prev, end);
    entropy += EntropyTerm((clamped - prev) / duration);
    prev = clamped;
  }
  entropy += EntropyTerm((end - prev) / duration);
  return entropy;
}

}  // namespace

Observation MakeObservation(const Task& t, const Worker& w, double now,
                            ArrivalPolicy policy) {
  Observation obs;
  obs.angle = ApproachAngle(t, w);
  obs.arrival = std::clamp(ArrivalTime(w, t, now, policy), t.start, t.end);
  obs.confidence = w.confidence;
  return obs;
}

double SpatialDiversity(const std::vector<double>& angles) {
  if (angles.size() < 2) return 0.0;
  std::vector<double> sorted(angles);
  return SpatialDiversityInPlace(&sorted);
}

double TemporalDiversity(const std::vector<double>& arrivals, double start,
                         double end) {
  assert(end > start);
  if (arrivals.empty()) return 0.0;
  std::vector<double> sorted(arrivals);
  return TemporalDiversityInPlace(&sorted, start, end);
}

double Std(const Task& task, const std::vector<Observation>& obs) {
  std::vector<double>& values = ThreadScratch().values;
  values.clear();
  for (const Observation& o : obs) values.push_back(o.angle);
  const double spatial = SpatialDiversityInPlace(&values);
  values.clear();
  for (const Observation& o : obs) values.push_back(o.arrival);
  const double temporal =
      TemporalDiversityInPlace(&values, task.start, task.end);
  return task.beta * spatial + (1.0 - task.beta) * temporal;
}

double ExpectedSpatialDiversity(const std::vector<Observation>& obs) {
  const size_t r = obs.size();
  if (r < 2) return 0.0;
  const AngularLayout& layout = SortByAngle(obs);
  // Raw views, so the rows keep them in registers across the log calls.
  const double* gap = layout.gap.data();
  const double* confidence = layout.confidence.data();

  // M_SD[j][k] summed on the fly (Eq. 9): for each ordered pair (j, k) of
  // rays, the entropy of the angle swept CCW from j to k, weighted by the
  // probability that j and k are both realized and everything strictly
  // between them is not -- i.e. the probability that (j, k) are adjacent
  // rays in the realized world.
  double expected = 0.0;
  for (size_t j = 0; j < r; ++j) {
    double between_absent = 1.0;  // prod of (1 - p_x) for x strictly between
    double swept = 0.0;           // angle from ray j to ray k
    size_t k = j;                 // the ray `step` places CCW of j, cyclic
    for (size_t step = 1; step < r; ++step) {
      swept += gap[k];
      k = k + 1 == r ? 0 : k + 1;
      expected += EntropyTerm(swept / kTwoPi) * confidence[j] *
                  confidence[k] * between_absent;
      between_absent *= 1.0 - confidence[k];
      if (RowTailIsInvisible(between_absent, expected)) break;
    }
  }
  return expected;
}

double ExpectedTemporalDiversity(const std::vector<Observation>& obs,
                                 double start, double end) {
  assert(end > start);
  if (obs.empty()) return 0.0;
  const TemporalLayout& layout = SortByArrival(obs, start, end);
  const double* time = layout.time.data();
  const double* confidence = layout.confidence.data();
  const double duration = end - start;
  const size_t b = layout.time.size();  // r + 2 boundary candidates

  // M_TD summed on the fly (Eq. 10): a sub-interval [time[a], time[k]]
  // materializes exactly when both of its dividers are realized and every
  // divider strictly between them is not. The valid-period endpoints are
  // always-present dividers (confidence 1).
  double expected = 0.0;
  for (size_t a = 0; a + 1 < b; ++a) {
    double between_absent = 1.0;
    for (size_t k = a + 1; k < b; ++k) {
      double len = time[k] - time[a];
      expected += EntropyTerm(len / duration) * confidence[a] *
                  confidence[k] * between_absent;
      between_absent *= 1.0 - confidence[k];
      if (RowTailIsInvisible(between_absent, expected)) break;
    }
  }
  return expected;
}

double ExpectedStd(const Task& task, const std::vector<Observation>& obs) {
  double spatial =
      task.beta > 0.0 ? ExpectedSpatialDiversity(obs) : 0.0;
  double temporal =
      task.beta < 1.0
          ? ExpectedTemporalDiversity(obs, task.start, task.end)
          : 0.0;
  return task.beta * spatial + (1.0 - task.beta) * temporal;
}

double ExpectedStdBruteForce(const Task& task,
                             const std::vector<Observation>& obs) {
  const size_t r = obs.size();
  assert(r <= 25 && "possible-worlds enumeration limited to 2^25 worlds");
  double expected = 0.0;
  for (uint64_t world = 0; world < (uint64_t{1} << r); ++world) {
    double prob = 1.0;
    std::vector<Observation> present;
    for (size_t i = 0; i < r; ++i) {
      double p = ClampConfidence(obs[i].confidence);
      if (world & (uint64_t{1} << i)) {
        prob *= p;
        present.push_back(obs[i]);
      } else {
        prob *= 1.0 - p;
      }
    }
    if (prob > 0.0) expected += prob * Std(task, present);
  }
  return expected;
}

DiversityBounds ExpectedStdBounds(const Task& task,
                                  const std::vector<Observation>& obs) {
  DiversityBounds bounds;
  const size_t r = obs.size();
  if (r == 0) return bounds;

  bounds.ub = Std(task, obs);  // Lemma 4.2: diversity peaks with all present.

  // P(at least one present) and P(at least two present).
  double none = 1.0;
  for (const Observation& o : obs) none *= 1.0 - ClampConfidence(o.confidence);
  double exactly_one = 0.0;
  {
    // prefix[i] = prod of (1-p) over obs[0..i); suffix analogous.
    std::vector<double>& prefix = ThreadScratch().absent;
    prefix.assign(r + 1, 1.0);
    for (size_t i = 0; i < r; ++i) {
      prefix[i + 1] = prefix[i] * (1.0 - ClampConfidence(obs[i].confidence));
    }
    double suffix = 1.0;
    for (size_t i = r; i-- > 0;) {
      exactly_one += ClampConfidence(obs[i].confidence) * prefix[i] * suffix;
      suffix *= 1.0 - ClampConfidence(obs[i].confidence);
    }
  }
  double p_ge1 = 1.0 - none;
  double p_ge2 = std::max(0.0, p_ge1 - exactly_one);

  // Smallest realizable non-zero SD: the two rays across the narrowest gap
  // (Section 4.3; minimizer of the concave two-way entropy).
  double min_sd = 0.0;
  if (r >= 2) {
    const AngularLayout& layout = SortByAngle(obs);
    double min_gap = kTwoPi;
    for (double g : layout.gap) min_gap = std::min(min_gap, g);
    min_sd = TwoWayEntropy(min_gap / kTwoPi);
  }

  // Smallest realizable non-zero TD: the single worker whose arrival splits
  // the period most unevenly.
  double min_td = 0.0;
  {
    double best = std::numeric_limits<double>::infinity();
    const double duration = task.Duration();
    for (const Observation& o : obs) {
      double a = (std::clamp(o.arrival, task.start, task.end) - task.start) /
                 duration;
      best = std::min(best, TwoWayEntropy(a));
    }
    min_td = best;
  }

  bounds.lb = task.beta * p_ge2 * min_sd + (1.0 - task.beta) * p_ge1 * min_td;
  bounds.lb = std::min(bounds.lb, bounds.ub);
  return bounds;
}

}  // namespace rdbsc::core
