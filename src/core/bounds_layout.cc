#include "core/bounds_layout.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

#include "geo/angle.h"
#include "util/math.h"

namespace rdbsc::core {
namespace {

using geo::kTwoPi;
using util::ClampConfidence;
using util::EntropyTerm;

// ExpectedStdBounds' helpers, restated: the entropy of a two-way split
// a : (1-a), and the temporal term it minimizes over the roster -- the
// split of the valid period at o's arrival.
double TwoWayEntropy(double a) { return EntropyTerm(a) + EntropyTerm(1.0 - a); }

double TemporalSplitTerm(const Task& task, const Observation& o) {
  double a = (std::clamp(o.arrival, task.start, task.end) - task.start) /
             task.Duration();
  return TwoWayEntropy(a);
}

}  // namespace

void BoundsLayout::Assign(const Task& task,
                          const std::vector<Observation>& obs) {
  angle_.clear();
  arrival_.clear();
  confidence_.clear();
  absent_.clear();
  min_td_term_ = std::numeric_limits<double>::infinity();
  for (const Observation& o : obs) {
    angle_.push_back(o.angle);
    arrival_.push_back(o.arrival);
    Append(task, o);
  }
  std::sort(angle_.begin(), angle_.end());
  std::sort(arrival_.begin(), arrival_.end());
}

void BoundsLayout::Add(const Task& task, const Observation& o) {
  angle_.insert(std::upper_bound(angle_.begin(), angle_.end(), o.angle),
                o.angle);
  arrival_.insert(
      std::upper_bound(arrival_.begin(), arrival_.end(), o.arrival),
      o.arrival);
  Append(task, o);
}

void BoundsLayout::Append(const Task& task, const Observation& o) {
  assert(o.angle >= 0.0 && o.angle < kTwoPi);
  double p = ClampConfidence(o.confidence);
  absent_.push_back((absent_.empty() ? 1.0 : absent_.back()) * (1.0 - p));
  confidence_.push_back(p);
  min_td_term_ = std::min(min_td_term_, TemporalSplitTerm(task, o));
}

// Every step below repeats ExpectedStdBounds' arithmetic on the same
// values in the same order (its Std, SortByAngle and prefix/suffix loops),
// which is what makes the result bit-identical. Sorting orders the values,
// so walking the merged lists visits exactly what std::sort produced.
DiversityBounds BoundsLayout::Bounds(const Task& task,
                                     const Observation* extra) const {
  DiversityBounds bounds;
  const size_t stored = confidence_.size();
  const size_t r = stored + (extra != nullptr ? 1 : 0);
  if (r == 0) return bounds;

  // Element k of a sorted list with the extra value merged in at its rank.
  auto merged = [stored](const std::vector<double>& sorted, const double* x) {
    size_t at = x == nullptr ? stored
                             : static_cast<size_t>(
                                   std::upper_bound(sorted.begin(),
                                                    sorted.end(), *x) -
                                   sorted.begin());
    return [&sorted, x, at](size_t k) {
      return k < at ? sorted[k] : k == at ? *x : sorted[k - 1];
    };
  };
  auto angle = merged(angle_, extra != nullptr ? &extra->angle : nullptr);
  auto arrival =
      merged(arrival_, extra != nullptr ? &extra->arrival : nullptr);

  // SpatialDiversity's gap entropy; its gaps are SortByAngle's, whose
  // final wrap gap is patched to 2*pi minus the others.
  double sd = 0.0;
  double min_gap = kTwoPi;
  if (r >= 2) {
    double sum = 0.0;
    for (size_t k = 0; k + 1 < r; ++k) {
      double gap = angle(k + 1) - angle(k);
      sum += gap;
      sd += EntropyTerm(gap / kTwoPi);
      min_gap = std::min(min_gap, gap);
    }
    double wrap = kTwoPi - sum;
    sd += EntropyTerm(wrap / kTwoPi);
    min_gap = std::min(min_gap, wrap);
  }

  // TemporalDiversity's walk over the sorted arrivals.
  const double duration = task.end - task.start;
  double td = 0.0;
  double prev = task.start;
  for (size_t k = 0; k < r; ++k) {
    double clamped = std::clamp(arrival(k), prev, task.end);
    td += EntropyTerm((clamped - prev) / duration);
    prev = clamped;
  }
  td += EntropyTerm((task.end - prev) / duration);
  bounds.ub = task.beta * sd + (1.0 - task.beta) * td;

  // P(none present) and P(exactly one present): the extra observation is
  // last in insertion order, so the back-to-front loop starts with it.
  const double stored_none = stored == 0 ? 1.0 : absent_.back();
  double none = stored_none;
  double exactly_one = 0.0;
  double suffix = 1.0;
  double min_td = min_td_term_;
  if (extra != nullptr) {
    double p = ClampConfidence(extra->confidence);
    none = stored_none * (1.0 - p);
    exactly_one += p * stored_none * suffix;
    suffix *= 1.0 - p;
    min_td = std::min(min_td, TemporalSplitTerm(task, *extra));
  }
  for (size_t i = stored; i-- > 0;) {
    double prefix = i == 0 ? 1.0 : absent_[i - 1];
    exactly_one += confidence_[i] * prefix * suffix;
    suffix *= 1.0 - confidence_[i];
  }
  double p_ge1 = 1.0 - none;
  double p_ge2 = std::max(0.0, p_ge1 - exactly_one);
  double min_sd = r >= 2 ? TwoWayEntropy(min_gap / kTwoPi) : 0.0;

  bounds.lb = task.beta * p_ge2 * min_sd + (1.0 - task.beta) * p_ge1 * min_td;
  bounds.lb = std::min(bounds.lb, bounds.ub);
  return bounds;
}

}  // namespace rdbsc::core
