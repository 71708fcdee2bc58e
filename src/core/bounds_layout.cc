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

// The terms of Std's two entropy walks: an angular gap, and an interval
// of the clamped arrival chain.
double GapTerm(double gap) { return EntropyTerm(gap / kTwoPi); }

double IntervalTerm(double length, double duration) {
  return EntropyTerm(length / duration);
}

// Where std::upper_bound inserts x: after every stored value equal to it.
size_t RankOf(const std::vector<double>& sorted, double x) {
  return static_cast<size_t>(
      std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
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

  gap_term_.clear();
  for (size_t k = 0; k + 1 < angle_.size(); ++k) {
    gap_term_.push_back(GapTerm(angle_[k + 1] - angle_[k]));
  }
  const double duration = task.end - task.start;
  clamped_.clear();
  interval_term_.clear();
  double prev = task.start;
  for (double t : arrival_) {
    double clamped = std::clamp(t, prev, task.end);
    clamped_.push_back(clamped);
    interval_term_.push_back(IntervalTerm(clamped - prev, duration));
    prev = clamped;
  }
  interval_term_.push_back(IntervalTerm(task.end - prev, duration));
}

// A new value changes the terms next to it only. For angles that is the
// gap it splits. For arrivals, inserting y at its rank turns the chain
// step p -> clamp(b, p, end) into p -> q = clamp(y, p, end) -> the next
// clamped value, and that value is unchanged: clamp(b, clamp(y, p, end),
// end) == clamp(b, p, end) for y <= b, and upper_bound puts y before
// every larger b. So every later chain value and interval term stands.
void BoundsLayout::Add(const Task& task, const Observation& o) {
  assert(!interval_term_.empty());  // Assign() first
  const size_t at_angle = RankOf(angle_, o.angle);
  angle_.insert(angle_.begin() + static_cast<std::ptrdiff_t>(at_angle),
                o.angle);
  const size_t n = angle_.size();
  if (n >= 2) {
    gap_term_.insert(gap_term_.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(at_angle, n - 2)),
                     0.0);
    for (size_t k = at_angle == 0 ? 0 : at_angle - 1;
         k <= at_angle && k + 1 < n; ++k) {
      gap_term_[k] = GapTerm(angle_[k + 1] - angle_[k]);
    }
  }

  const size_t at = RankOf(arrival_, o.arrival);
  const double duration = task.end - task.start;
  const double prev = at == 0 ? task.start : clamped_[at - 1];
  const double q = std::clamp(o.arrival, prev, task.end);
  const double next = at < clamped_.size() ? clamped_[at] : task.end;
  arrival_.insert(arrival_.begin() + static_cast<std::ptrdiff_t>(at),
                  o.arrival);
  clamped_.insert(clamped_.begin() + static_cast<std::ptrdiff_t>(at), q);
  interval_term_[at] = IntervalTerm(next - q, duration);
  interval_term_.insert(
      interval_term_.begin() + static_cast<std::ptrdiff_t>(at),
      IntervalTerm(q - prev, duration));
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
// so walking the stored lists with the extra value at its rank visits
// exactly what std::sort produced; a cached term is the double that walk
// would compute at that step, so adding it in turn gives the same sums.
DiversityBounds BoundsLayout::Bounds(const Task& task,
                                     const Observation* extra) const {
  DiversityBounds bounds;
  const size_t stored = confidence_.size();
  const size_t r = stored + (extra != nullptr ? 1 : 0);
  if (r == 0) return bounds;

  // SpatialDiversity's gap entropy; its gaps are SortByAngle's, whose
  // final wrap gap is patched to 2*pi minus the others. An extra angle
  // splits one stored gap into two fresh ones; the wrap gap depends on
  // the running sum, so it is always fresh.
  double sd = 0.0;
  double min_gap = kTwoPi;
  if (r >= 2) {
    double sum = 0.0;
    auto add_gap = [&](double gap, double term) {
      sum += gap;
      sd += term;
      min_gap = std::min(min_gap, gap);
    };
    auto add_stored = [&](size_t from, size_t to) {
      for (size_t k = from; k < to; ++k) {
        add_gap(angle_[k + 1] - angle_[k], gap_term_[k]);
      }
    };
    if (extra == nullptr) {
      add_stored(0, stored - 1);
    } else {
      const double y = extra->angle;
      const size_t at = RankOf(angle_, y);
      if (at > 0) {
        add_stored(0, at - 1);
        double gap = y - angle_[at - 1];
        add_gap(gap, GapTerm(gap));
      }
      if (at < stored) {
        double gap = angle_[at] - y;
        add_gap(gap, GapTerm(gap));
        add_stored(at, stored - 1);
      }
    }
    double wrap = kTwoPi - sum;
    sd += GapTerm(wrap);
    min_gap = std::min(min_gap, wrap);
  }

  // TemporalDiversity's walk over the sorted arrivals. An extra arrival
  // adds the interval up to it and replaces the one after it; the chain
  // beyond is unchanged (see Add).
  const double duration = task.end - task.start;
  double td = 0.0;
  if (extra == nullptr) {
    for (double term : interval_term_) td += term;
  } else {
    const size_t at = RankOf(arrival_, extra->arrival);
    for (size_t k = 0; k < at; ++k) td += interval_term_[k];
    const double prev = at == 0 ? task.start : clamped_[at - 1];
    const double q = std::clamp(extra->arrival, prev, task.end);
    const double next = at < stored ? clamped_[at] : task.end;
    td += IntervalTerm(q - prev, duration);
    td += IntervalTerm(next - q, duration);
    for (size_t k = at + 1; k <= stored; ++k) td += interval_term_[k];
  }
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
