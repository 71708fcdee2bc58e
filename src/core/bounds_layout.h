#ifndef RDBSC_CORE_BOUNDS_LAYOUT_H_
#define RDBSC_CORE_BOUNDS_LAYOUT_H_

#include <limits>
#include <vector>

#include "core/diversity.h"
#include "core/model.h"

namespace rdbsc::core {

/// One task's roster kept in the order ExpectedStdBounds visits it: angles
/// and raw arrivals ascending, clamped confidences with their running
/// (1 - p) prefix products in insertion order, and the running minimum
/// temporal term. Next to the sorted values it caches the entropy term of
/// every angular gap and of every interval of the clamped arrival chain,
/// so Bounds(extra) computes only the terms the extra observation creates
/// (about nine logs at any roster size) and sums the cached doubles in
/// ExpectedStdBounds' order: it equals ExpectedStdBounds(roster [+ extra])
/// bit for bit and allocates nothing. Add() keeps the layout current in
/// O(r), computing at most six entropy terms; Assign() must come first.
/// Angles must lie in [0, 2*pi) -- the range of geo::Bearing -- so one
/// sorted list serves both the SD entropy sum and the narrowest-gap search.
class BoundsLayout {
 public:
  /// Rebuilds the layout from a whole roster (reusing capacity).
  void Assign(const Task& task, const std::vector<Observation>& obs);

  /// Appends one observation to the roster.
  void Add(const Task& task, const Observation& o);

  /// ExpectedStdBounds of the roster, plus `*extra` when non-null.
  DiversityBounds Bounds(const Task& task,
                         const Observation* extra = nullptr) const;

 private:
  void Append(const Task& task, const Observation& o);

  std::vector<double> angle_;
  std::vector<double> gap_term_;  ///< EntropyTerm of angle_[k+1] - angle_[k]
  std::vector<double> arrival_;
  std::vector<double> clamped_;   ///< the clamped chain over arrival_
  /// interval_term_[k]: EntropyTerm of clamped_[k] minus its predecessor
  /// (task.start for k = 0); the last entry is the interval up to task.end.
  std::vector<double> interval_term_;
  std::vector<double> confidence_;
  std::vector<double> absent_;  ///< absent_[k] = prod_{i<=k} (1 - p_i)
  double min_td_term_ = std::numeric_limits<double>::infinity();
};

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_BOUNDS_LAYOUT_H_
