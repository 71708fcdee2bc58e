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
/// temporal term. Bounds() then equals ExpectedStdBounds(roster [+ extra])
/// bit for bit in one O(r) merge walk that allocates nothing; Add() keeps
/// the layout current in O(r). Angles must lie in [0, 2*pi) -- the range
/// of geo::Bearing -- so one sorted list serves both the SD entropy sum
/// and the narrowest-gap search.
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
  std::vector<double> arrival_;
  std::vector<double> confidence_;
  std::vector<double> absent_;  ///< absent_[k] = prod_{i<=k} (1 - p_i)
  double min_td_term_ = std::numeric_limits<double>::infinity();
};

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_BOUNDS_LAYOUT_H_
