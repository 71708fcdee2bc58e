#ifndef RDBSC_GEO_BOX_H_
#define RDBSC_GEO_BOX_H_

#include <cstdint>
#include <vector>

#include "geo/angle.h"
#include "geo/point.h"

namespace rdbsc::geo {

/// An axis-aligned rectangle, used for grid cells in the RDB-SC-Grid index.
struct Box {
  Point min;
  Point max;

  /// True when `p` lies inside (boundaries inclusive).
  bool Contains(Point p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }

  Point Center() const {
    return {(min.x + max.x) * 0.5, (min.y + max.y) * 0.5};
  }
};

/// Minimum distance between any pair of points drawn from the two boxes
/// (0 when they overlap). Used by the cell-level pruning rule of Section 7.1.
double MinDistance(const Box& a, const Box& b);

/// Maximum distance between any pair of points drawn from the two boxes.
double MaxDistance(const Box& a, const Box& b);

/// The smallest angular interval guaranteed to contain the bearing from any
/// point of `from` to any point of `to`. When the boxes overlap the answer is
/// the full circle. Used to prune grid cells against a cell's direction
/// bounds without examining individual workers.
AngularInterval BearingInterval(const Box& from, const Box& to);

/// BearingInterval between two cells of a uniform grid with
/// `cells_per_axis` cells per axis, by their column/row offset (dx, dy)
/// alone, memoized over the (2 * cells_per_axis - 1)^2 offsets. Each entry
/// is the interval from the unit cell [0,1]^2 to [dx,dx+1] x [dy,dy+1]:
/// bearings are scale-invariant, so it is the interval between any two
/// equal-sided cells at that offset, and in cell units every corner of the
/// difference box is an exact small integer. Storage is allocated on the
/// first lookup and each entry computed on its own first lookup, so a grid
/// that never applies the direction rule pays nothing. Not thread-safe:
/// the owner serializes Get.
class CellBearingTable {
 public:
  explicit CellBearingTable(int cells_per_axis) : span_(cells_per_axis) {}

  /// The interval for offset (dx, dy); |dx|, |dy| < cells_per_axis.
  const AngularInterval& Get(int dx, int dy);

 private:
  int span_;
  std::vector<AngularInterval> entries_;
  std::vector<uint8_t> filled_;
};

}  // namespace rdbsc::geo

#endif  // RDBSC_GEO_BOX_H_
