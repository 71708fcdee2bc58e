#include "geo/box.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace rdbsc::geo {

double MinDistance(const Box& a, const Box& b) {
  // Separation per axis between the two intervals; 0 on overlap.
  double dx = std::max(0.0, std::max(a.min.x - b.max.x, b.min.x - a.max.x));
  double dy = std::max(0.0, std::max(a.min.y - b.max.y, b.min.y - a.max.y));
  return std::hypot(dx, dy);
}

double MaxDistance(const Box& a, const Box& b) {
  double dx = std::max(std::fabs(a.max.x - b.min.x),
                       std::fabs(b.max.x - a.min.x));
  double dy = std::max(std::fabs(a.max.y - b.min.y),
                       std::fabs(b.max.y - a.min.y));
  return std::hypot(dx, dy);
}

AngularInterval BearingInterval(const Box& from, const Box& to) {
  // The set of displacement vectors {q - p : p in from, q in to} is the
  // Minkowski difference, itself an axis-aligned box.
  Box diff{to.min - from.max, to.max - from.min};
  if (diff.min.x <= 0.0 && diff.max.x >= 0.0 && diff.min.y <= 0.0 &&
      diff.max.y >= 0.0) {
    // The origin is reachable: some pair of points coincide (or the boxes
    // overlap), so every bearing is possible.
    return AngularInterval::FullCircle();
  }
  // The difference box is convex and excludes the origin, so its direction
  // set is the minimal angular interval spanned by its four corners.
  const Point corners[4] = {{diff.min.x, diff.min.y},
                            {diff.min.x, diff.max.y},
                            {diff.max.x, diff.min.y},
                            {diff.max.x, diff.max.y}};
  double angles[4];
  for (int i = 0; i < 4; ++i) {
    angles[i] = Bearing({0.0, 0.0}, corners[i]);
  }
  // Choose the corner angle whose CCW sweep covers the rest most tightly.
  double best_lo = angles[0];
  double best_width = kTwoPi;
  for (int i = 0; i < 4; ++i) {
    double width = 0.0;
    for (int j = 0; j < 4; ++j) {
      width = std::max(width, CcwDelta(angles[i], angles[j]));
    }
    if (width < best_width) {
      best_width = width;
      best_lo = angles[i];
    }
  }
  return AngularInterval(best_lo, NormalizeAngle(best_lo + best_width));
}

const AngularInterval& CellBearingTable::Get(int dx, int dy) {
  assert(std::abs(dx) < span_ && std::abs(dy) < span_);
  const int side = 2 * span_ - 1;
  if (entries_.empty()) {
    const size_t size = static_cast<size_t>(side) * static_cast<size_t>(side);
    entries_.assign(size, AngularInterval::FullCircle());
    filled_.assign(size, 0);
  }
  const size_t slot = static_cast<size_t>(dy + span_ - 1) * side +
                      static_cast<size_t>(dx + span_ - 1);
  if (!filled_[slot]) {
    entries_[slot] = BearingInterval(
        Box{{0.0, 0.0}, {1.0, 1.0}},
        Box{{static_cast<double>(dx), static_cast<double>(dy)},
            {dx + 1.0, dy + 1.0}});
    filled_[slot] = 1;
  }
  return entries_[slot];
}

}  // namespace rdbsc::geo
