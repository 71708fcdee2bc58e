#include "geo/angle.h"

#include <algorithm>
#include <cmath>

namespace rdbsc::geo {
namespace {

constexpr double kAngleTolerance = 1e-9;

}  // namespace

AngularInterval::AngularInterval(double lo, double hi) {
  lo_ = NormalizeAngle(lo);
  width_ = CcwDelta(lo, hi);
}

AngularInterval AngularInterval::FullCircle() {
  return AngularInterval(0.0, kTwoPi, /*tag=*/0);
}

double AngularInterval::hi() const { return NormalizeAngle(lo_ + width_); }

bool AngularInterval::Contains(double angle) const {
  if (width_ >= kTwoPi) return true;
  double delta = CcwDelta(lo_, angle);
  return delta <= width_ + kAngleTolerance ||
         delta >= kTwoPi - kAngleTolerance;
}

bool AngularInterval::Intersects(const AngularInterval& other) const {
  if (width_ >= kTwoPi || other.width_ >= kTwoPi) return true;
  return Contains(other.lo_) || Contains(other.hi()) || other.Contains(lo_) ||
         other.Contains(hi());
}

AngularInterval AngularInterval::FromWidth(double lo, double width) {
  if (width >= kTwoPi) return FullCircle();
  return AngularInterval(NormalizeAngle(lo), width, /*tag=*/0);
}

AngularInterval CoverUnion(const AngularInterval& a,
                           const AngularInterval& b) {
  if (a.width() >= kTwoPi || b.width() >= kTwoPi) {
    return AngularInterval::FullCircle();
  }
  // Either cover starts where `a` does and sweeps past `b`, or vice versa;
  // the minimal single-interval cover is the narrower of the two.
  double width_from_a =
      std::max(a.width(), CcwDelta(a.lo(), b.lo()) + b.width());
  double width_from_b =
      std::max(b.width(), CcwDelta(b.lo(), a.lo()) + a.width());
  if (width_from_a <= width_from_b) {
    return AngularInterval::FromWidth(a.lo(), width_from_a);
  }
  return AngularInterval::FromWidth(b.lo(), width_from_b);
}

}  // namespace rdbsc::geo
