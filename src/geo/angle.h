#ifndef RDBSC_GEO_ANGLE_H_
#define RDBSC_GEO_ANGLE_H_

#include <cmath>
#include <numbers>

#include "util/config.h"

namespace rdbsc::geo {

/// Full turn in radians.
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Normalizes any angle into [0, 2*pi). Inline: E[SD]'s layouts call it
/// per observation.
inline double NormalizeAngle(double radians) {
  // fmod is exact and returns its argument unchanged when |radians| < 2*pi
  // (signed zeros and subnormals included), so that case skips the call.
  double a = std::fabs(radians) < kTwoPi ? radians
                                         : std::fmod(radians, kTwoPi);
  if (a < 0.0) a += kTwoPi;
  // fmod can return exactly kTwoPi after the correction when radians is a
  // tiny negative number; fold that back to 0.
  if (a >= kTwoPi) a -= kTwoPi;
  return a;
}

/// Counter-clockwise angular distance from `from` to `to`, in [0, 2*pi).
inline double CcwDelta(double from, double to) {
  return NormalizeAngle(to - from);
}

/// A directed angular interval [lo, hi] on the circle, stored as a start
/// angle and a CCW width so that intervals crossing the 0/2*pi seam (for
/// example a worker cone [7*pi/4, pi/4]) behave uniformly.
///
/// Workers register their moving-direction cone [alpha-, alpha+] as one of
/// these (Definition 2 of the paper); width 2*pi means "free to move".
class AngularInterval {
 public:
  /// Builds the interval that sweeps CCW from `lo` to `hi`. If `lo == hi`
  /// the interval is the single direction `lo` (width 0); to express a full
  /// circle use FullCircle().
  AngularInterval(double lo, double hi);

  /// The whole circle: every direction is contained.
  static AngularInterval FullCircle();

  /// Start of the interval in [0, 2*pi).
  double lo() const { return lo_; }
  /// CCW extent in [0, 2*pi].
  double width() const { return width_; }
  /// End of the interval, normalized to [0, 2*pi).
  double hi() const;

  /// True when the direction `angle` lies inside the interval (inclusive,
  /// with a small tolerance for float noise at the boundaries).
  bool Contains(double angle) const;

  /// True when this interval and `other` share at least one direction.
  bool Intersects(const AngularInterval& other) const;

  /// Internal factory used by cover computations: an interval with an
  /// explicit width (which may be the full 2*pi).
  static AngularInterval FromWidth(double lo, double width);

 private:
  AngularInterval(double lo, double width, int /*tag*/)
      : lo_(lo), width_(width) {}

  double lo_;
  double width_;
};

/// The smallest single interval containing both `a` and `b` (their union
/// may be disconnected; the cover is a conservative superset). Used by grid
/// cells to summarize the moving-direction cones of their workers.
AngularInterval CoverUnion(const AngularInterval& a, const AngularInterval& b);

}  // namespace rdbsc::geo

#endif  // RDBSC_GEO_ANGLE_H_
