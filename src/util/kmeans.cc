#include "util/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rdbsc::util {
namespace {

double Sq(double v) { return v * v; }

double Dist2(const KmPoint& a, const KmPoint& b) {
  return Sq(a.x - b.x) + Sq(a.y - b.y);
}

}  // namespace

TwoMeansResult TwoMeans(const std::vector<KmPoint>& points, Rng& rng,
                        int max_iters) {
  TwoMeansResult result;
  result.label.assign(points.size(), 0);
  if (points.empty()) return result;
  if (points.size() == 1) {
    result.centroid[0] = result.centroid[1] = points[0];
    return result;
  }

  // Seed centroid 0 uniformly; seed centroid 1 with the point farthest from
  // it (a deterministic k-means++-style spread that avoids empty clusters).
  size_t first = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(points.size()) - 1));
  result.centroid[0] = points[first];
  size_t second = first;
  double best = -1.0;
  for (size_t i = 0; i < points.size(); ++i) {
    double d = Dist2(points[i], result.centroid[0]);
    if (d > best) {
      best = d;
      second = i;
    }
  }
  result.centroid[1] = points[second];

  for (int iter = 0; iter < max_iters; ++iter) {
    bool changed = false;
    // One pass: label each point with its nearest centroid and add it to
    // that cluster's sums, which therefore add up in point order.
    KmPoint sum[2] = {{0, 0}, {0, 0}};
    size_t count[2] = {0, 0};
    const KmPoint c0 = result.centroid[0], c1 = result.centroid[1];
    for (size_t i = 0; i < points.size(); ++i) {
      const int nearest = Dist2(points[i], c0) <= Dist2(points[i], c1) ? 0 : 1;
      changed = changed || nearest != result.label[i];
      result.label[i] = nearest;
      sum[nearest].x += points[i].x;
      sum[nearest].y += points[i].y;
      ++count[nearest];
    }
    for (int c = 0; c < 2; ++c) {
      if (count[c] > 0) {
        result.centroid[c].x = sum[c].x / static_cast<double>(count[c]);
        result.centroid[c].y = sum[c].y / static_cast<double>(count[c]);
      }
    }
    // An empty cluster can only happen with duplicate points; reseed it with
    // the point farthest from the non-empty centroid.
    for (int c = 0; c < 2; ++c) {
      if (count[c] == 0) {
        size_t far = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < points.size(); ++i) {
          double d = Dist2(points[i], result.centroid[1 - c]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        result.centroid[c] = points[far];
        changed = true;
      }
    }
    if (!changed) break;
  }
  return result;
}

}  // namespace rdbsc::util
