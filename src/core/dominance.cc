#include "core/dominance.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rdbsc::core {

std::vector<size_t> SkylineIndices(const std::vector<BiPoint>& points) {
  std::vector<size_t> order(points.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&points](size_t a, size_t b) {
    if (points[a].x != points[b].x) return points[a].x > points[b].x;
    if (points[a].y != points[b].y) return points[a].y > points[b].y;
    return a < b;
  });

  // Sweep in decreasing x. A point is dominated iff some point with
  // strictly larger x has y >= its y, or an equal-x point has strictly
  // larger y. Within an equal-x group only the maximum-y members survive,
  // and only if they beat the best y seen at strictly larger x.
  std::vector<size_t> skyline;
  double best_y_strictly_before = -std::numeric_limits<double>::infinity();
  size_t g = 0;
  while (g < order.size()) {
    size_t h = g;
    double group_max_y = -std::numeric_limits<double>::infinity();
    while (h < order.size() && points[order[h]].x == points[order[g]].x) {
      group_max_y = std::max(group_max_y, points[order[h]].y);
      ++h;
    }
    if (group_max_y > best_y_strictly_before) {
      for (size_t k = g; k < h; ++k) {
        if (points[order[k]].y == group_max_y) skyline.push_back(order[k]);
      }
    }
    best_y_strictly_before = std::max(best_y_strictly_before, group_max_y);
    g = h;
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

std::vector<int64_t> DominanceScores(const std::vector<BiPoint>& points,
                                     const std::vector<size_t>& candidates) {
  std::vector<int64_t> scores(candidates.size(), 0);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const BiPoint& a = points[candidates[c]];
    for (size_t p = 0; p < points.size(); ++p) {
      if (p != candidates[c] && DominatesPoint(a, points[p])) ++scores[c];
    }
  }
  return scores;
}

// The skyline holds at most one distinct point per x, so ranking it needs
// only the points above the minimum x in sorted order; the min-x group
// joins through one linear pass (its max-y members, if that y beats the
// best y at larger x). Identical points score, and tie, identically, and
// the rule below gives such a tie to the smallest index, so each distinct
// skyline point is scored once, through its smallest index; two distinct
// skyline points differ in x and in y, so no tie is left. With k points
// above the minimum x and s distinct skyline points this is
// O(n * s + k log k): in GREEDY nearly every survivor has dmr == 0, so k
// and s are small and the common round is three linear passes.
size_t TopDominating(const std::vector<BiPoint>& points) {
  if (points.empty()) return std::numeric_limits<size_t>::max();
  if (points.size() == 2) {
    // SA_Merge's usual group, one conflict and two combos, in closed form:
    // point 1 wins iff it dominates point 0 (at larger x, a y no lower)
    // or, with neither dominating, has the larger y. NaN, and two y of
    // -inf (an empty skyline, no pick), take the general path below.
    const BiPoint& a = points[0];
    const BiPoint& b = points[1];
    const bool ordered = !std::isnan(a.x) && !std::isnan(a.y) &&
                         !std::isnan(b.x) && !std::isnan(b.y);
    if (ordered &&
        std::max(a.y, b.y) > -std::numeric_limits<double>::infinity()) {
      return (b.x > a.x ? b.y >= a.y : b.y > a.y) ? 1 : 0;
    }
  }
  double min_x = points[0].x;
  for (const BiPoint& p : points) min_x = std::min(min_x, p.x);

  size_t best = std::numeric_limits<size_t>::max();
  int64_t best_score = 0;
  auto consider = [&](size_t c) {
    const BiPoint& a = points[c];
    int64_t score = 0;
    for (const BiPoint& p : points) score += DominatesPoint(a, p) ? 1 : 0;
    bool better = best == std::numeric_limits<size_t>::max() ||
                  score > best_score;
    if (!better && score == best_score) {
      const BiPoint& b = points[best];
      better = a.y > b.y || (a.y == b.y && a.x > b.x);
    }
    if (better) {
      best = c;
      best_score = score;
    }
  };

  // The points above the minimum x, and the min-x group's first max-y
  // member.
  std::vector<size_t> order;
  size_t first_top = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].x != min_x) {
      order.push_back(i);
    } else if (first_top == std::numeric_limits<size_t>::max() ||
               points[i].y > points[first_top].y) {
      first_top = i;
    }
  }

  // SkylineIndices' sweep over the points above the minimum x: within an
  // equal-x group the first in (y desc, index asc) order stands for the
  // group's max-y members.
  std::sort(order.begin(), order.end(), [&points](size_t a, size_t b) {
    if (points[a].x != points[b].x) return points[a].x > points[b].x;
    if (points[a].y != points[b].y) return points[a].y > points[b].y;
    return a < b;
  });
  double best_y_strictly_before = -std::numeric_limits<double>::infinity();
  for (size_t g = 0; g < order.size();) {
    const double group_max_y = points[order[g]].y;
    if (group_max_y > best_y_strictly_before) consider(order[g]);
    best_y_strictly_before = std::max(best_y_strictly_before, group_max_y);
    // At least one step: a NaN x equals nothing, itself included.
    const double x = points[order[g]].x;
    do {
      ++g;
    } while (g < order.size() && points[order[g]].x == x);
  }

  // The min-x group joins if no larger-x point has a y at least as large.
  if (first_top != std::numeric_limits<size_t>::max() &&
      points[first_top].y > best_y_strictly_before) {
    consider(first_top);
  }
  return best;
}

}  // namespace rdbsc::core
