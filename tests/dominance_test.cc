#include "core/dominance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace rdbsc::core {
namespace {

TEST(DominatesPointTest, BasicRelations) {
  EXPECT_TRUE(DominatesPoint({2, 2}, {1, 1}));
  EXPECT_TRUE(DominatesPoint({2, 1}, {1, 1}));
  EXPECT_TRUE(DominatesPoint({1, 2}, {1, 1}));
  EXPECT_FALSE(DominatesPoint({1, 1}, {1, 1}));  // equal: no domination
  EXPECT_FALSE(DominatesPoint({2, 0}, {1, 1}));  // incomparable
  EXPECT_FALSE(DominatesPoint({0, 2}, {1, 1}));
}

TEST(SkylineTest, SimpleStaircase) {
  // (3,1), (2,2), (1,3) are mutually incomparable; the rest are dominated.
  std::vector<BiPoint> points = {{3, 1}, {2, 2}, {1, 3},
                                 {1, 1}, {2, 1}, {0, 0}};
  std::vector<size_t> skyline = SkylineIndices(points);
  EXPECT_EQ(skyline, (std::vector<size_t>{0, 1, 2}));
}

TEST(SkylineTest, DuplicatesAllKept) {
  std::vector<BiPoint> points = {{1, 1}, {1, 1}, {0, 0}};
  std::vector<size_t> skyline = SkylineIndices(points);
  EXPECT_EQ(skyline, (std::vector<size_t>{0, 1}));
}

TEST(SkylineTest, EqualXKeepsOnlyMaxY) {
  std::vector<BiPoint> points = {{1, 5}, {1, 3}, {1, 5}};
  std::vector<size_t> skyline = SkylineIndices(points);
  EXPECT_EQ(skyline, (std::vector<size_t>{0, 2}));
}

TEST(SkylineTest, SinglePointAndEmpty) {
  EXPECT_TRUE(SkylineIndices({}).empty());
  EXPECT_EQ(SkylineIndices({{1, 1}}), std::vector<size_t>{0});
}

// Property: the skyline computed by the sweep equals the O(n^2) oracle.
class SkylinePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SkylinePropertyTest, MatchesQuadraticOracle) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    int n = static_cast<int>(rng.UniformInt(0, 40));
    std::vector<BiPoint> points;
    for (int i = 0; i < n; ++i) {
      // Small integer grid so ties are frequent.
      points.push_back({static_cast<double>(rng.UniformInt(0, 5)),
                        static_cast<double>(rng.UniformInt(0, 5))});
    }
    std::vector<size_t> expected;
    for (size_t a = 0; a < points.size(); ++a) {
      bool dominated = false;
      for (size_t b = 0; b < points.size(); ++b) {
        if (DominatesPoint(points[b], points[a])) dominated = true;
      }
      if (!dominated) expected.push_back(a);
    }
    EXPECT_EQ(SkylineIndices(points), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkylinePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DominanceScoresTest, CountsDominatedPoints) {
  std::vector<BiPoint> points = {{3, 3}, {1, 1}, {2, 2}, {0, 4}};
  std::vector<int64_t> scores = DominanceScores(points, {0, 3});
  EXPECT_EQ(scores[0], 2);  // (3,3) dominates (1,1) and (2,2)
  EXPECT_EQ(scores[1], 0);  // (0,4) dominates nothing
}

TEST(TopDominatingTest, PicksHighestScore) {
  // (2,2) dominates two points; (0,5) dominates none.
  std::vector<BiPoint> points = {{2, 2}, {1, 1}, {2, 1}, {0, 5}};
  EXPECT_EQ(TopDominating(points), 0u);
}

TEST(TopDominatingTest, TieBreaksTowardsY) {
  // Both skyline points dominate one point each.
  std::vector<BiPoint> points = {{3, 1}, {1, 3}, {2, 0}, {0, 2}};
  EXPECT_EQ(TopDominating(points), 1u);  // y = 3 wins the tie
}

TEST(TopDominatingTest, EmptyInput) {
  EXPECT_EQ(TopDominating({}), std::numeric_limits<size_t>::max());
}

TEST(TopDominatingTest, AllEqual) {
  std::vector<BiPoint> points = {{1, 1}, {1, 1}, {1, 1}};
  size_t best = TopDominating(points);
  EXPECT_LT(best, points.size());
}

// Property: the winner is never dominated by any point.
class TopDominatingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TopDominatingPropertyTest, WinnerIsParetoOptimal) {
  util::Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 50; ++trial) {
    int n = static_cast<int>(rng.UniformInt(1, 60));
    std::vector<BiPoint> points;
    for (int i = 0; i < n; ++i) {
      points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    }
    size_t best = TopDominating(points);
    ASSERT_LT(best, points.size());
    for (const BiPoint& p : points) {
      EXPECT_FALSE(DominatesPoint(p, points[best]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopDominatingPropertyTest,
                         ::testing::Values(11, 12, 13, 14));

// The sort-based TopDominating the solvers' goldens were captured with:
// the whole skyline, every member scored, ties by larger y, then larger x,
// then the smaller index.
size_t ReferenceTopDominating(const std::vector<BiPoint>& points) {
  if (points.empty()) return std::numeric_limits<size_t>::max();
  std::vector<size_t> skyline = SkylineIndices(points);
  std::vector<int64_t> scores = DominanceScores(points, skyline);
  size_t best = 0;
  for (size_t c = 1; c < skyline.size(); ++c) {
    const BiPoint& a = points[skyline[c]];
    const BiPoint& b = points[skyline[best]];
    bool better = scores[c] > scores[best];
    if (scores[c] == scores[best]) {
      better = a.y > b.y || (a.y == b.y && a.x > b.x);
    }
    if (better) best = c;
  }
  return skyline[best];
}

// Point sets shaped like GREEDY's rounds (most points at the minimum x,
// few distinct y values, exact duplicates) and like the merge's and the
// sampler's (spread out), all with values from small grids so ties on
// either axis are common.
class TopDominatingOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(TopDominatingOracleTest, SameIndexAsSortBasedReference) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 6151);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(0, 70));
    const double share_at_min = rng.Uniform(0.0, 1.0);
    const int x_levels = static_cast<int>(rng.UniformInt(1, 6));
    const int y_levels = static_cast<int>(rng.UniformInt(1, 8));
    const double min_x = rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(-1.0, 1.0);
    std::vector<BiPoint> points;
    for (int i = 0; i < n; ++i) {
      BiPoint p;
      p.x = rng.Bernoulli(share_at_min)
                ? min_x
                : min_x + static_cast<double>(rng.UniformInt(1, x_levels));
      p.y = rng.Bernoulli(0.2)
                ? rng.Uniform(-1.0, 1.0)
                : static_cast<double>(rng.UniformInt(0, y_levels)) * 0.25;
      points.push_back(p);
      if (rng.Bernoulli(0.1)) points.push_back(p);  // exact duplicate
    }
    ASSERT_EQ(TopDominating(points), ReferenceTopDominating(points))
        << "trial " << trial << ", n=" << points.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopDominatingOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TopDominatingTest, SmallCasesMatchReference) {
  const std::vector<std::vector<BiPoint>> cases = {
      {},
      {{0, 0}},
      {{0, 0}, {0, 0}},
      {{0, 1}, {0, 2}, {0, 2}, {0, 1}},
      {{0, 2}, {1, 2}},            // larger x at the same y dominates
      {{0, 3}, {1, 2}, {1, 2}},    // min-x point above every larger x
      {{1, 1}, {0, 1}, {1, 1}},
      {{-0.0, 1}, {0.0, 1}},       // signed zeros tie on x
      {{2, 0}, {1, 1}, {0, 2}, {0, 2}, {1, 1}},
  };
  for (size_t k = 0; k < cases.size(); ++k) {
    EXPECT_EQ(TopDominating(cases[k]), ReferenceTopDominating(cases[k]))
        << "case " << k;
  }
}

// Two points: the merge's usual group, one conflict with two combos.
TEST(TopDominatingTest, TwoPointCasesMatchReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    BiPoint a, b;
    size_t pick;
  };
  const Case cases[] = {
      {{1, 1}, {1, 2}, 1},          // equal x: the larger y dominates
      {{1, 2}, {1, 1}, 0},
      {{1, 1}, {2, 1}, 1},          // equal y: the larger x dominates
      {{2, 1}, {1, 1}, 0},
      {{1, 1}, {1, 1}, 0},          // identical: the smaller index
      {{-0.0, 1}, {0.0, 1}, 0},     // signed zeros are identical
      {{2, 2}, {1, 1}, 0},          // one dominating
      {{1, 1}, {2, 2}, 1},
      {{2, 1}, {1, 2}, 1},          // neither: the larger y
      {{1, 2}, {2, 1}, 0},
      {{kInf, 0}, {1, 1}, 1},       // +inf x, neither dominates
      {{kInf, 1}, {kInf, 1}, 0},
      {{-kInf, 0}, {0, 0}, 1},      // -inf x is dominated
      {{0, kInf}, {1, 1}, 0},       // +inf y
      {{0, kInf}, {1, kInf}, 1},
      {{1, -kInf}, {0, 0}, 1},      // -inf y loses to any larger y
      {{0, 0}, {1, -kInf}, 0},
  };
  for (size_t k = 0; k < std::size(cases); ++k) {
    const std::vector<BiPoint> points = {cases[k].a, cases[k].b};
    EXPECT_EQ(TopDominating(points), cases[k].pick) << "case " << k;
    EXPECT_EQ(TopDominating(points), ReferenceTopDominating(points))
        << "case " << k;
  }
}

// Every pair of points over a grid of values with ties, signed zeros,
// infinities and NaN. Without NaN the pick is the reference's, except that
// two points with y = -inf leave an empty skyline and pick nothing. With a
// NaN, which orders nothing, the call must still return: one of the two
// points or nothing (a NaN x once made the sweep loop forever, since it
// equals nothing, itself included).
TEST(TopDominatingTest, TwoPointsOnEveryValuePairMatchReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {-kInf, -1.0, -0.0, 0.0, 0.5, 1.0, kInf,
                           std::numeric_limits<double>::quiet_NaN()};
  for (double ax : values) {
    for (double ay : values) {
      for (double bx : values) {
        for (double by : values) {
          const std::vector<BiPoint> points = {{ax, ay}, {bx, by}};
          const size_t pick = TopDominating(points);
          const bool any_nan = std::isnan(ax) || std::isnan(ay) ||
                               std::isnan(bx) || std::isnan(by);
          if (any_nan) {
            ASSERT_TRUE(pick < 2 || pick == std::numeric_limits<size_t>::max());
          } else if (ay == -kInf && by == -kInf) {
            ASSERT_EQ(pick, std::numeric_limits<size_t>::max());
          } else {
            ASSERT_EQ(pick, ReferenceTopDominating(points))
                << "(" << ax << ", " << ay << ") (" << bx << ", " << by
                << ")";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rdbsc::core
