#include "geo/angle.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace rdbsc::geo {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(NormalizeAngleTest, IdentityInRange) {
  EXPECT_DOUBLE_EQ(NormalizeAngle(0.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeAngle(1.5), 1.5);
  EXPECT_DOUBLE_EQ(NormalizeAngle(kTwoPi - 1e-9), kTwoPi - 1e-9);
}

// The fmod-skipping NormalizeAngle against the plain fmod formula, bit
// for bit, where the shortcut's edge lies and beyond it.
TEST(NormalizeAngleTest, EqualsFmodFormulaBitForBit) {
  auto formula = [](double radians) {
    double a = std::fmod(radians, kTwoPi);
    if (a < 0.0) a += kTwoPi;
    if (a >= kTwoPi) a -= kTwoPi;
    return a;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> inputs = {0.0,   denorm,  1e-310, 1e-300, 1.0,
                                kPi,   1e300,   1e-12,  inf,    nan,
                                -nan,  7.0,     12.5,   1e15,   4.0 * kPi};
  for (double edge : {kTwoPi, 2.0 * kTwoPi, kPi}) {
    double below = edge, above = edge;
    for (int step = 0; step < 4; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, inf);
      inputs.push_back(below);
      inputs.push_back(above);
    }
    inputs.push_back(edge);
  }
  util::Rng rng(3);
  for (int k = 0; k < 2000; ++k) inputs.push_back(rng.Uniform(-20.0, 20.0));
  for (double x : std::vector<double>(inputs)) inputs.push_back(-x);
  for (double x : inputs) {
    const double got = NormalizeAngle(x), want = formula(x);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << x;
    } else {
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << x;
    }
  }
}

TEST(NormalizeAngleTest, WrapsPositive) {
  EXPECT_NEAR(NormalizeAngle(kTwoPi + 0.25), 0.25, 1e-12);
  EXPECT_NEAR(NormalizeAngle(5.0 * kTwoPi + 1.0), 1.0, 1e-9);
}

TEST(NormalizeAngleTest, WrapsNegative) {
  EXPECT_NEAR(NormalizeAngle(-0.25), kTwoPi - 0.25, 1e-12);
  EXPECT_NEAR(NormalizeAngle(-kTwoPi), 0.0, 1e-12);
}

TEST(NormalizeAngleTest, TinyNegativeFoldsToZeroRange) {
  double a = NormalizeAngle(-1e-18);
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, kTwoPi);
}

TEST(CcwDeltaTest, BasicSweeps) {
  EXPECT_NEAR(CcwDelta(0.0, kPi / 2), kPi / 2, 1e-12);
  EXPECT_NEAR(CcwDelta(kPi / 2, 0.0), 3 * kPi / 2, 1e-12);
  EXPECT_DOUBLE_EQ(CcwDelta(1.0, 1.0), 0.0);
}

TEST(CcwDeltaTest, CrossesSeam) {
  EXPECT_NEAR(CcwDelta(kTwoPi - 0.1, 0.1), 0.2, 1e-12);
}

TEST(AngularIntervalTest, SimpleContains) {
  AngularInterval cone(0.5, 1.5);
  EXPECT_TRUE(cone.Contains(0.5));
  EXPECT_TRUE(cone.Contains(1.0));
  EXPECT_TRUE(cone.Contains(1.5));
  EXPECT_FALSE(cone.Contains(1.6));
  EXPECT_FALSE(cone.Contains(0.4));
  EXPECT_FALSE(cone.Contains(4.0));
}

TEST(AngularIntervalTest, SeamCrossingContains) {
  AngularInterval cone(kTwoPi - 0.5, 0.5);  // [ -0.5, +0.5 ]
  EXPECT_TRUE(cone.Contains(0.0));
  EXPECT_TRUE(cone.Contains(kTwoPi - 0.25));
  EXPECT_TRUE(cone.Contains(0.25));
  EXPECT_FALSE(cone.Contains(kPi));
}

TEST(AngularIntervalTest, FullCircleContainsEverything) {
  AngularInterval full = AngularInterval::FullCircle();
  for (double a = 0.0; a < kTwoPi; a += 0.37) {
    EXPECT_TRUE(full.Contains(a));
  }
  EXPECT_DOUBLE_EQ(full.width(), kTwoPi);
}

TEST(AngularIntervalTest, ZeroWidthIsSingleDirection) {
  AngularInterval ray(1.0, 1.0);
  EXPECT_DOUBLE_EQ(ray.width(), 0.0);
  EXPECT_TRUE(ray.Contains(1.0));
  EXPECT_FALSE(ray.Contains(1.1));
}

TEST(AngularIntervalTest, IntersectsOverlapping) {
  AngularInterval a(0.0, 1.0);
  AngularInterval b(0.5, 2.0);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
}

TEST(AngularIntervalTest, IntersectsDisjoint) {
  AngularInterval a(0.0, 1.0);
  AngularInterval b(2.0, 3.0);
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_FALSE(b.Intersects(a));
}

TEST(AngularIntervalTest, IntersectsContainment) {
  AngularInterval outer(0.0, 3.0);
  AngularInterval inner(1.0, 2.0);
  EXPECT_TRUE(outer.Intersects(inner));
  EXPECT_TRUE(inner.Intersects(outer));
}

TEST(AngularIntervalTest, IntersectsAcrossSeam) {
  AngularInterval a(kTwoPi - 0.3, 0.3);
  AngularInterval b(0.2, 1.0);
  EXPECT_TRUE(a.Intersects(b));
  AngularInterval c(1.0, 2.0);
  EXPECT_FALSE(a.Intersects(c));
}

TEST(CoverUnionTest, DisjointIntervalsPicksNarrowCover) {
  AngularInterval a(0.0, 0.5);
  AngularInterval b(1.0, 1.5);
  AngularInterval cover = CoverUnion(a, b);
  EXPECT_TRUE(cover.Contains(0.0));
  EXPECT_TRUE(cover.Contains(0.5));
  EXPECT_TRUE(cover.Contains(1.0));
  EXPECT_TRUE(cover.Contains(1.5));
  EXPECT_NEAR(cover.width(), 1.5, 1e-9);  // [0, 1.5], not the long way round
}

TEST(CoverUnionTest, SeamAwareCover) {
  AngularInterval a(kTwoPi - 0.4, kTwoPi - 0.1);
  AngularInterval b(0.1, 0.4);
  AngularInterval cover = CoverUnion(a, b);
  EXPECT_NEAR(cover.width(), 0.8, 1e-9);
  EXPECT_TRUE(cover.Contains(0.0));
}

TEST(CoverUnionTest, FullCircleAbsorbs) {
  AngularInterval cover =
      CoverUnion(AngularInterval::FullCircle(), AngularInterval(0.0, 0.1));
  EXPECT_DOUBLE_EQ(cover.width(), kTwoPi);
}

// Property: the cover contains everything either input contains.
class CoverUnionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CoverUnionPropertyTest, CoverContainsBothInputs) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    AngularInterval a(rng.Uniform(0, kTwoPi),
                      rng.Uniform(0, kTwoPi) + rng.Uniform(0, kTwoPi));
    AngularInterval b(rng.Uniform(0, kTwoPi),
                      rng.Uniform(0, kTwoPi) + rng.Uniform(0, kTwoPi));
    AngularInterval cover = CoverUnion(a, b);
    for (double frac = 0.0; frac <= 1.0; frac += 0.25) {
      EXPECT_TRUE(cover.Contains(NormalizeAngle(a.lo() + frac * a.width())));
      EXPECT_TRUE(cover.Contains(NormalizeAngle(b.lo() + frac * b.width())));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverUnionPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace rdbsc::geo
