#include "index/cost_model.h"

#include <cmath>

#include "gtest/gtest.h"

namespace rdbsc::index {
namespace {

constexpr double kEtaMin = 1.0 / 1024.0;
constexpr double kEtaMax = 1.0;

TEST(CostModelTest, OptimalEtaStaysInClampRange) {
  for (double l_max : {0.01, 0.1, 0.3, 0.9}) {
    for (double d2 : {1.2, 1.6, 2.0}) {
      for (int n : {2, 100, 10'000, 1'000'000}) {
        CostModelParams params{.l_max = l_max, .d2 = d2, .num_points = n};
        double eta = OptimalEta(params);
        EXPECT_GE(eta, kEtaMin) << "l_max=" << l_max << " d2=" << d2
                                << " n=" << n;
        EXPECT_LE(eta, kEtaMax);
      }
    }
  }
}

TEST(CostModelTest, UniformDataMatchesClosedForm) {
  // For D2 = 2, Eq. (23) reduces to eta^3 = L_max / (N - 1).
  CostModelParams params{.l_max = 0.3, .d2 = 2.0, .num_points = 10'000};
  double expected = std::cbrt(params.l_max / (params.num_points - 1));
  EXPECT_NEAR(OptimalEta(params), expected, 1e-6);
}

TEST(CostModelTest, OptimalEtaMinimizesModelCost) {
  // An interior solution must beat a coarser and a finer grid under the
  // very cost it models.
  CostModelParams params{.l_max = 0.3, .d2 = 2.0, .num_points = 10'000};
  double eta = OptimalEta(params);
  ASSERT_GT(eta, kEtaMin);
  ASSERT_LT(eta, kEtaMax);
  double best = EstimateUpdateCost(eta, params);
  for (double factor : {0.25, 0.5, 2.0, 4.0}) {
    EXPECT_LE(best, EstimateUpdateCost(factor * eta, params))
        << "factor " << factor;
  }
}

TEST(CostModelTest, MorePointsMeanFinerGrid) {
  CostModelParams coarse{.l_max = 0.3, .d2 = 2.0, .num_points = 1'000};
  CostModelParams fine = coarse;
  fine.num_points = 100'000;
  EXPECT_GT(OptimalEta(coarse), OptimalEta(fine));
}

TEST(CostModelTest, LongerReachMeansCoarserGrid) {
  CostModelParams slow{.l_max = 0.05, .d2 = 2.0, .num_points = 10'000};
  CostModelParams fast = slow;
  fast.l_max = 0.9;
  EXPECT_LT(OptimalEta(slow), OptimalEta(fast));
}

TEST(CostModelTest, SkewedDataChangesEta) {
  // A skewed fractal dimension moves the optimum of Eq. (23) away from the
  // uniform one.
  CostModelParams uniform{.l_max = 0.3, .d2 = 2.0, .num_points = 10'000};
  CostModelParams skewed = uniform;
  skewed.d2 = 1.4;
  double eu = OptimalEta(uniform);
  double es = OptimalEta(skewed);
  EXPECT_GT(eu, 0.0);
  EXPECT_GT(es, 0.0);
  EXPECT_NE(eu, es);
}

TEST(CostModelTest, DegenerateSinglePointReturnsCoarsestGrid) {
  CostModelParams params{.l_max = 0.3, .d2 = 2.0, .num_points = 1};
  EXPECT_DOUBLE_EQ(OptimalEta(params), kEtaMax);
}

TEST(CostModelTest, HugePointCountClampsToFinestGrid) {
  CostModelParams params{.l_max = 0.3, .d2 = 2.0,
                         .num_points = 1'000'000'000};
  EXPECT_DOUBLE_EQ(OptimalEta(params), kEtaMin);
}

TEST(CostModelTest, UpdateCostIsPositiveAndGrowsWithPoints) {
  CostModelParams params{.l_max = 0.3, .d2 = 2.0, .num_points = 1'000};
  CostModelParams bigger = params;
  bigger.num_points = 10'000;
  for (double eta : {0.01, 0.05, 0.25}) {
    EXPECT_GT(EstimateUpdateCost(eta, params), 0.0);
    EXPECT_LT(EstimateUpdateCost(eta, params),
              EstimateUpdateCost(eta, bigger));
  }
}

TEST(CostModelTest, UniformClosedForm) {
  // With d2 = 2, Eq. (23) has the closed form eta* = cbrt(l_max / (n - 1)).
  CostModelParams params{.l_max = 0.3, .d2 = 2.0, .num_points = 10'000};
  EXPECT_NEAR(OptimalEta(params), std::cbrt(0.3 / 9'999.0), 1e-6);
}

TEST(CostModelTest, LargerReachMeansCoarserGrid) {
  CostModelParams near{.l_max = 0.05, .d2 = 2.0, .num_points = 10'000};
  CostModelParams far = near;
  far.l_max = 0.5;
  EXPECT_LT(OptimalEta(near), OptimalEta(far));
}

TEST(CostModelTest, OptimalEtaMinimizesEstimatedCost) {
  CostModelParams params{.l_max = 0.25, .d2 = 2.0, .num_points = 5'000};
  double eta_star = OptimalEta(params);
  double best = EstimateUpdateCost(eta_star, params);
  for (double factor : {0.25, 0.5, 2.0, 4.0}) {
    EXPECT_LE(best, EstimateUpdateCost(eta_star * factor, params) + 1e-6)
        << "factor " << factor;
  }
}

TEST(CostModelTest, DegenerateInputs) {
  // Default reach and dimension with a single point.
  CostModelParams params;
  params.num_points = 1;
  EXPECT_DOUBLE_EQ(OptimalEta(params), kEtaMax);
}

}  // namespace
}  // namespace rdbsc::index
