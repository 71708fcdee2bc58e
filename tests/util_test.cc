#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "util/fractal.h"
#include "util/kmeans.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/status.h"

namespace rdbsc::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad eta");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad eta");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad eta");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= (v == 1);
    saw_hi |= (v == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, TruncatedGaussianStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.TruncatedGaussian(0.95, 0.02, 0.9, 1.0);
    EXPECT_GE(v, 0.9);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // The child stream should differ from the parent's continuation.
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform(0, 1) != child.Uniform(0, 1)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

// Rng's engine must be std::mt19937_64 number for number: the lazily
// twisted first block may change only what a stream costs, never what it
// yields.
std::vector<uint64_t> EngineTestSeeds() {
  std::vector<uint64_t> seeds = {0, 1, 5489, ~uint64_t{0}};
  std::mt19937_64 pick(20261017);
  for (int i = 0; i < 200; ++i) seeds.push_back(pick());
  return seeds;
}

// Raw draw counts on both sides of each refill boundary: the lazy chunks
// (8 words), the end of the seeded look-ahead (155/156), the end of the
// first block (311/312) and of the second (623/624).
constexpr int kBoundaryCounts[] = {0,   1,   7,   8,   9,   155, 156, 157,
                                   311, 312, 313, 623, 624, 625, 2000};

TEST(RngTest, EngineStreamMatchesStdMt19937_64) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  for (uint64_t seed : EngineTestSeeds()) {
    Rng rng(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(rng.NextU64(), want()) << "seed " << seed << " draw " << i;
    }
  }
}

// Every stopping point 0-2000 leaves the engine in a different lazy state.
// A copy taken there, and the original, must both continue as std does
// across the following block boundary.
TEST(RngTest, CopyAtEveryDrawCountContinuesTheStream) {
  std::mt19937_64 pick(7);
  for (int count = 0; count <= 2000; ++count) {
    const uint64_t seed = pick();
    Rng rng(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < count; ++i) ASSERT_EQ(rng.NextU64(), want());
    Rng copy = rng;
    for (int i = 0; i < 400; ++i) {
      const uint64_t next = want();
      ASSERT_EQ(copy.NextU64(), next) << "count " << count << " draw " << i;
      ASSERT_EQ(rng.NextU64(), next) << "count " << count << " draw " << i;
    }
  }
}

// Engines started together, in groups below, at and above the lane
// count, each yield std::mt19937_64's stream on their own seed past the
// first block's chunks and a full twist; so does a copy taken right after
// the start.
TEST(RngTest, StartedTogetherMatchesStdMt19937_64) {
  const std::vector<uint64_t> all_seeds = EngineTestSeeds();
  size_t next_seed = 0;
  for (size_t count : {0, 1, 7, 8, 9, 17}) {
    std::vector<uint64_t> seeds;
    for (size_t g = 0; g < count; ++g) {
      seeds.push_back(all_seeds[next_seed++ % all_seeds.size()]);
    }
    // Engines in every state: fresh, mid-stream and mid-first-block.
    std::vector<Mt19937_64> engines;
    for (size_t g = 0; g < count; ++g) {
      Mt19937_64& engine = engines.emplace_back(g * 977);
      for (size_t i = 0; i < g * 97; ++i) engine();
    }
    Mt19937_64::StartTogether(engines, seeds);
    std::vector<Mt19937_64> copies = engines;
    for (size_t g = 0; g < count; ++g) {
      std::mt19937_64 want(seeds[g]);
      for (int i = 0; i < 1000; ++i) {
        const uint64_t next = want();
        ASSERT_EQ(engines[g](), next)
            << count << " engines, seed " << seeds[g] << ", draw " << i;
        ASSERT_EQ(copies[g](), next)
            << count << " engines, copy of seed " << seeds[g] << ", draw "
            << i;
      }
    }
  }
}

TEST(RngTest, DistributionsMatchStdMt19937_64) {
  std::vector<uint64_t> seeds = EngineTestSeeds();
  seeds.resize(24);
  for (uint64_t seed : seeds) {
    for (int count : kBoundaryCounts) {
      Rng rng(seed);
      std::mt19937_64 want(seed);
      for (int i = 0; i < count; ++i) ASSERT_EQ(rng.NextU64(), want());
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " after "
                                        << count << " draws");
      for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(rng.UniformInt(-3, 17),
                  std::uniform_int_distribution<int64_t>(-3, 17)(want));
        ASSERT_EQ(rng.UniformInt(INT64_MIN, INT64_MAX),
                  std::uniform_int_distribution<int64_t>(INT64_MIN,
                                                         INT64_MAX)(want));
        // Real-valued results bit for bit: the project builds with
        // -ffp-contract=off, so one distribution inlined at two call sites
        // rounds the same at every ISA.
        ASSERT_EQ(rng.Uniform(-2.5, 4.0),
                  std::uniform_real_distribution<double>(-2.5, 4.0)(want));
        ASSERT_EQ(rng.Gaussian(1.0, 3.0),
                  std::normal_distribution<double>(1.0, 3.0)(want));
        ASSERT_EQ(rng.Bernoulli(0.3), std::bernoulli_distribution(0.3)(want));
        ASSERT_EQ(std::geometric_distribution<int64_t>(0.2)(rng.engine()),
                  std::geometric_distribution<int64_t>(0.2)(want));
      }
      std::vector<int> got(100), expect(100);
      std::iota(got.begin(), got.end(), 0);
      std::iota(expect.begin(), expect.end(), 0);
      std::shuffle(got.begin(), got.end(), rng.engine());
      std::shuffle(expect.begin(), expect.end(), want);
      ASSERT_EQ(got, expect);

      // Fork seeds the child from one parent draw; the child is a fresh
      // lazy stream and must match a fresh std engine on that seed.
      Rng child = rng.Fork();
      std::mt19937_64 want_child(want());
      for (int i = 0; i < 700; ++i) ASSERT_EQ(child.NextU64(), want_child());
      ASSERT_EQ(rng.NextU64(), want());
    }
  }
}

TEST(MathTest, EntropyTermLimits) {
  EXPECT_DOUBLE_EQ(EntropyTerm(0.0), 0.0);
  EXPECT_DOUBLE_EQ(EntropyTerm(1.0), 0.0);
  EXPECT_NEAR(EntropyTerm(0.5), 0.5 * std::log(2.0), 1e-12);
  EXPECT_GT(EntropyTerm(0.1), 0.0);
}

TEST(MathTest, ClampConfidenceGuardsEndpoints) {
  EXPECT_DOUBLE_EQ(ClampConfidence(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(ClampConfidence(0.5), 0.5);
  EXPECT_LT(ClampConfidence(1.0), 1.0);
  EXPECT_TRUE(std::isfinite(ReliabilityWeight(1.0)));
}

TEST(MathTest, ReliabilityRoundTrip) {
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(ReducedToProbability(ReliabilityWeight(p)), p, 1e-12);
  }
}

TEST(MathTest, LogBinomialMatchesSmallCases) {
  EXPECT_NEAR(LogBinomial(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogBinomial(10, 0), 0.0, 1e-9);
  EXPECT_NEAR(LogBinomial(10, 10), 0.0, 1e-9);
  EXPECT_NEAR(LogBinomial(52, 5), std::log(2598960.0), 1e-6);
}

TEST(KmeansTest, SeparatesTwoClusters) {
  std::vector<KmPoint> points;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.Uniform(0.0, 0.2), rng.Uniform(0.0, 0.2)});
  }
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.Uniform(0.8, 1.0), rng.Uniform(0.8, 1.0)});
  }
  TwoMeansResult result = TwoMeans(points, rng);
  // All of the first 50 share a label, all of the last 50 share the other.
  for (int i = 1; i < 50; ++i) EXPECT_EQ(result.label[i], result.label[0]);
  for (int i = 51; i < 100; ++i) EXPECT_EQ(result.label[i], result.label[50]);
  EXPECT_NE(result.label[0], result.label[50]);
}

TEST(KmeansTest, HandlesDegenerateInputs) {
  Rng rng(4);
  EXPECT_TRUE(TwoMeans({}, rng).label.empty());
  EXPECT_EQ(TwoMeans({{0.5, 0.5}}, rng).label.size(), 1u);
  // All-identical points must not crash or loop forever.
  std::vector<KmPoint> same(20, KmPoint{0.3, 0.3});
  TwoMeansResult result = TwoMeans(same, rng);
  EXPECT_EQ(result.label.size(), 20u);
}

TEST(KmeansTest, RoughlyBalancedOnUniformData) {
  Rng rng(5);
  std::vector<KmPoint> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  TwoMeansResult result = TwoMeans(points, rng);
  int ones = 0;
  for (int label : result.label) ones += label;
  EXPECT_GT(ones, 80);   // neither cluster degenerates
  EXPECT_LT(ones, 320);
}

TEST(FractalTest, UniformDataNearTwo) {
  Rng rng(6);
  std::vector<KmPoint> points;
  for (int i = 0; i < 4000; ++i) {
    points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  double d2 = EstimateCorrelationDimension(points);
  EXPECT_GT(d2, 1.6);
  EXPECT_LE(d2, 2.0);
}

TEST(FractalTest, PointMassNearZeroIsClamped) {
  std::vector<KmPoint> points(1000, KmPoint{0.5, 0.5});
  double d2 = EstimateCorrelationDimension(points);
  EXPECT_DOUBLE_EQ(d2, 0.5);  // clamped floor
}

TEST(FractalTest, LineDataNearOne) {
  Rng rng(8);
  std::vector<KmPoint> points;
  for (int i = 0; i < 4000; ++i) {
    double x = rng.Uniform(0, 1);
    points.push_back({x, x});
  }
  double d2 = EstimateCorrelationDimension(points);
  EXPECT_GT(d2, 0.7);
  EXPECT_LT(d2, 1.4);
}

TEST(FractalTest, DegenerateInputDefaultsToTwo) {
  EXPECT_DOUBLE_EQ(EstimateCorrelationDimension({}), 2.0);
  EXPECT_DOUBLE_EQ(EstimateCorrelationDimension({{0.1, 0.2}}), 2.0);
}

}  // namespace
}  // namespace rdbsc::util
