#include "core/diversity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "geo/angle.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/math.h"
#include "util/rng.h"

namespace rdbsc::core {
namespace {

using test::MakeTask;
using test::Obs;

constexpr double kPi = std::numbers::pi;

// ---------- Exact spatial diversity (Eq. 3) ----------

TEST(SpatialDiversityTest, FewerThanTwoRaysIsZero) {
  EXPECT_DOUBLE_EQ(SpatialDiversity({}), 0.0);
  EXPECT_DOUBLE_EQ(SpatialDiversity({1.0}), 0.0);
}

TEST(SpatialDiversityTest, OppositeRaysMaximizeTwoRayEntropy) {
  // Two rays splitting the circle in half: entropy ln 2.
  EXPECT_NEAR(SpatialDiversity({0.0, kPi}), std::log(2.0), 1e-12);
}

TEST(SpatialDiversityTest, CoincidentRaysHaveZeroDiversity) {
  EXPECT_NEAR(SpatialDiversity({1.0, 1.0}), 0.0, 1e-12);
  EXPECT_NEAR(SpatialDiversity({1.0, 1.0, 1.0}), 0.0, 1e-12);
}

TEST(SpatialDiversityTest, EvenSplitGivesLogR) {
  // r equally spaced rays: entropy ln r.
  for (int r = 2; r <= 8; ++r) {
    std::vector<double> angles;
    for (int i = 0; i < r; ++i) angles.push_back(i * geo::kTwoPi / r);
    EXPECT_NEAR(SpatialDiversity(angles), std::log(static_cast<double>(r)),
                1e-9)
        << "r=" << r;
  }
}

TEST(SpatialDiversityTest, InvariantUnderRotation) {
  util::Rng rng(77);
  std::vector<double> angles = {0.3, 1.7, 2.9, 4.4};
  double base = SpatialDiversity(angles);
  for (int trial = 0; trial < 20; ++trial) {
    double shift = rng.Uniform(0, geo::kTwoPi);
    std::vector<double> rotated;
    for (double a : angles) rotated.push_back(a + shift);
    EXPECT_NEAR(SpatialDiversity(rotated), base, 1e-9);
  }
}

// ---------- Exact temporal diversity (Eq. 4) ----------

TEST(TemporalDiversityTest, NoArrivalsIsZero) {
  EXPECT_DOUBLE_EQ(TemporalDiversity({}, 0.0, 1.0), 0.0);
}

TEST(TemporalDiversityTest, MidpointSplitsEvenly) {
  EXPECT_NEAR(TemporalDiversity({0.5}, 0.0, 1.0), std::log(2.0), 1e-12);
}

TEST(TemporalDiversityTest, BoundaryArrivalAddsNothing) {
  EXPECT_NEAR(TemporalDiversity({0.0}, 0.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(TemporalDiversity({1.0}, 0.0, 1.0), 0.0, 1e-12);
}

TEST(TemporalDiversityTest, EvenSplitGivesLogIntervals) {
  // r arrivals at the (r+1)-quantiles: entropy ln(r+1).
  for (int r = 1; r <= 6; ++r) {
    std::vector<double> arrivals;
    for (int i = 1; i <= r; ++i) {
      arrivals.push_back(static_cast<double>(i) / (r + 1));
    }
    EXPECT_NEAR(TemporalDiversity(arrivals, 0.0, 1.0),
                std::log(static_cast<double>(r + 1)), 1e-9);
  }
}

TEST(TemporalDiversityTest, ScalesWithPeriod) {
  // The same relative split yields the same entropy on any period.
  double base = TemporalDiversity({0.25, 0.5}, 0.0, 1.0);
  EXPECT_NEAR(TemporalDiversity({2.5, 5.0}, 0.0, 10.0), base, 1e-12);
  EXPECT_NEAR(TemporalDiversity({3.25, 3.5}, 3.0, 4.0), base, 1e-12);
}

// ---------- STD combination (Eq. 5) ----------

TEST(StdTest, BetaBlendsSpatialAndTemporal) {
  std::vector<Observation> obs = {Obs(0.0, 0.25, 0.9), Obs(kPi, 0.75, 0.9)};
  double sd = SpatialDiversity({0.0, kPi});
  double td = TemporalDiversity({0.25, 0.75}, 0.0, 1.0);
  EXPECT_NEAR(Std(MakeTask(1.0), obs), sd, 1e-12);
  EXPECT_NEAR(Std(MakeTask(0.0), obs), td, 1e-12);
  EXPECT_NEAR(Std(MakeTask(0.3), obs), 0.3 * sd + 0.7 * td, 1e-12);
}

// ---------- Expected diversity: matrix method vs possible worlds ----------

TEST(ExpectedDiversityTest, EmptyAndSingleWorker) {
  Task task = MakeTask(0.5);
  EXPECT_DOUBLE_EQ(ExpectedStd(task, {}), 0.0);
  // A single worker has no spatial diversity but splits the period.
  std::vector<Observation> one = {Obs(1.0, 0.5, 0.8)};
  double expected = 0.5 * 0.8 * std::log(2.0);
  EXPECT_NEAR(ExpectedStd(task, one), expected, 1e-12);
}

TEST(ExpectedDiversityTest, TwoWorkerClosedForm) {
  // With two workers the only diverse world is both-present.
  Task task = MakeTask(1.0);  // spatial only
  std::vector<Observation> obs = {Obs(0.0, 0.2, 0.7), Obs(kPi, 0.8, 0.6)};
  EXPECT_NEAR(ExpectedSpatialDiversity(obs), 0.7 * 0.6 * std::log(2.0),
              1e-12);
  EXPECT_NEAR(ExpectedStd(task, obs), 0.7 * 0.6 * std::log(2.0), 1e-12);
}

TEST(ExpectedDiversityTest, CertainWorkersReduceToDeterministicStd) {
  Task task = MakeTask(0.4);
  std::vector<Observation> obs = {Obs(0.1, 0.2, 1.0), Obs(2.0, 0.5, 1.0),
                                  Obs(4.0, 0.9, 1.0)};
  EXPECT_NEAR(ExpectedStd(task, obs), Std(task, obs), 1e-9);
}

// The central correctness property: the O(r^2) matrix computation equals
// exhaustive possible-worlds enumeration (Lemma 3.1).
class MatrixVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(MatrixVsBruteForceTest, ExpectedStdMatchesEnumeration) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    int r = static_cast<int>(rng.UniformInt(0, 10));
    double beta = rng.Uniform(0.0, 1.0);
    double start = rng.Uniform(0.0, 5.0);
    double end = start + rng.Uniform(0.5, 3.0);
    Task task = MakeTask(beta, start, end);
    std::vector<Observation> obs;
    for (int i = 0; i < r; ++i) {
      obs.push_back(Obs(rng.Uniform(0.0, geo::kTwoPi),
                        rng.Uniform(start, end), rng.Uniform(0.0, 1.0)));
    }
    double matrix = ExpectedStd(task, obs);
    double brute = ExpectedStdBruteForce(task, obs);
    EXPECT_NEAR(matrix, brute, 1e-9)
        << "r=" << r << " beta=" << beta << " trial=" << trial;
  }
}

TEST_P(MatrixVsBruteForceTest, SpatialOnlyMatches) {
  util::Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 30; ++trial) {
    int r = static_cast<int>(rng.UniformInt(2, 9));
    Task task = MakeTask(1.0);
    std::vector<Observation> obs;
    for (int i = 0; i < r; ++i) {
      obs.push_back(Obs(rng.Uniform(0.0, geo::kTwoPi), 0.5,
                        rng.Uniform(0.1, 1.0)));
    }
    EXPECT_NEAR(ExpectedSpatialDiversity(obs),
                ExpectedStdBruteForce(task, obs), 1e-9);
  }
}

TEST_P(MatrixVsBruteForceTest, TemporalOnlyMatches) {
  util::Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 30; ++trial) {
    int r = static_cast<int>(rng.UniformInt(1, 9));
    Task task = MakeTask(0.0, 1.0, 3.0);
    std::vector<Observation> obs;
    for (int i = 0; i < r; ++i) {
      obs.push_back(Obs(0.0, rng.Uniform(1.0, 3.0), rng.Uniform(0.1, 1.0)));
    }
    EXPECT_NEAR(ExpectedTemporalDiversity(obs, task.start, task.end),
                ExpectedStdBruteForce(task, obs), 1e-9);
  }
}

// Duplicate angles / arrival collisions must agree with enumeration too.
TEST_P(MatrixVsBruteForceTest, DegenerateGeometryMatches) {
  util::Rng rng(GetParam() + 3000);
  for (int trial = 0; trial < 20; ++trial) {
    Task task = MakeTask(rng.Uniform(0.0, 1.0));
    double shared_angle = rng.Uniform(0.0, geo::kTwoPi);
    double shared_time = rng.Uniform(0.0, 1.0);
    std::vector<Observation> obs;
    int r = static_cast<int>(rng.UniformInt(2, 7));
    for (int i = 0; i < r; ++i) {
      bool duplicate = rng.Bernoulli(0.5);
      obs.push_back(Obs(duplicate ? shared_angle
                                  : rng.Uniform(0.0, geo::kTwoPi),
                        duplicate ? shared_time : rng.Uniform(0.0, 1.0),
                        rng.Uniform(0.0, 1.0)));
    }
    EXPECT_NEAR(ExpectedStd(task, obs), ExpectedStdBruteForce(task, obs),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixVsBruteForceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- Monotonicity (Lemma 4.2) ----------

class MonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(MonotonicityTest, AddingWorkerNeverDecreasesExpectedStd) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    Task task = MakeTask(rng.Uniform(0.0, 1.0));
    std::vector<Observation> obs;
    double previous = 0.0;
    for (int i = 0; i < 8; ++i) {
      obs.push_back(Obs(rng.Uniform(0.0, geo::kTwoPi), rng.Uniform(0.0, 1.0),
                        rng.Uniform(0.0, 1.0)));
      double current = ExpectedStd(task, obs);
      EXPECT_GE(current, previous - 1e-12)
          << "adding worker " << i << " decreased E[STD]";
      previous = current;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityTest,
                         ::testing::Values(21, 22, 23, 24));

// ---------- Bounds (Section 4.3) ----------

class BoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundsTest, BoundsSandwichExactValue) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    Task task = MakeTask(rng.Uniform(0.0, 1.0));
    int r = static_cast<int>(rng.UniformInt(0, 9));
    std::vector<Observation> obs;
    for (int i = 0; i < r; ++i) {
      obs.push_back(Obs(rng.Uniform(0.0, geo::kTwoPi), rng.Uniform(0.0, 1.0),
                        rng.Uniform(0.0, 1.0)));
    }
    DiversityBounds bounds = ExpectedStdBounds(task, obs);
    double exact = ExpectedStd(task, obs);
    EXPECT_LE(bounds.lb, exact + 1e-9) << "lower bound violated, r=" << r;
    EXPECT_GE(bounds.ub, exact - 1e-9) << "upper bound violated, r=" << r;
    EXPECT_LE(bounds.lb, bounds.ub + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsTest, ::testing::Values(31, 32, 33, 34));

// ---------- Row cut-off: bit-identical to full Eq. 9 / Eq. 10 rows ----------

// The confidence regimes the cut-off is swept over.
enum class Regime { kUniform, kCampus, kCertain, kTiny, kZero, kMixed };

std::string RegimeName(Regime regime) {
  switch (regime) {
    case Regime::kUniform: return "Uniform";
    case Regime::kCampus: return "Campus";
    case Regime::kCertain: return "Certain";
    case Regime::kTiny: return "Tiny";
    case Regime::kZero: return "Zero";
    case Regime::kMixed: return "Mixed";
  }
  return "?";
}

double DrawConfidence(Regime regime, util::Rng& rng) {
  switch (regime) {
    case Regime::kUniform: return rng.Uniform(0.0, 1.0);
    case Regime::kCampus: return rng.Uniform(0.8, 1.0);
    case Regime::kCertain: return 1.0;  // clamped to 1 - 1e-12
    case Regime::kTiny: return rng.Uniform(0.0, 1e-6);
    case Regime::kZero: return 0.0;
    case Regime::kMixed:
      return DrawConfidence(
          static_cast<Regime>(rng.UniformInt(0, 4)), rng);
  }
  return 0.0;
}

// `r` observations on the unit period [0, 1]. Spread geometry draws every
// angle and arrival afresh; degenerate geometry repeats a few angles and
// puts arrivals on the period's ends and on repeated interior times.
std::vector<Observation> DrawObservations(size_t r, Regime regime,
                                          bool degenerate, util::Rng& rng) {
  const double angles[] = {0.0, 1.25, 1.25 + 1e-15, 4.5};
  const double times[] = {0.0, 1.0, 0.5, 0.25};
  std::vector<Observation> obs;
  for (size_t i = 0; i < r; ++i) {
    const bool repeat = degenerate && rng.Bernoulli(0.7);
    obs.push_back(Obs(repeat ? angles[rng.UniformInt(0, 3)]
                             : rng.Uniform(0.0, geo::kTwoPi),
                      repeat ? times[rng.UniformInt(0, 3)]
                             : rng.Uniform(0.0, 1.0),
                      DrawConfidence(regime, rng)));
  }
  return obs;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// The oracle: Eq. 9 and Eq. 10 as full O(r^2) rows, the layout and the
// loops copied from the implementation as they were before rows could
// stop. `cut_rows` counts the rows where the implementation's cut-off
// (between_absent < expected * 2^-55 after the update) fires with at least
// one term of the row left, so a sweep can show that it exercised the cut.
struct FullRows {
  double value = 0.0;
  int64_t cut_rows = 0;
};

bool CutFires(double between_absent, double expected) {
  return between_absent < expected * 0x1p-55;
}

FullRows FullRowSpatial(const std::vector<Observation>& obs) {
  FullRows out;
  const size_t r = obs.size();
  if (r < 2) return out;
  std::vector<size_t> order(r);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&obs](size_t a, size_t b) {
    return obs[a].angle < obs[b].angle;
  });
  std::vector<double> angle, confidence, gap(r);
  for (size_t i : order) {
    angle.push_back(geo::NormalizeAngle(obs[i].angle));
    confidence.push_back(util::ClampConfidence(obs[i].confidence));
  }
  for (size_t i = 0; i < r; ++i) {
    gap[i] = geo::CcwDelta(angle[i], angle[(i + 1) % r]);
  }
  double sum = 0.0;
  for (size_t i = 0; i + 1 < r; ++i) sum += gap[i];
  gap[r - 1] = geo::kTwoPi - sum;

  for (size_t j = 0; j < r; ++j) {
    double between_absent = 1.0;
    double swept = 0.0;
    bool fired = false;
    for (size_t step = 1; step < r; ++step) {
      size_t k = (j + step) % r;
      swept += gap[(j + step - 1) % r];
      out.value += util::EntropyTerm(swept / geo::kTwoPi) * confidence[j] *
                   confidence[k] * between_absent;
      between_absent *= 1.0 - confidence[k];
      if (!fired && step + 1 < r && CutFires(between_absent, out.value)) {
        fired = true;
        ++out.cut_rows;
      }
    }
  }
  return out;
}

FullRows FullRowTemporal(const std::vector<Observation>& obs, double start,
                         double end) {
  FullRows out;
  if (obs.empty()) return out;
  std::vector<size_t> order(obs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&obs](size_t a, size_t b) {
    return obs[a].arrival < obs[b].arrival;
  });
  std::vector<double> time = {start};
  std::vector<double> confidence = {1.0};
  for (size_t i : order) {
    time.push_back(std::clamp(obs[i].arrival, start, end));
    confidence.push_back(util::ClampConfidence(obs[i].confidence));
  }
  time.push_back(end);
  confidence.push_back(1.0);
  const double duration = end - start;
  const size_t b = time.size();

  for (size_t a = 0; a + 1 < b; ++a) {
    double between_absent = 1.0;
    bool fired = false;
    for (size_t k = a + 1; k < b; ++k) {
      double len = time[k] - time[a];
      out.value += util::EntropyTerm(len / duration) * confidence[a] *
                   confidence[k] * between_absent;
      between_absent *= 1.0 - confidence[k];
      if (!fired && k + 1 < b && CutFires(between_absent, out.value)) {
        fired = true;
        ++out.cut_rows;
      }
    }
  }
  return out;
}

class RowCutoffTest : public ::testing::TestWithParam<Regime> {};

TEST_P(RowCutoffTest, BitIdenticalToFullRows) {
  const Regime regime = GetParam();
  util::Rng rng(1800 + static_cast<uint64_t>(regime));
  int64_t cut_rows = 0;
  for (size_t r : {0, 1, 2, 3, 16, 17, 64, 257, 1000}) {
    for (bool degenerate : {false, true}) {
      const std::vector<Observation> obs =
          DrawObservations(r, regime, degenerate, rng);
      const FullRows sd = FullRowSpatial(obs);
      const FullRows td = FullRowTemporal(obs, 0.0, 1.0);
      cut_rows += sd.cut_rows + td.cut_rows;
      const std::string where = RegimeName(regime) + " r=" +
                                std::to_string(r) +
                                (degenerate ? " degenerate" : " spread");
      EXPECT_TRUE(SameBits(ExpectedSpatialDiversity(obs), sd.value))
          << where << ": E[SD] " << ExpectedSpatialDiversity(obs)
          << " vs full rows " << sd.value;
      EXPECT_TRUE(
          SameBits(ExpectedTemporalDiversity(obs, 0.0, 1.0), td.value))
          << where << ": E[TD] " << ExpectedTemporalDiversity(obs, 0.0, 1.0)
          << " vs full rows " << td.value;
      for (double beta : {0.0, 0.5, 1.0}) {
        const double spatial = beta > 0.0 ? sd.value : 0.0;
        const double temporal = beta < 1.0 ? td.value : 0.0;
        EXPECT_TRUE(SameBits(ExpectedStd(MakeTask(beta), obs),
                             beta * spatial + (1.0 - beta) * temporal))
            << where << ": E[STD] at beta=" << beta;
      }
    }
  }
  // Not vacuous: wherever rows can fall below 2^-55 of the running sum,
  // the sweep must have taken the cut. Near-zero and zero confidences keep
  // between_absent near 1 (and a zero sum), so there the cut never fires.
  if (regime == Regime::kTiny || regime == Regime::kZero) {
    EXPECT_EQ(cut_rows, 0);
  } else {
    EXPECT_GT(cut_rows, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, RowCutoffTest,
    ::testing::Values(Regime::kUniform, Regime::kCampus, Regime::kCertain,
                      Regime::kTiny, Regime::kZero, Regime::kMixed),
    [](const ::testing::TestParamInfo<Regime>& info) {
      return RegimeName(info.param);
    });

// ---------- Numerics: a long-double reference well past brute force ----------

// Eq. 9 and 10 in long double with compensated summation, on exact
// differences of the inputs (no accumulated gaps) and the same clamped
// confidences: a reference for r far beyond the 2^25-world brute force.
class KahanSum {
 public:
  void Add(long double x) {
    const long double y = x - carry_;
    const long double t = sum_ + y;
    carry_ = (t - sum_) - y;
    sum_ = t;
  }
  long double value() const { return sum_; }

 private:
  long double sum_ = 0.0L;
  long double carry_ = 0.0L;
};

long double EntropyTermL(long double x) {
  return x > 0.0L ? -x * std::log(x) : 0.0L;
}

long double ReferenceSpatial(const std::vector<Observation>& obs) {
  const size_t r = obs.size();
  if (r < 2) return 0.0L;
  std::vector<std::pair<double, double>> rays;  // (angle, confidence)
  for (const Observation& o : obs) {
    rays.emplace_back(geo::NormalizeAngle(o.angle),
                      util::ClampConfidence(o.confidence));
  }
  std::sort(rays.begin(), rays.end());
  const long double circle = geo::kTwoPi;
  KahanSum sum;
  for (size_t j = 0; j < r; ++j) {
    long double between_absent = 1.0L;
    for (size_t step = 1; step < r; ++step) {
      const size_t k = (j + step) % r;
      long double swept =
          static_cast<long double>(rays[k].first) - rays[j].first;
      if (k < j) swept += circle;
      sum.Add(EntropyTermL(swept / circle) * rays[j].second *
              rays[k].second * between_absent);
      between_absent *= 1.0L - rays[k].second;
    }
  }
  return sum.value();
}

long double ReferenceTemporal(const std::vector<Observation>& obs,
                              double start, double end) {
  if (obs.empty()) return 0.0L;
  std::vector<std::pair<double, double>> dividers;  // (time, confidence)
  for (const Observation& o : obs) {
    dividers.emplace_back(std::clamp(o.arrival, start, end),
                          util::ClampConfidence(o.confidence));
  }
  std::sort(dividers.begin(), dividers.end());
  dividers.insert(dividers.begin(), {start, 1.0});
  dividers.emplace_back(end, 1.0);
  const long double duration = static_cast<long double>(end) - start;
  KahanSum sum;
  for (size_t a = 0; a + 1 < dividers.size(); ++a) {
    long double between_absent = 1.0L;
    for (size_t k = a + 1; k < dividers.size(); ++k) {
      const long double len =
          static_cast<long double>(dividers[k].first) - dividers[a].first;
      sum.Add(EntropyTermL(len / duration) * dividers[a].second *
              dividers[k].second * between_absent);
      between_absent *= 1.0L - dividers[k].second;
    }
  }
  return sum.value();
}

long double ReferenceStd(const Task& task,
                         const std::vector<Observation>& obs) {
  return task.beta * ReferenceSpatial(obs) +
         (1.0L - task.beta) * ReferenceTemporal(obs, task.start, task.end);
}

// The largest |double - reference| / reference over the sweep below was
// 5.4e-14 (near-0 confidences, beta = 0, r = 1000; x86-64, GCC -O3); the
// bound leaves about 18x room. The test records its worst case as the
// worst_relative_error property (--gtest_output=xml).
constexpr double kNumericsRelTol = 1e-12;

double RelativeError(double value, long double reference) {
  if (reference == 0.0L) return value == 0.0 ? 0.0 : HUGE_VAL;
  return static_cast<double>(std::fabs((value - reference) / reference));
}

// The reference itself is checked where brute force can reach.
TEST(DiversityNumericsTest, ReferenceMatchesBruteForce) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const Task task = MakeTask(rng.Uniform(0.0, 1.0));
    const Regime regime = static_cast<Regime>(rng.UniformInt(0, 5));
    const std::vector<Observation> obs = DrawObservations(
        static_cast<size_t>(rng.UniformInt(0, 12)), regime,
        rng.Bernoulli(0.5), rng);
    EXPECT_NEAR(static_cast<double>(ReferenceStd(task, obs)),
                ExpectedStdBruteForce(task, obs), 1e-12)
        << RegimeName(regime) << " r=" << obs.size();
  }
}

// Confidences near 0 and near 1, observations appended one batch at a
// time up to r = 1000: every value is finite, within kNumericsRelTol of
// the reference, and never decreases beyond that tolerance (Lemma 4.2).
TEST(DiversityNumericsTest, LargeRosterMatchesReferenceAndIsMonotone) {
  struct Band {
    const char* name;
    double lo, hi;
  };
  const Band bands[] = {{"near-0", 0.0, 1e-6},
                        {"near-1", 1.0 - 1e-9, 1.0},
                        {"uniform", 0.0, 1.0}};
  const size_t prefixes[] = {1,  2,  3,  4,   5,   8,   12,  16,  17,
                             25, 32, 64, 128, 257, 512, 700, 1000};
  util::Rng rng(2026);
  double worst = 0.0;
  for (const Band& band : bands) {
    for (double beta : {0.0, 0.5, 1.0}) {
      const Task task = MakeTask(beta, 2.0, 5.0);
      std::vector<Observation> obs;
      double previous = 0.0;
      for (size_t r : prefixes) {
        while (obs.size() < r) {
          obs.push_back(Obs(rng.Uniform(0.0, geo::kTwoPi),
                            rng.Uniform(2.0, 5.0),
                            rng.Uniform(band.lo, band.hi)));
        }
        const double value = ExpectedStd(task, obs);
        const long double reference = ReferenceStd(task, obs);
        const double error = RelativeError(value, reference);
        worst = std::max(worst, error);
        ASSERT_TRUE(std::isfinite(value))
            << band.name << " beta=" << beta << " r=" << r;
        EXPECT_LE(error, kNumericsRelTol)
            << band.name << " beta=" << beta << " r=" << r << ": " << value
            << " vs reference " << static_cast<double>(reference);
        EXPECT_GE(value, previous * (1.0 - kNumericsRelTol))
            << band.name << " beta=" << beta << " r=" << r
            << ": appending observations decreased E[STD]";
        previous = value;
      }
    }
  }
  char text[32];
  std::snprintf(text, sizeof(text), "%.3g", worst);
  RecordProperty("worst_relative_error", text);
}

// ---------- Per-thread scratch: reuse leaves no trace ----------

// The bits of every scratch-backed evaluation of one roster.
struct ScratchResults {
  uint64_t std = 0, spatial = 0, temporal = 0, lb = 0, ub = 0, det = 0;
  bool operator==(const ScratchResults&) const = default;
};

ScratchResults EvaluateWithScratch(const Task& task,
                                   const std::vector<Observation>& obs) {
  const DiversityBounds bounds = ExpectedStdBounds(task, obs);
  return {std::bit_cast<uint64_t>(ExpectedStd(task, obs)),
          std::bit_cast<uint64_t>(ExpectedSpatialDiversity(obs)),
          std::bit_cast<uint64_t>(
              ExpectedTemporalDiversity(obs, task.start, task.end)),
          std::bit_cast<uint64_t>(bounds.lb),
          std::bit_cast<uint64_t>(bounds.ub),
          std::bit_cast<uint64_t>(Std(task, obs))};
}

// The same evaluation on a thread of its own, whose scratch starts empty.
ScratchResults EvaluateOnFreshThread(const Task& task,
                                     const std::vector<Observation>& obs) {
  ScratchResults results;
  std::thread([&] { results = EvaluateWithScratch(task, obs); }).join();
  return results;
}

// Rosters of r = 1000, 2, 0 and 37: the buffers grow to 1000 first, so the
// later, shorter rosters run on longer buffers left over from it.
std::vector<std::vector<Observation>> ShrinkingRosters() {
  util::Rng rng(4242);
  std::vector<std::vector<Observation>> rosters;
  rosters.push_back(DrawObservations(1000, Regime::kUniform, false, rng));
  rosters.push_back(DrawObservations(2, Regime::kCampus, false, rng));
  rosters.push_back({});
  rosters.push_back(DrawObservations(37, Regime::kMixed, true, rng));
  return rosters;
}

TEST(ScratchReuseTest, InterleavedRosterSizesMatchFreshThreads) {
  const Task task = MakeTask(0.4, 0.0, 1.0);
  const auto rosters = ShrinkingRosters();
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::vector<Observation>& obs : rosters) {
      EXPECT_EQ(EvaluateWithScratch(task, obs),
                EvaluateOnFreshThread(task, obs))
          << "pass " << pass << ", r=" << obs.size();
    }
  }
}

// Four threads evaluating the rosters at once, each in its own order, see
// exactly the serial results: no scratch buffer is shared.
TEST(ScratchReuseTest, ConcurrentThreadsMatchSerial) {
  const Task task = MakeTask(0.6, 0.0, 1.0);
  const auto rosters = ShrinkingRosters();
  std::vector<ScratchResults> serial;
  for (const std::vector<Observation>& obs : rosters) {
    serial.push_back(EvaluateWithScratch(task, obs));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<ScratchResults>> seen(
      kThreads, std::vector<ScratchResults>(rosters.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t k = 0; k < rosters.size(); ++k) {
          const size_t at = (k + static_cast<size_t>(t)) % rosters.size();
          seen[t][at] = EvaluateWithScratch(task, rosters[at]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < rosters.size(); ++k) {
      EXPECT_EQ(seen[t][k], serial[k])
          << "thread " << t << ", r=" << rosters[k].size();
    }
  }
}

// ---------- Small-roster sort ----------

// InsertionSortOrder against std::sort with the same comparator on index
// arrays of every size up to kInsertionSortMax: keys drawn from a handful
// of values (heavy ties), signed zeros and NaN, so any deviation from
// std::sort's small-range insertion sort changes a permutation.
TEST(InsertionSortOrderTest, PermutationEqualsStdSort) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double pool[] = {0.0, -0.0, 1.0, 2.0, 2.0, 3.5, nan, -1.0, 6.0};
  util::Rng rng(17);
  std::vector<double> keys;
  std::vector<size_t> got, want;
  for (int trial = 0; trial < 120000; ++trial) {
    const auto r = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(internal::kInsertionSortMax)));
    const int64_t distinct = rng.UniformInt(1, 9);
    keys.resize(r);
    for (double& key : keys) {
      key = trial % 3 == 0 ? rng.Uniform(0.0, 6.0)
                           : pool[rng.UniformInt(0, distinct - 1)];
    }
    auto less = [&keys](size_t a, size_t b) { return keys[a] < keys[b]; };
    got.resize(r);
    std::iota(got.begin(), got.end(), size_t{0});
    want = got;
    internal::InsertionSortOrder(got.data(), r, less);
    std::sort(want.begin(), want.end(), less);
    ASSERT_EQ(got, want) << "trial " << trial << ", r " << r;
  }
}

}  // namespace
}  // namespace rdbsc::core
