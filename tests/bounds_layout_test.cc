// BoundsLayout against its oracle: Bounds() and Bounds(&extra) must equal
// ExpectedStdBounds over the roster (plus the extra) bit for bit, for
// rosters built by one Assign and by a chain of Adds. The rosters are
// chosen to hit the cached-term edge cases: tied angles and arrivals,
// arrivals before, at and after the valid period, and extras that land at
// rank 0, in the middle and past the end of both sorted lists.

#include "core/bounds_layout.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/diversity.h"
#include "geo/angle.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace rdbsc::core {
namespace {

using geo::kTwoPi;

constexpr size_t kMaxRoster = 40;

bool SameBits(const DiversityBounds& a, const DiversityBounds& b) {
  return std::bit_cast<uint64_t>(a.lb) == std::bit_cast<uint64_t>(b.lb) &&
         std::bit_cast<uint64_t>(a.ub) == std::bit_cast<uint64_t>(b.ub);
}

std::string Show(const DiversityBounds& b) {
  char text[96];
  std::snprintf(text, sizeof(text), "[%.17g, %.17g]", b.lb, b.ub);
  return text;
}

// A task whose valid period [2, 7] leaves room for arrivals on both sides.
Task PeriodTask(double beta) { return test::MakeTask(beta, 2.0, 7.0); }

// Angles and arrivals drawn from a few shared values half of the time, so
// rosters carry ties; the rest spread over and around the valid period.
double DrawAngle(util::Rng& rng) {
  static const double kShared[] = {0.0, 1.0, 1.0 + 1e-12, 3.0,
                                   std::nextafter(kTwoPi, 0.0)};
  if (rng.Bernoulli(0.5)) {
    return kShared[rng.UniformInt(0, std::ssize(kShared) - 1)];
  }
  return rng.Uniform(0.0, kTwoPi);
}

double DrawArrival(util::Rng& rng) {
  static const double kShared[] = {0.5, 2.0, 3.0, 3.0 + 1e-12, 7.0, 9.0};
  if (rng.Bernoulli(0.5)) {
    return kShared[rng.UniformInt(0, std::ssize(kShared) - 1)];
  }
  return rng.Uniform(0.0, 9.0);
}

Observation DrawObservation(util::Rng& rng) {
  double confidence = rng.Bernoulli(0.1) ? 1.0 : rng.Uniform(0.0, 0.99);
  return test::Obs(DrawAngle(rng), DrawArrival(rng), confidence);
}

// Extras at every interesting rank of the roster's sorted lists: below,
// equal to and above its smallest and largest angle and arrival, each
// stored value itself, and a few random ones.
std::vector<Observation> Extras(const std::vector<Observation>& roster,
                                util::Rng& rng) {
  std::vector<Observation> extras = {
      test::Obs(0.0, 0.0, 0.7),
      test::Obs(std::nextafter(kTwoPi, 0.0), 10.0, 0.7),
      test::Obs(0.5, 2.0, 0.0),
      test::Obs(6.0, 7.0, 1.0),
  };
  for (const Observation& o : roster) extras.push_back(o);
  for (int k = 0; k < 4; ++k) extras.push_back(DrawObservation(rng));
  return extras;
}

// Checks `layout`, which must hold `roster`, against the oracle with no
// extra and with every extra of Extras().
void ExpectMatchesOracle(const BoundsLayout& layout, const Task& task,
                         const std::vector<Observation>& roster,
                         util::Rng& rng, const std::string& where) {
  DiversityBounds want = ExpectedStdBounds(task, roster);
  DiversityBounds got = layout.Bounds(task);
  EXPECT_TRUE(SameBits(got, want))
      << where << " r=" << roster.size() << ": " << Show(got) << " vs "
      << Show(want);
  std::vector<Observation> with = roster;
  for (const Observation& extra : Extras(roster, rng)) {
    with.push_back(extra);
    want = ExpectedStdBounds(task, with);
    got = layout.Bounds(task, &extra);
    with.pop_back();
    EXPECT_TRUE(SameBits(got, want))
        << where << " r=" << roster.size() << " + (" << extra.angle << ", "
        << extra.arrival << ", " << extra.confidence << "): " << Show(got)
        << " vs " << Show(want);
  }
}

class BoundsLayoutPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundsLayoutPropertyTest, AssignedLayoutMatchesOracleBitForBit) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  for (double beta : {0.0, 0.5, 1.0, 0.3}) {
    const Task task = PeriodTask(beta);
    for (size_t r = 0; r <= kMaxRoster; ++r) {
      std::vector<Observation> roster;
      for (size_t k = 0; k < r; ++k) roster.push_back(DrawObservation(rng));
      BoundsLayout layout;
      layout.Assign(task, roster);
      ExpectMatchesOracle(layout, task, roster, rng, "assign");
    }
  }
}

TEST_P(BoundsLayoutPropertyTest, AddChainMatchesFreshAssignBitForBit) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  const Task task = PeriodTask(rng.Uniform(0.0, 1.0));
  std::vector<Observation> roster;
  BoundsLayout chained;
  chained.Assign(task, roster);
  for (size_t r = 1; r <= kMaxRoster; ++r) {
    const Observation o = DrawObservation(rng);
    roster.push_back(o);
    chained.Add(task, o);
    BoundsLayout fresh;
    fresh.Assign(task, roster);
    EXPECT_TRUE(SameBits(chained.Bounds(task), fresh.Bounds(task)))
        << "r=" << r;
    for (const Observation& extra : Extras(roster, rng)) {
      EXPECT_TRUE(SameBits(chained.Bounds(task, &extra),
                           fresh.Bounds(task, &extra)))
          << "r=" << r << " + (" << extra.angle << ", " << extra.arrival
          << ")";
    }
    ExpectMatchesOracle(chained, task, roster, rng, "add chain");
  }
}

// Every observation the same: all gaps but the wrap are 0 and the chain of
// clamped arrivals is flat, the degenerate case of both walks.
TEST(BoundsLayoutTest, IdenticalObservationsMatchOracle) {
  util::Rng rng(5);
  const Task task = PeriodTask(0.5);
  for (double arrival : {1.0, 2.0, 4.0, 7.0, 8.0}) {
    std::vector<Observation> roster;
    BoundsLayout chained;
    chained.Assign(task, roster);
    for (size_t r = 1; r <= 12; ++r) {
      roster.push_back(test::Obs(2.5, arrival, 0.8));
      chained.Add(task, roster.back());
      ExpectMatchesOracle(chained, task, roster, rng, "identical");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsLayoutPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace rdbsc::core
