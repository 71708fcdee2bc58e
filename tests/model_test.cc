#include "core/model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "core/instance.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rdbsc::core {
namespace {

constexpr double kPi = std::numbers::pi;

Worker MakeWorker(geo::Point loc, double v, geo::AngularInterval dir,
                  double p = 0.9) {
  Worker w;
  w.location = loc;
  w.velocity = v;
  w.direction = dir;
  w.confidence = p;
  return w;
}

TEST(ModelTest, TravelTimeStraightLine) {
  Worker w = MakeWorker({0, 0}, 0.5, geo::AngularInterval::FullCircle());
  EXPECT_DOUBLE_EQ(TravelTime(w, {0.3, 0.4}), 1.0);
  EXPECT_DOUBLE_EQ(TravelTime(w, {0, 0}), 0.0);
}

TEST(ModelTest, NonPositiveVelocityNeverArrives) {
  Worker w = MakeWorker({0, 0}, 0.0, geo::AngularInterval::FullCircle());
  EXPECT_TRUE(std::isinf(TravelTime(w, {0.1, 0.1})));
}

TEST(ModelTest, ArrivalPolicyStrictVsWait) {
  Worker w = MakeWorker({0, 0}, 1.0, geo::AngularInterval::FullCircle());
  Task t = test::MakeTask(0.5, /*start=*/2.0, /*end=*/3.0);
  t.location = {0.5, 0.0};  // 0.5 h away
  // Strict: arrival at 0.5 is before the period opens.
  EXPECT_DOUBLE_EQ(ArrivalTime(w, t, 0.0, ArrivalPolicy::kStrict), 0.5);
  EXPECT_FALSE(IsValidPair(t, w, 0.0, ArrivalPolicy::kStrict));
  // Waiting: the worker idles at the site until the period opens.
  EXPECT_DOUBLE_EQ(ArrivalTime(w, t, 0.0, ArrivalPolicy::kAllowWait), 2.0);
  EXPECT_TRUE(IsValidPair(t, w, 0.0, ArrivalPolicy::kAllowWait));
}

TEST(ModelTest, ValidityRequiresArrivalInsidePeriod) {
  Worker w = MakeWorker({0, 0}, 1.0, geo::AngularInterval::FullCircle());
  Task t = test::MakeTask(0.5, 0.0, 1.0);
  t.location = {0.5, 0.0};
  EXPECT_TRUE(IsValidPair(t, w, 0.0, ArrivalPolicy::kStrict));
  // Departing too late misses the deadline.
  EXPECT_FALSE(IsValidPair(t, w, 0.8, ArrivalPolicy::kStrict));
  // Waiting cannot help a missed deadline either.
  EXPECT_FALSE(IsValidPair(t, w, 0.8, ArrivalPolicy::kAllowWait));
}

TEST(ModelTest, CheckInDelaysDeparture) {
  Worker w = MakeWorker({0, 0}, 1.0, geo::AngularInterval::FullCircle());
  w.available_from = 2.0;  // checks in at hour 2
  Task t = test::MakeTask(0.5, 0.0, 1.0);
  t.location = {0.5, 0.0};
  // Departing at the check-in, the worker arrives at 2.5 -- after the
  // deadline -- even though now = 0.
  EXPECT_DOUBLE_EQ(ArrivalTime(w, t, 0.0, ArrivalPolicy::kStrict), 2.5);
  EXPECT_FALSE(IsValidPair(t, w, 0.0, ArrivalPolicy::kStrict));
  // A later task window fits.
  Task late = test::MakeTask(0.5, 2.0, 3.0);
  late.location = {0.5, 0.0};
  EXPECT_TRUE(IsValidPair(late, w, 0.0, ArrivalPolicy::kStrict));
  // `now` past the check-in dominates it.
  EXPECT_DOUBLE_EQ(ArrivalTime(w, late, 4.0, ArrivalPolicy::kStrict), 4.5);
}

TEST(ModelTest, ValidityRequiresDirectionInCone) {
  // Worker moving east-ish only.
  Worker w = MakeWorker({0.5, 0.5}, 1.0,
                        geo::AngularInterval(-kPi / 8, kPi / 8));
  Task east = test::MakeTask(0.5, 0.0, 2.0);
  east.location = {0.9, 0.5};
  Task west = test::MakeTask(0.5, 0.0, 2.0);
  west.location = {0.1, 0.5};
  EXPECT_TRUE(IsValidPair(east, w, 0.0, ArrivalPolicy::kStrict));
  EXPECT_FALSE(IsValidPair(west, w, 0.0, ArrivalPolicy::kStrict));
}

TEST(ModelTest, WorkerOnTaskLocationIgnoresDirection) {
  Worker w = MakeWorker({0.5, 0.5}, 1.0, geo::AngularInterval(0.0, 0.1));
  Task t = test::MakeTask(0.5, 0.0, 1.0);
  t.location = {0.5, 0.5};
  EXPECT_TRUE(IsValidPair(t, w, 0.0, ArrivalPolicy::kStrict));
}

TEST(ModelTest, ApproachAngleIsBearingFromTask) {
  Task t = test::MakeTask();
  t.location = {0.5, 0.5};
  Worker w = MakeWorker({1.0, 0.5}, 1.0, geo::AngularInterval::FullCircle());
  EXPECT_NEAR(ApproachAngle(t, w), 0.0, 1e-12);  // worker due east of task
  w.location = {0.5, 1.0};
  EXPECT_NEAR(ApproachAngle(t, w), kPi / 2, 1e-12);
}

TEST(InstanceTest, ValidateAcceptsWellFormed) {
  Instance instance = test::SmallInstance(1);
  EXPECT_TRUE(instance.Validate().ok());
}

TEST(InstanceTest, ValidateRejectsBadDuration) {
  Task t = test::MakeTask(0.5, 2.0, 1.0);  // end < start
  Instance instance({t}, {});
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(InstanceTest, ValidateRejectsBadBeta) {
  Task t = test::MakeTask(1.5);
  Instance instance({t}, {});
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(InstanceTest, ValidateRejectsBadWorker) {
  Worker w = MakeWorker({0, 0}, -1.0, geo::AngularInterval::FullCircle());
  Instance instance({}, {w});
  EXPECT_FALSE(instance.Validate().ok());
  w.velocity = 1.0;
  w.confidence = 2.0;
  Instance instance2({}, {w});
  EXPECT_FALSE(instance2.Validate().ok());
}

TEST(InstanceTest, ValidateRejectsNaNAndNamesTheField) {
  Task t = test::MakeTask(std::nan(""));
  Instance bad_beta({test::MakeTask(), t}, {});
  EXPECT_EQ(bad_beta.Validate().message(), "task 1: beta = nan outside [0,1]");
  Worker w = MakeWorker({0, 0}, 1.0, geo::AngularInterval::FullCircle());
  w.confidence = std::nan("");
  Instance bad_confidence({}, {w});
  EXPECT_EQ(bad_confidence.Validate().message(),
            "worker 0: confidence = nan outside [0,1]");
  w.confidence = 0.5;
  w.location.y = std::numeric_limits<double>::infinity();
  Instance bad_location({}, {w});
  EXPECT_EQ(bad_location.Validate().message(),
            "worker 0: location.y = inf not finite");
}

TEST(CandidateGraphTest, BuildMatchesPairwisePredicate) {
  Instance instance = test::SmallInstance(2);
  CandidateGraph graph = CandidateGraph::Build(instance);
  int64_t edges = 0;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    for (TaskId i = 0; i < instance.num_tasks(); ++i) {
      bool valid = IsValidPair(instance.task(i), instance.worker(j),
                               instance.now(), instance.policy());
      const auto& tasks = graph.TasksOf(j);
      bool listed = std::find(tasks.begin(), tasks.end(), i) != tasks.end();
      EXPECT_EQ(valid, listed);
      edges += valid ? 1 : 0;
    }
  }
  EXPECT_EQ(graph.NumEdges(), edges);
}

TEST(CandidateGraphTest, TransposeIsConsistent) {
  Instance instance = test::SmallInstance(3);
  CandidateGraph graph = CandidateGraph::Build(instance);
  for (TaskId i = 0; i < instance.num_tasks(); ++i) {
    for (WorkerId j : graph.WorkersOf(i)) {
      const auto& tasks = graph.TasksOf(j);
      EXPECT_NE(std::find(tasks.begin(), tasks.end(), i), tasks.end());
    }
  }
}

TEST(CandidateGraphTest, LogPopulationSumsDegrees) {
  Instance instance = test::SmallInstance(4);
  CandidateGraph graph = CandidateGraph::Build(instance);
  double expected = 0.0;
  for (WorkerId j = 0; j < instance.num_workers(); ++j) {
    if (graph.Degree(j) > 0) expected += std::log(graph.Degree(j));
  }
  EXPECT_NEAR(graph.LogPopulation(), expected, 1e-12);
}

}  // namespace
}  // namespace rdbsc::core
