#include "io/csv.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "geo/angle.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rdbsc::io {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(CsvTest, TaskRoundTrip) {
  core::Instance instance = rdbsc::test::SmallInstance(1, 20, 0);
  std::string path = TempPath("tasks_rt.csv");
  ASSERT_TRUE(WriteTasksCsv(path, instance.tasks()).ok());
  auto read = ReadTasksCsv(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), instance.tasks().size());
  for (size_t i = 0; i < read.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(read.value()[i].location.x,
                     instance.tasks()[i].location.x);
    EXPECT_DOUBLE_EQ(read.value()[i].start, instance.tasks()[i].start);
    EXPECT_DOUBLE_EQ(read.value()[i].end, instance.tasks()[i].end);
    EXPECT_DOUBLE_EQ(read.value()[i].beta, instance.tasks()[i].beta);
  }
}

TEST(CsvTest, WorkerRoundTripIncludingCones) {
  core::Instance instance = rdbsc::test::SmallInstance(2, 0, 25);
  std::vector<core::Worker> workers = instance.workers();
  workers[0].direction = geo::AngularInterval::FullCircle();
  workers[1].direction = geo::AngularInterval(6.0, 0.4);  // seam-crossing
  workers[2].available_from = 3.25;
  std::string path = TempPath("workers_rt.csv");
  ASSERT_TRUE(WriteWorkersCsv(path, workers).ok());
  auto read = ReadWorkersCsv(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), workers.size());
  for (size_t j = 0; j < workers.size(); ++j) {
    EXPECT_DOUBLE_EQ(read.value()[j].velocity, workers[j].velocity);
    EXPECT_DOUBLE_EQ(read.value()[j].confidence, workers[j].confidence);
    EXPECT_DOUBLE_EQ(read.value()[j].available_from,
                     workers[j].available_from);
    EXPECT_NEAR(read.value()[j].direction.lo(), workers[j].direction.lo(),
                1e-12);
    EXPECT_NEAR(read.value()[j].direction.width(),
                workers[j].direction.width(), 1e-9);
  }
}

TEST(CsvTest, AssignmentRoundTrip) {
  core::Assignment assignment(5);
  assignment.Assign(0, 2);
  assignment.Assign(3, 1);
  std::string path = TempPath("assignment_rt.csv");
  ASSERT_TRUE(WriteAssignmentCsv(path, assignment).ok());
  auto read = ReadAssignmentCsv(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().num_workers(), 5);
  for (core::WorkerId j = 0; j < 5; ++j) {
    EXPECT_EQ(read.value().TaskOf(j), assignment.TaskOf(j));
  }
}

TEST(CsvTest, InstanceRoundTripPreservesValidPairs) {
  core::Instance instance = rdbsc::test::SmallInstance(3, 15, 30);
  std::string tasks_path = TempPath("inst_tasks.csv");
  std::string workers_path = TempPath("inst_workers.csv");
  ASSERT_TRUE(WriteTasksCsv(tasks_path, instance.tasks()).ok());
  ASSERT_TRUE(WriteWorkersCsv(workers_path, instance.workers()).ok());
  auto loaded = ReadInstanceCsv(tasks_path, workers_path);
  ASSERT_TRUE(loaded.ok());
  core::CandidateGraph original = core::CandidateGraph::Build(instance);
  core::CandidateGraph reloaded =
      core::CandidateGraph::Build(loaded.value());
  ASSERT_EQ(original.NumEdges(), reloaded.NumEdges());
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    EXPECT_TRUE(std::ranges::equal(original.TasksOf(j), reloaded.TasksOf(j)))
        << "worker " << j;
  }
}

TEST(CsvTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadTasksCsv("/nonexistent/nope.csv").status().code(),
            util::StatusCode::kNotFound);
}

TEST(CsvTest, WrongColumnCountRejected) {
  std::string path = TempPath("bad_cols.csv");
  WriteFile(path, "x,y,start,end,beta\n0.1,0.2,0.3\n");
  auto read = ReadTasksCsv(path);
  EXPECT_EQ(read.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CsvTest, MalformedNumberRejectedWithLine) {
  std::string path = TempPath("bad_num.csv");
  WriteFile(path, "x,y,start,end,beta\n0.1,0.2,0.3,0.4,0.5\n0.1,oops,0,1,0.5\n");
  auto read = ReadTasksCsv(path);
  ASSERT_EQ(read.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("line 3"), std::string::npos);
}

TEST(CsvTest, EmptyBodyGivesEmptyVector) {
  std::string path = TempPath("empty.csv");
  WriteFile(path, "x,y,start,end,beta\n");
  auto read = ReadTasksCsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().empty());
}

TEST(CsvTest, InvalidInstanceRejectedOnLoad) {
  std::string tasks_path = TempPath("bad_inst_tasks.csv");
  std::string workers_path = TempPath("bad_inst_workers.csv");
  WriteFile(tasks_path, "x,y,start,end,beta\n0.5,0.5,2.0,1.0,0.5\n");  // end<start
  WriteFile(workers_path,
            "x,y,velocity,dir_lo,dir_hi,confidence,available_from\n");
  auto loaded = ReadInstanceCsv(tasks_path, workers_path);
  EXPECT_FALSE(loaded.ok());
}

TEST(CsvTest, AssignmentOutOfRangeWorkerRejected) {
  std::string path = TempPath("bad_assign.csv");
  WriteFile(path, "worker,task\n0,1\n7,2\n");
  auto read = ReadAssignmentCsv(path);
  EXPECT_EQ(read.status().code(), util::StatusCode::kInvalidArgument);
}

// Every id is checked before it is cast: NaN, infinities, out-of-range
// values, fractions, task ids below -1 and a repeated worker row are each
// rejected with the line of the bad row.
TEST(CsvTest, AssignmentBadIdsRejectedWithLine) {
  const struct {
    const char* bad_row;
    const char* want;
  } cases[] = {
      {"nan,1", "line 4: worker = nan"},
      {"inf,1", "line 4: worker = inf"},
      {"1e10,1", "line 4: worker = 1e+10"},
      {"1.5,1", "line 4: worker = 1.5"},
      {"2,-7", "line 4: task = -7"},
      {"2,nan", "line 4: task = nan"},
      {"2,1e10", "line 4: task = 1e+10"},
      {"2,0.5", "line 4: task = 0.5"},
      {"0,2", "line 4: worker 0 repeats line 2"},
  };
  for (const auto& c : cases) {
    const std::string path = TempPath("bad_ids.csv");
    WriteFile(path, std::string("worker,task\n0,1\n1,-1\n") + c.bad_row +
                        "\n");
    auto read = ReadAssignmentCsv(path);
    ASSERT_EQ(read.status().code(), util::StatusCode::kInvalidArgument)
        << c.bad_row;
    EXPECT_EQ(read.status().message().rfind(c.want, 0), 0u)
        << c.bad_row << ": " << read.status().message();
  }
}

}  // namespace
}  // namespace rdbsc::io
