#include "io/csv.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "geo/angle.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

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

// --- Seeded-mutation fuzz of the readers -----------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Lines std::getline yields for `text`.
int LineCount(const std::string& text) {
  int lines = static_cast<int>(std::count(text.begin(), text.end(), '\n'));
  return !text.empty() && text.back() != '\n' ? lines + 1 : lines;
}

// One to four random edits of `text`: deletions, truncation, line
// duplication, raw bytes (NUL included) and tokens that trip number
// parsers (overflow, underflow, nan, hex, stray separators).
std::string Mutate(std::string text, util::Rng& rng) {
  static const char* const kTokens[] = {
      ",",      "\n",   "\r\n", "\r",  " ",     "\t",         "nan",
      "-nan",   "inf",   "-inf",   "1e999", "-1e999", "1e-400", "0x1p3",
      "-",      "+",     ".",      "e",     "--1",    "-1",     "1.5",
      "2147483648",      "-2147483649",     "4294967295",         "",
  };
  const int edits = static_cast<int>(rng.UniformInt(1, 4));
  for (int e = 0; e < edits; ++e) {
    const auto pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(text.size())));
    switch (rng.UniformInt(0, 5)) {
      case 0:
        text.erase(pos, static_cast<size_t>(rng.UniformInt(1, 3)));
        break;
      case 1:
        text.insert(pos, kTokens[rng.UniformInt(0, std::ssize(kTokens) - 1)]);
        break;
      case 2:
        if (pos < text.size()) {
          text[pos] = static_cast<char>(rng.UniformInt(0, 255));
        }
        break;
      case 3: {
        size_t begin = text.rfind('\n', pos == 0 ? 0 : pos - 1);
        begin = begin == std::string::npos ? 0 : begin + 1;
        size_t end = text.find('\n', pos);
        end = end == std::string::npos ? text.size() : end + 1;
        text.insert(end, text.substr(begin, end - begin));
        break;
      }
      case 4:
        text.resize(pos);
        break;
      default:
        text.insert(pos, 1, ',');
        break;
    }
  }
  return text;
}

// A reader's verdict on a mutated file: a parse, or InvalidArgument naming
// one of the file's lines ("line N: ...").
template <typename T>
void ExpectParsedOrLineError(const util::StatusOr<T>& result,
                             const std::string& text, const char* reader) {
  if (result.ok()) return;
  const std::string& message = result.status().message();
  ASSERT_EQ(result.status().code(), util::StatusCode::kInvalidArgument)
      << reader << ": " << message;
  int line = 0;
  int consumed = 0;
  ASSERT_EQ(std::sscanf(message.c_str(), "line %d: %n", &line, &consumed), 1)
      << reader << ": '" << message << "'";
  EXPECT_GT(consumed, 0) << reader << ": '" << message << "'";
  EXPECT_GE(line, 2) << reader << ": " << message;  // line 1 is the header
  EXPECT_LE(line, LineCount(text)) << reader << ": " << message;
}

class CsvFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CsvFuzzTest, MutatedFilesParseOrFailWithLine) {
  const core::Instance instance = test::SmallInstance(GetParam(), 6, 9);
  core::Assignment assignment(instance.num_workers());
  for (core::WorkerId j = 0; j < instance.num_workers(); j += 2) {
    assignment.Assign(j, j % instance.num_tasks());
  }
  const std::string tag = std::to_string(GetParam());
  const std::string tasks_path = TempPath("fuzz_tasks_" + tag + ".csv");
  const std::string workers_path = TempPath("fuzz_workers_" + tag + ".csv");
  const std::string pairs_path = TempPath("fuzz_pairs_" + tag + ".csv");
  ASSERT_TRUE(WriteTasksCsv(tasks_path, instance.tasks()).ok());
  ASSERT_TRUE(WriteWorkersCsv(workers_path, instance.workers()).ok());
  ASSERT_TRUE(WriteAssignmentCsv(pairs_path, assignment).ok());
  const std::string tasks = ReadFile(tasks_path);
  const std::string workers = ReadFile(workers_path);
  const std::string pairs = ReadFile(pairs_path);

  util::Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u);
  for (int trial = 0; trial < 250; ++trial) {
    const std::string bad_tasks = Mutate(tasks, rng);
    const std::string bad_workers = Mutate(workers, rng);
    const std::string bad_pairs = Mutate(pairs, rng);
    WriteFile(tasks_path, bad_tasks);
    WriteFile(workers_path, bad_workers);
    WriteFile(pairs_path, bad_pairs);
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto read_tasks = ReadTasksCsv(tasks_path);
    ExpectParsedOrLineError(read_tasks, bad_tasks, "tasks");
    auto read_workers = ReadWorkersCsv(workers_path);
    ExpectParsedOrLineError(read_workers, bad_workers, "workers");
    ExpectParsedOrLineError(ReadAssignmentCsv(pairs_path), bad_pairs,
                            "pairs");
    // A parsed pair of files either loads or fails Instance::Validate.
    auto loaded = ReadInstanceCsv(tasks_path, workers_path);
    if (read_tasks.ok() && read_workers.ok() && !loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
          << loaded.status().message();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace rdbsc::io
