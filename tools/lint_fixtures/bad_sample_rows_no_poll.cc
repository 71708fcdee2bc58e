// Fixture: a Figure-5 sampling body that never polls its Deadline must be
// flagged. D&C leaves call SampleRows directly, not through a SolveImpl,
// so a SampleRows that skips the between-samples poll lets a budget stop
// a D&C solve only between leaves. Never compiled -- parsed by
// lint_invariants.py --self-test.
#include <vector>

namespace util {
class Deadline;
class Executor;
class Status;
}  // namespace util

struct Instance;
struct SolverOptions;
struct WorkerRow;
struct RowSample;

// Body never mentions the deadline: every sample is scored whatever budget
// or cancellation the caller set.
util::Status SampleRows(  // EXPECT-LINT(missing-deadline-poll)
    const Instance& instance, std::vector<WorkerRow> rows,
    const SolverOptions& options, const util::Deadline& ignored,
    util::Executor& executor, RowSample* out) {
  for (int sample = 0; sample < 512; ++sample) {
    (void)instance;
    (void)rows;
    (void)options;
    (void)executor;
    (void)out;
  }
  return util::Status();
}

// Declarations (no body) and calls are fine.
util::Status SampleRows(const Instance& instance, std::vector<WorkerRow> rows,
                        const SolverOptions& options,
                        const util::Deadline& deadline,
                        util::Executor& executor, RowSample* out);

util::Status SolveLeaf(const Instance& instance, const util::Deadline& d,
                       util::Executor& executor, RowSample* out) {
  return SampleRows(instance, {}, SolverOptions{}, d, executor, out);
}
