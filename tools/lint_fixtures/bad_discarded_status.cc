// Fixture: a Status dropped by a bare `.ok();` statement must be flagged.
// Never compiled -- parsed by tools/lint_invariants.py --self-test.
#include "util/status.h"

void RegisterAll(Registry& registry) {
  registry
      .Register("greedy",
                [](const Options& options) {
                  return std::make_unique<Greedy>(options);
                })
      .ok();  // EXPECT-LINT(discarded-status)
  registry.Register("dc", nullptr).ok();  // EXPECT-LINT(discarded-status)
  if (ready) state->Flush()[0].ok();  // EXPECT-LINT(discarded-status)
}

// Checking, returning or storing the result is fine.
bool CheckedOk(Registry& registry) {
  util::Status status = registry.Register("x", nullptr);
  if (!status.ok()) return false;
  bool fine = status.ok();
  EXPECT_TRUE(registry.Register("z", nullptr).ok());
  auto check = [&status] { return status.ok(); };
  return fine && check() && registry.Register("y", nullptr).ok();
}
