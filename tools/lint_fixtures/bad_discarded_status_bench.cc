// Fixture: the discarded-status shapes a bench loop produces. bench/ and
// examples/ are linted like src/, so a maintenance call whose failure is
// dropped must be flagged there too.
// Never compiled -- parsed by tools/lint_invariants.py --self-test.
#include "util/status.h"

void Churn(DeltaGraph& delta, GridIndex& index, bool delta_mode) {
  for (WorkerId j = 0; j < n; ++j) {
    delta.AddRow(j).ok();  // EXPECT-LINT(discarded-status)
  }
  delta.RepairRows(index).ok();  // EXPECT-LINT(discarded-status)
  for (const auto& [j, to] : moves) {
    index.MoveWorker(j, to).ok();  // EXPECT-LINT(discarded-status)
    if (delta_mode) delta.MarkRowDirty(j).ok();  // EXPECT-LINT(discarded-status)
  }
}

// Routing the Status to a handler that aborts on failure is fine.
void ChurnChecked(DeltaGraph& delta, GridIndex& index) {
  OrDie(delta.AddRow(0), "DeltaGraph::AddRow");
  OrDie(index.MoveWorker(0, to), "GridIndex::MoveWorker");
  if (!delta.RepairRows(index).ok()) std::exit(1);
}
