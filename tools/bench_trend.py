#!/usr/bin/env python3
"""Trend diff for two BENCH_*.json results documents.

Compares a BEFORE and an AFTER document produced by the bench harness
(bench/harness.h, BenchReport --out=FILE; schema rdbsc-bench-results v1,
validated by tools/check_bench_json.py) and prints per-table deltas:

  - tables are matched by (metric, x_label); rows and columns by label, so
    documents produced at different sweep scales only compare the labels
    they share (dropped labels are reported, never silently ignored);
  - every shared cell prints before, after, and the relative delta;
  - with --max-regression=PCT the script exits 1 when any lower-is-better
    cell regressed by more than PCT percent. A column is lower-is-better
    when its table metric or column label mentions seconds/time ("(s)",
    "time", "seconds"); other columns (speedups, fractions, reliabilities)
    are informational only;
  - the "metrics" sections are matched by metric name and labels, and every
    shared metric prints before, after and the relative delta of its value
    (counters, gauges) or of its count, avg and p90 (histograms). These
    deltas are informational only and never change the exit status.

This is the consumer of the tentpole's before/after speedup claim: the
checked-in bench/results/BENCH_*.before.json / *.after.json pairs are
summarized with exactly this tool.

Usage:
    bench_trend.py BEFORE AFTER [--max-regression=PCT] [--table=SUBSTR]
    bench_trend.py --self-test

Exit status: 0 on success (no regression beyond the threshold), 1 when the
threshold is exceeded (or self-test mismatch), 2 on usage errors, schema
mismatches, or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA_NAME = "rdbsc-bench-results"
SCHEMA_VERSION = 1

LOWER_IS_BETTER_HINTS = ("(s)", "time", "seconds")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_document(path: Path):
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"error: cannot read {path}: {err}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_NAME or \
            doc.get("schema_version") != SCHEMA_VERSION:
        raise SystemExit(
            f"error: {path} is not a {SCHEMA_NAME} v{SCHEMA_VERSION} "
            "document (run tools/check_bench_json.py for details)")
    return doc


def lower_is_better(metric: str, column: str) -> bool:
    text = f"{metric} {column}".lower()
    return any(hint in text for hint in LOWER_IS_BETTER_HINTS)


def table_key(table) -> tuple[str, str]:
    return (table.get("metric", ""), table.get("x_label", ""))


def metric_key(metric) -> tuple[str, tuple]:
    labels = metric.get("labels") or {}
    return (metric.get("name", ""), tuple(sorted(labels.items())))


def metric_label(key: tuple[str, tuple]) -> str:
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


# The fields of each metric kind that bench_trend diffs.
METRIC_FIELDS = {
    "counter": ("value",),
    "gauge": ("value",),
    "histogram": ("count", "avg", "p90"),
}


def format_delta(before: float, after: float) -> str:
    if before is None or after is None:
        return "n/a"
    if before == 0.0:
        return "n/a" if after == 0.0 else "inf"
    return f"{(after - before) / before * 100.0:+8.1f}%"


class TrendReport:
    """Accumulates the printed diff and any threshold regressions."""

    def __init__(self, max_regression_pct: float | None,
                 table_filter: str | None):
        self.max_regression_pct = max_regression_pct
        self.table_filter = table_filter
        self.lines: list[str] = []
        self.regressions: list[str] = []
        self.compared_tables = 0

    def note(self, line: str) -> None:
        self.lines.append(line)

    def diff_documents(self, before, after) -> None:
        if before.get("bench") != after.get("bench"):
            self.note(f"note: bench names differ "
                      f"({before.get('bench')!r} vs {after.get('bench')!r})")
        before_tables = {table_key(t): t for t in before.get("tables", [])}
        after_tables = {table_key(t): t for t in after.get("tables", [])}
        for key, table in before_tables.items():
            if self.table_filter and self.table_filter not in key[0]:
                continue
            if key not in after_tables:
                self.note(f"table dropped in AFTER: {key[0]!r}")
                continue
            self.diff_table(table, after_tables[key])
        for key in after_tables:
            if self.table_filter and self.table_filter not in key[0]:
                continue
            if key not in before_tables:
                self.note(f"table only in AFTER (skipped): {key[0]!r}")
        self.diff_metrics(before.get("metrics") or [],
                          after.get("metrics") or [])

    def diff_metrics(self, before, after) -> None:
        """Informational per-metric deltas; never a regression."""
        before_metrics = {metric_key(m): m for m in before}
        after_metrics = {metric_key(m): m for m in after}
        shared = [k for k in before_metrics if k in after_metrics]
        if not shared:
            return
        self.note("\n-- metrics (informational) --")
        only_before = len(before_metrics) - len(shared)
        only_after = len(after_metrics) - len(shared)
        if only_before or only_after:
            self.note(f"  unmatched: {only_before} only in BEFORE, "
                      f"{only_after} only in AFTER")
        for key in shared:
            b, a = before_metrics[key], after_metrics[key]
            kind = b.get("kind")
            if kind != a.get("kind"):
                self.note(f"  {metric_label(key)}: kind {kind!r} vs "
                          f"{a.get('kind')!r}")
                continue
            for field in METRIC_FIELDS.get(kind, ()):
                bv = b.get(field) if _is_number(b.get(field)) else None
                av = a.get(field) if _is_number(a.get(field)) else None
                fmt = (lambda v: "null" if v is None else f"{v:12.6g}")
                self.note(f"  {metric_label(key)} {field}: "
                          f"before={fmt(bv):>12} after={fmt(av):>12} "
                          f"delta={format_delta(bv, av)}")

    def diff_table(self, before, after) -> None:
        self.compared_tables += 1
        metric = before.get("metric", "")
        x_label = before.get("x_label", "")
        self.note(f"\n-- {metric} (by {x_label}) --")
        b_rows = {r: i for i, r in enumerate(before.get("rows", []))}
        a_rows = {r: i for i, r in enumerate(after.get("rows", []))}
        b_cols = {c: i for i, c in enumerate(before.get("columns", []))}
        a_cols = {c: i for i, c in enumerate(after.get("columns", []))}
        for label, rows in (("rows", (b_rows, a_rows)),
                            ("columns", (b_cols, a_cols))):
            only_before = sorted(set(rows[0]) - set(rows[1]))
            only_after = sorted(set(rows[1]) - set(rows[0]))
            if only_before:
                self.note(f"  {label} only in BEFORE: {only_before}")
            if only_after:
                self.note(f"  {label} only in AFTER: {only_after}")
        shared_cols = [c for c in before.get("columns", []) if c in a_cols]
        shared_rows = [r for r in before.get("rows", []) if r in a_rows]
        for col in shared_cols:
            guarded = self.max_regression_pct is not None and \
                lower_is_better(metric, col)
            for row in shared_rows:
                b = before["cells"][b_rows[row]][b_cols[col]]
                a = after["cells"][a_rows[row]][a_cols[col]]
                if not _is_number(b):
                    b = None
                if not _is_number(a):
                    a = None
                delta = format_delta(b, a)
                fmt = (lambda v: "null" if v is None else f"{v:12.6g}")
                self.note(f"  {col:<16} {x_label}={row:<8} "
                          f"before={fmt(b):>12} after={fmt(a):>12} "
                          f"delta={delta}")
                if guarded and b is not None and a is not None and b > 0.0:
                    pct = (a - b) / b * 100.0
                    if pct > self.max_regression_pct:
                        self.regressions.append(
                            f"{metric} / {col} @ {x_label}={row}: "
                            f"{pct:+.1f}% > {self.max_regression_pct:.1f}%")

    def finish(self) -> int:
        for line in self.lines:
            print(line)
        if self.compared_tables == 0:
            print("error: no comparable tables between the two documents")
            return 2
        if self.regressions:
            print(f"\nREGRESSIONS ({len(self.regressions)} beyond "
                  f"{self.max_regression_pct:.1f}%):")
            for r in self.regressions:
                print(f"  {r}")
            return 1
        if self.max_regression_pct is not None:
            print(f"\nno lower-is-better cell regressed beyond "
                  f"{self.max_regression_pct:.1f}%")
        return 0


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def _doc(cells, columns=("build (s)", "speedup"), rows=("1000", "2000")):
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "bench": "selftest",
        "options": {"base": 1, "seeds": 1, "paper_scale": 1.0, "threads": 0},
        "tables": [{
            "metric": "timings",
            "x_label": "n",
            "rows": list(rows),
            "columns": list(columns),
            "cells": [list(r) for r in cells],
        }],
        "metrics": [],
    }


def self_test() -> int:
    failures = []

    def run(before, after, max_regression):
        report = TrendReport(max_regression, None)
        report.diff_documents(before, after)
        # Swallow the printed diff; only the exit code matters here.
        report.lines = []
        return report.finish()

    # Improvement on the seconds column, regression on the (unguarded)
    # speedup column: exit 0.
    before = _doc([[1.0, 1.0], [2.0, 1.0]])
    after = _doc([[0.5, 0.5], [1.0, 0.5]])
    if run(before, after, 10.0) != 0:
        failures.append("improvement flagged as regression")

    # 50% slowdown on the seconds column against a 10% threshold: exit 1.
    after_bad = _doc([[1.5, 1.0], [3.0, 1.0]])
    if run(before, after_bad, 10.0) != 1:
        failures.append("regression not flagged")

    # Same slowdown without a threshold: informational, exit 0.
    if run(before, after_bad, None) != 0:
        failures.append("thresholdless run should not fail")

    # Disjoint row labels still compare the shared row only.
    after_shift = _doc([[0.9, 1.0], [1.9, 1.0]], rows=("2000", "4000"))
    if run(before, after_shift, 10.0) != 0:
        failures.append("shared-row comparison failed")

    # No shared tables at all: usage error.
    after_other = _doc([[1.0, 1.0], [1.0, 1.0]])
    after_other["tables"][0]["metric"] = "something else"
    if run(before, after_other, None) != 2:
        failures.append("disjoint tables should be an error")

    # Metric deltas are matched by name and labels, printed, and never
    # change the exit status, however far they move.
    def histogram(labels, count, avg):
        return {"name": "sim.round_build_seconds", "labels": labels,
                "kind": "histogram", "count": count, "avg": avg,
                "p90": avg}
    before_m = _doc([[1.0, 1.0], [2.0, 1.0]])
    after_m = _doc([[1.0, 1.0], [2.0, 1.0]])
    before_m["metrics"] = [
        histogram({"t_interval": "1 min"}, 10, 0.5),
        histogram({"t_interval": "2 min"}, 10, 0.5),
        {"name": "sim.rounds", "labels": {}, "kind": "counter", "value": 4},
    ]
    after_m["metrics"] = [
        histogram({"t_interval": "1 min"}, 10, 5.0),
        histogram({"t_interval": "3 min"}, 10, 0.5),
        {"name": "sim.rounds", "labels": {}, "kind": "counter", "value": 4},
    ]
    report = TrendReport(10.0, None)
    report.diff_documents(before_m, after_m)
    printed = "\n".join(report.lines)
    report.lines = []
    if report.finish() != 0:
        failures.append("a metric delta changed the exit status")
    if "sim.round_build_seconds{t_interval=1 min} avg:" not in printed or \
            "+900.0%" not in printed:
        failures.append("matched histogram delta not printed")
    if "t_interval=2 min" in printed or "t_interval=3 min" in printed:
        failures.append("metrics with different labels were matched")
    if "sim.rounds value:" not in printed or \
            "1 only in BEFORE, 1 only in AFTER" not in printed:
        failures.append("counter delta or unmatched count not printed")

    # Delta formatting sanity.
    if format_delta(1.0, 1.5).strip() != "+50.0%":
        failures.append("delta formatting broke")
    if format_delta(0.0, 0.0) != "n/a" or format_delta(0.0, 1.0) != "inf":
        failures.append("zero-baseline handling broke")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    print("self-test: all trend-diff behaviors verified")
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="diff two rdbsc-bench-results documents")
    parser.add_argument("before", nargs="?", help="baseline BENCH_*.json")
    parser.add_argument("after", nargs="?", help="candidate BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=None,
                        metavar="PCT",
                        help="fail (exit 1) when a lower-is-better cell "
                             "regresses by more than PCT percent")
    parser.add_argument("--table", default=None, metavar="SUBSTR",
                        help="only diff tables whose metric contains SUBSTR")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the tool against embedded documents")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.before or not args.after:
        parser.error("BEFORE and AFTER documents are required")
    before = load_document(Path(args.before))
    after = load_document(Path(args.after))
    print(f"bench_trend: {args.before} -> {args.after}")
    report = TrendReport(args.max_regression, args.table)
    report.diff_documents(before, after)
    return report.finish()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
