#!/usr/bin/env python3
"""Invariant linter for the RDB-SC tree.

Enforces repo-specific concurrency and determinism contracts that neither
the compiler nor clang-tidy can express:

  unordered-iter          Range-for over a std::unordered_{map,set} in the
                          solver/engine/index/sim sources. Iteration order
                          of those containers is unspecified and leaks into
                          SolveResult contents, fingerprints, and stats,
                          breaking the bit-identical determinism contract.
                          Collect keys, sort, then iterate -- or justify
                          with a LINT-ALLOW.
  missing-deadline-poll   Every solver SolveImpl body in src/core (plus the
                          batched kernel row driver ValidPairsRows in
                          src/core/kernels.* and the Figure-5 body
                          SampleRows in src/core/sampling.*, which D&C
                          leaves reach without a SolveImpl) must poll its
                          util::Deadline (Exhausted()/Check()) or forward
                          it into a helper that does. A solver or kernel
                          loop that ignores the deadline cannot be
                          cancelled or budget-limited.
  ambient-time            No wall-clock reads (time(), system_clock) in
                          src/core, src/index, src/engine, src/obs,
                          src/sim, or src/wl. Wall time is
                          non-reproducible; std::chrono::steady_clock is
                          fine for durations.
  ambient-rng             No ambient randomness (rand()/srand()/
                          std::random_device) in src/core, src/index,
                          src/engine, src/obs, src/sim, or src/wl. All
                          randomized algorithms must draw
                          from an explicitly seeded engine so runs replay.
  unguarded-mutex         No naked std::mutex members (use util::Mutex from
                          util/mutex.h so -Wthread-safety sees it), and
                          every util::Mutex member must have at least one
                          GUARDED_BY companion in the same file.
  discarded-status        No statement made only of a call chain ending in
                          `.ok();` (for example `registry.Register(...)
                          .ok();`) anywhere in src, bench or examples. It
                          reads as a check but drops the Status: handle the
                          error, return it, or abort with its message.

Suppress a finding with a justification on the same or previous line:

    // LINT-ALLOW(rule-name): why this occurrence is safe

The reason is mandatory; a bare LINT-ALLOW does not suppress.

Usage:
    lint_invariants.py [--root DIR]     lint DIR/{src,bench,examples}
                                        (default: repo root)
    lint_invariants.py --self-test      run against tools/lint_fixtures/

Self-test mode applies every rule to each fixture file regardless of path
scoping. Lines annotated `// EXPECT-LINT(rule-name)` must produce exactly
that finding; any unexpected or missing finding fails the self-test.

Exit status: 0 when clean, 1 on findings (or self-test mismatch), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

ALLOW_RE = re.compile(r"LINT-ALLOW\((?P<rule>[a-z-]+)\)\s*:\s*(?P<reason>\S.*)")
EXPECT_RE = re.compile(r"EXPECT-LINT\((?P<rule>[a-z-]+)\)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving layout.

    Every replaced character becomes a space (newlines survive), so byte
    offsets and line numbers in the result match the original text.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = " "
                    if text[i + 1] != "\n":
                        out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_balanced(text: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    """Returns the offset just past the delimiter matching text[open_pos]."""
    depth = 0
    i = open_pos
    n = len(text)
    while i < n:
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


class SourceFile:
    def __init__(self, path: Path, display: Path | None = None):
        self.path = path
        self.display = display if display is not None else path
        self.raw = path.read_text(encoding="utf-8")
        self.raw_lines = self.raw.splitlines()
        self.code = strip_comments_and_strings(self.raw)
        self.code_lines = self.code.splitlines()
        # Unordered-container member names contributed by the sibling
        # header (x.cc iterating a member declared in x.h).
        self.extra_unordered_names: set[str] = set()

    def allowed(self, line: int, rule: str) -> bool:
        """True when line (1-based) or the one above carries a matching
        LINT-ALLOW with a non-empty reason."""
        for candidate in (line, line - 1):
            if 1 <= candidate <= len(self.raw_lines):
                m = ALLOW_RE.search(self.raw_lines[candidate - 1])
                if m and m.group("rule") == rule:
                    return True
        return False


# ---------------------------------------------------------------------------
# Rule: unordered-iter
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
FOR_RE = re.compile(r"\bfor\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def unordered_names(src: SourceFile) -> set[str]:
    """Names declared in this file with an unordered container type."""
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(src.code):
        lt = src.code.index("<", m.end() - 1)
        end = match_balanced(src.code, lt, "<", ">")
        # The declared name is the first identifier after the closing '>'
        # (skipping cv-qualifiers and reference/pointer tokens).
        rest = src.code[end:]
        for ident in IDENT_RE.finditer(rest):
            word = ident.group(0)
            if word in ("const", "mutable", "static", "inline", "typename"):
                continue
            # Stop at statement/declaration boundaries before any name.
            boundary = rest[: ident.start()]
            if any(ch in boundary for ch in ";{}()"):
                break
            names.add(word)
            break
    return names


def check_unordered_iter(src: SourceFile) -> list[Finding]:
    names = unordered_names(src) | src.extra_unordered_names
    if not names:
        return []
    findings = []
    for m in FOR_RE.finditer(src.code):
        open_paren = src.code.index("(", m.end() - 1)
        close = match_balanced(src.code, open_paren, "(", ")")
        header = src.code[open_paren + 1 : close - 1]
        if ";" in header:  # classic for, not range-for
            continue
        colon = header.find(":")
        if colon < 0:
            continue
        range_expr = header[colon + 1 :]
        if range_expr.lstrip().startswith("{"):
            continue  # braced init-list: element order is as written
        used = []
        for ident in IDENT_RE.finditer(range_expr):
            if ident.group(0) not in names:
                continue
            # m[k] / m.at(k) pick one element; only iterating the
            # container itself is order-sensitive.
            rest = range_expr[ident.end() :].lstrip()
            if rest.startswith("[") or rest.startswith("("):
                continue
            used.append(ident.group(0))
        if not used:
            continue
        line = line_of(src.code, m.start())
        if src.allowed(line, "unordered-iter"):
            continue
        findings.append(
            Finding(
                src.display,
                line,
                "unordered-iter",
                f"range-for over unordered container '{used[0]}'; iteration "
                "order is unspecified and breaks determinism -- collect and "
                "sort keys first, or add LINT-ALLOW(unordered-iter) with a "
                "reason",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Rule: missing-deadline-poll
# ---------------------------------------------------------------------------

# SolveImpl: the solver entry points. ValidPairsRows: the batched kernel
# row driver (core/kernels.cc) that owns the innermost O(m*n) loop -- it
# must poll between row blocks or graph builds become uncancellable.
# SampleRows: sampling's body (core/sampling.cc), which every D&C leaf
# calls directly -- it must poll between samples or a D&C budget stops
# only between leaves.
SOLVEIMPL_RE = re.compile(r"\b(?:SolveImpl|ValidPairsRows|SampleRows)\s*\(")
DEADLINE_USE_RE = re.compile(r"\bdeadline\b")


def check_missing_deadline_poll(src: SourceFile) -> list[Finding]:
    findings = []
    for m in SOLVEIMPL_RE.finditer(src.code):
        open_paren = src.code.index("(", m.end() - 1)
        params_end = match_balanced(src.code, open_paren, "(", ")")
        # Skip qualifiers (const, override, noexcept...) up to '{' or ';'.
        i = params_end
        while i < len(src.code) and src.code[i] not in "{;":
            i += 1
        if i >= len(src.code) or src.code[i] == ";":
            continue  # declaration, not a definition
        body_end = match_balanced(src.code, i, "{", "}")
        body = src.code[i:body_end]
        if DEADLINE_USE_RE.search(body):
            continue
        line = line_of(src.code, m.start())
        if src.allowed(line, "missing-deadline-poll"):
            continue
        findings.append(
            Finding(
                src.display,
                line,
                "missing-deadline-poll",
                "SolveImpl/ValidPairsRows/SampleRows body never polls or "
                "forwards its "
                "Deadline; the solver cannot be cancelled or budget-limited",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Rules: ambient-time / ambient-rng
# ---------------------------------------------------------------------------

AMBIENT_TIME_RE = re.compile(r"\btime\s*\(|\bsystem_clock\b")
AMBIENT_RNG_RE = re.compile(r"\brand\s*\(|\bsrand\s*\(|\brandom_device\b")


def check_ambient(src: SourceFile) -> list[Finding]:
    findings = []
    for rule, pattern, what in (
        ("ambient-time", AMBIENT_TIME_RE, "wall-clock read"),
        ("ambient-rng", AMBIENT_RNG_RE, "ambient randomness"),
    ):
        for m in pattern.finditer(src.code):
            line = line_of(src.code, m.start())
            if src.allowed(line, rule):
                continue
            token = m.group(0).strip()
            findings.append(
                Finding(
                    src.display,
                    line,
                    rule,
                    f"{what} '{token}' in a deterministic solve path; use "
                    "steady_clock for durations and explicitly seeded "
                    "engines for randomness",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Rule: unguarded-mutex
# ---------------------------------------------------------------------------

STD_MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::(?:mutex|shared_mutex|recursive_mutex)\s+"
    r"(\w+)\s*;",
    re.MULTILINE,
)
UTIL_MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:util::)?Mutex\s+(\w+)\s*;",
    re.MULTILINE,
)


def check_unguarded_mutex(src: SourceFile) -> list[Finding]:
    findings = []
    for m in STD_MUTEX_DECL_RE.finditer(src.code):
        line = line_of(src.code, m.start(1))
        if src.allowed(line, "unguarded-mutex"):
            continue
        findings.append(
            Finding(
                src.display,
                line,
                "unguarded-mutex",
                f"naked std::mutex member '{m.group(1)}'; use util::Mutex "
                "(util/mutex.h) so -Wthread-safety can check the lock "
                "discipline",
            )
        )
    for m in UTIL_MUTEX_DECL_RE.finditer(src.code):
        name = m.group(1)
        if re.search(r"GUARDED_BY\(\s*(?:\w+(?:\.|->))?" + re.escape(name) + r"\s*\)",
                     src.code):
            continue
        line = line_of(src.code, m.start(1))
        if src.allowed(line, "unguarded-mutex"):
            continue
        findings.append(
            Finding(
                src.display,
                line,
                "unguarded-mutex",
                f"mutex member '{name}' has no GUARDED_BY companion in this "
                "file; annotate the state it protects or add "
                "LINT-ALLOW(unguarded-mutex) with a reason",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Rule: discarded-status
# ---------------------------------------------------------------------------

OK_CALL_END_RE = re.compile(r"\.\s*ok\s*\(\s*\)\s*;")
STATEMENT_KEYWORDS = ("return", "co_return", "co_yield", "throw", "case")


def match_balanced_back(text: str, close_pos: int) -> int:
    """Returns the offset of the bracket opening the one at text[close_pos]."""
    close_ch = text[close_pos]
    open_ch = "(" if close_ch == ")" else "["
    depth = 0
    for i in range(close_pos, -1, -1):
        if text[i] == close_ch:
            depth += 1
        elif text[i] == open_ch:
            depth -= 1
            if depth == 0:
                return i
    return 0


def expression_start(code: str, end: int) -> int:
    """Walks back from `end` over one postfix expression: names, member
    access (. -> ::), whitespace and balanced (...) / [...] groups."""
    i = end
    while i > 0:
        c = code[i - 1]
        if c.isalnum() or c in "_.:" or c.isspace():
            i -= 1
        elif c == ">" and i >= 2 and code[i - 2] == "-":
            i -= 2
        elif c in ")]":
            i = match_balanced_back(code, i - 1)
        else:
            break
    return i


def check_discarded_status(src: SourceFile) -> list[Finding]:
    findings = []
    for m in OK_CALL_END_RE.finditer(src.code):
        start = expression_start(src.code, m.start())
        if start > 0 and src.code[start - 1] not in ";{}":
            continue  # assigned, negated, passed on, ...
        words = IDENT_RE.findall(src.code[start : m.start()])
        if not words or words[0] in STATEMENT_KEYWORDS:
            continue
        line = line_of(src.code, m.start())
        if src.allowed(line, "discarded-status"):
            continue
        findings.append(
            Finding(
                src.display,
                line,
                "discarded-status",
                "statement discards the Status it checks with '.ok();'; "
                "handle or propagate the error, or abort with its message",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Scoping and driver
# ---------------------------------------------------------------------------

# rule -> directories (relative to root) it applies to. unguarded-mutex
# skips util/mutex.h itself (it *defines* the annotated wrappers).
RULE_SCOPES = {
    "unordered-iter": ("src/core", "src/engine", "src/sim", "src/index",
                       "src/obs", "src/wl"),
    "missing-deadline-poll": ("src/core", "src/index"),
    # src/wl compiles *all* workload randomness ahead of replay and its
    # fingerprints must be wall-clock free, so it inherits the ambient
    # rules: schedules draw only from util::Rng streams seeded by the
    # spec, and replay may touch steady_clock (pacing/latency) but never
    # system_clock/time(). src/sim joined with the streaming delta engine
    # (events.h / streaming.* and the delta-maintained platform tick):
    # event application and round trajectories must replay bit-identically,
    # so the simulator draws only from seeded util::Rng streams too.
    "ambient-time": ("src/core", "src/engine", "src/index", "src/obs",
                     "src/sim", "src/wl"),
    "ambient-rng": ("src/core", "src/engine", "src/index", "src/obs",
                    "src/sim", "src/wl"),
    "unguarded-mutex": ("src",),
    "discarded-status": ("src", "bench", "examples"),
}

LINTED_DIRS = ("src", "bench", "examples")

UNGUARDED_MUTEX_EXEMPT = ("src/util/mutex.h", "src/util/thread_annotations.h")

RULE_CHECKS = {
    "unordered-iter": check_unordered_iter,
    "missing-deadline-poll": check_missing_deadline_poll,
    "ambient-time": check_ambient,  # shared checker, filtered below
    "ambient-rng": check_ambient,
    "unguarded-mutex": check_unguarded_mutex,
    "discarded-status": check_discarded_status,
}


def rules_for(rel: str) -> list[str]:
    rules = []
    for rule, scopes in RULE_SCOPES.items():
        if not any(rel == s or rel.startswith(s + "/") for s in scopes):
            continue
        if rule == "unguarded-mutex" and rel in UNGUARDED_MUTEX_EXEMPT:
            continue
        rules.append(rule)
    return rules


def run_rules(src: SourceFile, rules: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    ambient_done = False
    for rule in rules:
        if rule in ("ambient-time", "ambient-rng"):
            if ambient_done:
                continue
            ambient_done = True
            wanted = {r for r in rules if r in ("ambient-time", "ambient-rng")}
            findings.extend(
                f for f in check_ambient(src) if f.rule in wanted
            )
        else:
            findings.extend(RULE_CHECKS[rule](src))
    return findings


def lint_tree(root: Path) -> int:
    findings: list[Finding] = []
    paths = sorted(p for top in LINTED_DIRS for p in (root / top).rglob("*"))
    for path in paths:
        if path.suffix not in (".h", ".cc", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        rules = rules_for(rel)
        if not rules:
            continue
        src = SourceFile(path, display=Path(rel))
        if path.suffix == ".cc":
            sibling = path.with_suffix(".h")
            if sibling.is_file():
                src.extra_unordered_names = unordered_names(
                    SourceFile(sibling))
        findings.extend(run_rules(src, rules))
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


def self_test(fixtures: Path) -> int:
    all_rules = list(RULE_CHECKS)
    failures = 0
    files = sorted(fixtures.glob("*.cc")) + sorted(fixtures.glob("*.h"))
    if not files:
        print(f"self-test: no fixtures under {fixtures}", file=sys.stderr)
        return 2
    for path in files:
        src = SourceFile(path)
        found = {(f.line, f.rule) for f in run_rules(src, all_rules)}
        expected = set()
        for i, raw in enumerate(src.raw_lines, start=1):
            for m in EXPECT_RE.finditer(raw):
                expected.add((i, m.group("rule")))
        for line, rule in sorted(expected - found):
            print(f"self-test FAIL {path.name}:{line}: expected [{rule}] "
                  "but the linter stayed silent")
            failures += 1
        for line, rule in sorted(found - expected):
            print(f"self-test FAIL {path.name}:{line}: unexpected [{rule}]")
            failures += 1
    if failures:
        print(f"self-test: {failures} mismatch(es)", file=sys.stderr)
        return 1
    print(f"self-test: {len(files)} fixture(s) behaved as annotated")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the known-bad fixtures and verify each "
                             "EXPECT-LINT annotation fires")
    args = parser.parse_args()
    if args.self_test:
        return self_test(Path(__file__).resolve().parent / "lint_fixtures")
    if not (args.root / "src").is_dir():
        print(f"error: {args.root}/src is not a directory", file=sys.stderr)
        return 2
    return lint_tree(args.root)


if __name__ == "__main__":
    sys.exit(main())
