#!/usr/bin/env python3
"""Vectorisation gate for the pair kernel's loops.

The O(m*n) pair test (src/core/kernels.cc) is fast only while GCC
vectorises its two hot loops in every AVX2 instance: the per-pair
classification (ClassifyLoop, in ClassifyAvx2<kWait, kFullCircle>) and
the per-block test that decides which task blocks a row classifies at all
(BlockTestLoop, in BlockTestAvx2). Nothing else notices when an edit turns
either loop scalar again: the edge sets stay identical, only slower. This
script recompiles kernels.cc with the flags the build tree uses (read from
its compile_commands.json) plus -fopt-info-vec-all, and fails unless GCC
reports each loop's `for` line vectorised inside each of its AVX2
instances.

It also fails when that compile command does not end up with
-ffp-contract=off: the project's bit-identity contracts (kernel == scalar
oracle, the golden digests) hold across ISAs only without FMA contraction.

-fopt-info-vec-all is -fopt-info-vec-optimized plus GCC's notes; the
per-function note "vectorized N loops in function." names the instance a
loop report belongs to, since every instance inlines the same source line.

Usage:
    check_vectorized.py --build-dir BUILD [--root ROOT]
    check_vectorized.py --self-test

Exit status: 0 when every instance is vectorised (or self-test passes),
1 when one is not or the contraction flag is missing, 2 on usage errors,
77 (reported as skipped by ctest) when the compiler is not GCC, the target
has no AVX2 instances, or the tree builds below -O3 (GCC 12 leaves the
loops scalar at -O2, whose "very-cheap" cost model rejects loops that
would need a scalar remainder).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

KERNEL = Path("src/core/kernels.cc")
SKIP = 77

# "<file>:<line>:<col>: optimized: loop vectorized using 32 byte vectors"
LOOP_RE = re.compile(r"^(?P<file>[^:]+):(?P<line>\d+):\d+: "
                     r"optimized: loop vectorized")
# "<file>:<line>:<col>: note: vectorized 1 loops in function."
FUNC_RE = re.compile(r"^(?P<file>[^:]+):(?P<line>\d+):\d+: note: "
                     r"vectorized (?P<count>\d+) loops in function\.")


# (always-inline loop body, AVX2 wrapper) pairs; every wrapper instance
# must vectorise its body's loop.
KERNEL_LOOPS = (("ClassifyLoop", "ClassifyAvx2"),
                ("BlockTestLoop", "BlockTestAvx2"))


def kernel_lines(source: str, loop: str = "ClassifyLoop",
                 avx2: str = "ClassifyAvx2") -> tuple[int, int, int]:
    """(`loop`'s `for` line, `avx2`'s line, `avx2` instances)."""
    lines = source.splitlines()
    loop_def = next((i for i, l in enumerate(lines)
                     if re.search(rf"\bvoid {loop}\(", l)), None)
    avx2_def = next((i for i, l in enumerate(lines)
                     if re.search(rf"\bvoid {avx2}\(", l)), None)
    if loop_def is None or avx2_def is None:
        raise SystemExit(f"error: {loop} or {avx2} not found in {KERNEL}")
    loop_for = next((i for i in range(loop_def, len(lines))
                     if re.match(r"\s*for \(", lines[i])), None)
    if loop_for is None:
        raise SystemExit(f"error: no loop in {loop} ({KERNEL})")
    instances = len(set(re.findall(rf"&{avx2}\b(?:<[^>]*>)?", source)))
    return loop_for + 1, avx2_def + 1, instances


def check_report(report: str, loop_line: int, func_line: int,
                 instances: int, avx2: str = "ClassifyAvx2") -> list[str]:
    """Problems found in GCC's -fopt-info-vec-all output; empty if none."""
    pending = 0   # loop_line vectorisations since the last function note
    found = []    # per AVX2 instance: its loop_line vectorisations
    for line in report.splitlines():
        m = LOOP_RE.match(line)
        if m and m["file"].endswith(KERNEL.name) and \
                int(m["line"]) == loop_line:
            pending += 1
            continue
        m = FUNC_RE.match(line)
        if m:
            if m["file"].endswith(KERNEL.name) and \
                    int(m["line"]) == func_line:
                found.append(pending)
            pending = 0
    problems = []
    if len(found) != instances:
        problems.append(f"expected {instances} {avx2} instances in "
                        f"the report, found {len(found)}")
    for i, count in enumerate(found):
        if count == 0:
            problems.append(f"{avx2} instance {i + 1} of {len(found)}:"
                            f" the loop at {KERNEL}:{loop_line} was not "
                            "vectorised")
    return problems


def check_kernels(report: str, source: str) -> tuple[list[str], list[str]]:
    """(problems, one summary line per loop) for every KERNEL_LOOPS pair."""
    problems, summary = [], []
    for loop, avx2 in KERNEL_LOOPS:
        loop_line, func_line, instances = kernel_lines(source, loop, avx2)
        problems += check_report(report, loop_line, func_line, instances,
                                 avx2)
        summary.append(f"{KERNEL}:{loop_line} ({loop}) vectorised in all "
                       f"{instances} {avx2} instances")
    return problems, summary


def contract_problems(flags: list[str]) -> list[str]:
    """Problems with the compile command's FP contraction; empty if none."""
    contract = [a for a in flags if a.startswith("-ffp-contract=")]
    if not contract or contract[-1] != "-ffp-contract=off":
        return [f"{KERNEL} does not build with -ffp-contract=off "
                f"(found {contract or 'no -ffp-contract flag'})"]
    return []


def compile_entry(build_dir: Path) -> dict:
    db = build_dir / "compile_commands.json"
    try:
        entries = json.loads(db.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"error: cannot read {db}: {err}")
    for entry in entries:
        if Path(entry["file"]).as_posix().endswith(KERNEL.as_posix()):
            return entry
    raise SystemExit(f"error: {KERNEL} is not in {db}")


def strip_outputs(args: list[str]) -> list[str]:
    """The compile command minus its object and dependency-file outputs."""
    out, skip = [], False
    for arg in args:
        if skip:
            skip = False
        elif arg in ("-o", "-MF", "-MT", "-MQ"):
            skip = True
        elif arg in ("-MD", "-MMD"):
            pass
        else:
            out.append(arg)
    return out


def gate(root: Path, build_dir: Path) -> int:
    entry = compile_entry(build_dir)
    args = entry.get("arguments") or shlex.split(entry["command"])
    args = strip_outputs(args)
    cwd = entry["directory"]
    compiler = args[0]
    flags = [a for a in args[1:] if a not in ("-c", entry["file"])]
    problems = contract_problems(flags)
    for problem in problems:
        print(f"error: {problem}")
    if problems:
        return 1

    macros = subprocess.run([compiler, *flags, "-dM", "-E", "-x", "c++",
                             os.devnull], cwd=cwd, capture_output=True,
                            text=True)
    if macros.returncode != 0:
        print(macros.stderr, file=sys.stderr)
        return 2
    defined = set(re.findall(r"^#define (\w+)", macros.stdout, re.M))
    if "__GNUC__" not in defined or "__clang__" in defined:
        print(f"skipped: {compiler} is not GCC; the gate reads GCC's "
              "-fopt-info report")
        return SKIP
    if "__x86_64__" not in defined:
        print("skipped: no AVX2 instances outside x86-64")
        return SKIP
    levels = [a for a in flags if re.fullmatch(r"-O\w*", a)]
    if not levels or levels[-1] not in ("-O3", "-Ofast"):
        print("skipped: the tree does not build at -O3, and GCC vectorises "
              "this loop only there")
        return SKIP

    source = (root / KERNEL).read_text()
    result = subprocess.run([*args, "-fopt-info-vec-all", "-o", os.devnull],
                            cwd=cwd, capture_output=True, text=True)
    if result.returncode != 0:
        print(result.stderr, file=sys.stderr)
        return 2
    problems, summary = check_kernels(result.stderr, source)
    for problem in problems:
        print(f"error: {problem}")
    if problems:
        return 1
    for line in summary:
        print(f"ok: {line}")
    return 0


def self_test() -> int:
    """The parser against hand-written reports."""
    def note(line, n):
        return f"src/core/kernels.cc:{line}:6: note: vectorized {n} loops " \
               "in function."

    def vec(line):
        return f"src/core/kernels.cc:{line}:24: optimized: loop vectorized " \
               "using 32 byte vectors"

    missed = "src/core/kernels.cc:10:24: missed: couldn't vectorize loop"
    good = "\n".join([missed, note(30, 0)] * 2 +
                     [vec(10), vec(10), note(40, 1)] * 2)
    cases = [
        ("all instances vectorised", good, 0),
        ("one instance scalar", "\n".join(
            [vec(10), note(40, 1), missed, note(40, 0)]), 1),
        ("another loop vectorised instead", "\n".join(
            [vec(10), note(40, 1), vec(12), note(40, 1)]), 1),
        ("an instance missing", "\n".join([vec(10), note(40, 1)]), 1),
        ("vectorised outside the instances", "\n".join(
            [vec(10), note(30, 1), vec(10), note(30, 1)]), 1),
    ]
    failures = 0
    for name, report, want in cases:
        got = len(check_report(report, loop_line=10, func_line=40,
                               instances=2))
        if got != want:
            print(f"self-test: {name}: {got} problems, want {want}")
            failures += 1
    for flags, want in ((["-O3", "-ffp-contract=off"], 0),
                        (["-O3"], 1),
                        (["-ffp-contract=off", "-ffp-contract=fast"], 1)):
        got = len(contract_problems(flags))
        if got != want:
            print(f"self-test: contraction flags {flags}: {got} problems, "
                  f"want {want}")
            failures += 1
    source = ("template <bool A>\ninline void ClassifyLoop(int n) {\n"
              "  for (int k = 0; k < n; ++k) {}\n}\n"
              "void ClassifyAvx2(int n) {}\n"
              "f = &ClassifyAvx2<true>; g = &ClassifyAvx2<false>;\n"
              "inline void BlockTestLoop(int n) {\n"
              "  for (int b = 0; b < n; ++b) {}\n}\n"
              "void BlockTestAvx2(int n) {}\n"
              "h = &BlockTestAvx2;\n")
    if kernel_lines(source) != (3, 5, 2):
        print(f"self-test: kernel_lines gave {kernel_lines(source)}")
        failures += 1
    block = kernel_lines(source, "BlockTestLoop", "BlockTestAvx2")
    if block != (8, 10, 1):
        print(f"self-test: kernel_lines(BlockTestLoop) gave {block}")
        failures += 1
    # The whole gate over both kernels: the classify instances (function
    # line 5, loop line 3) and the block test (function line 10, loop line
    # 8) each vectorised, or the block test turned scalar.
    classify = [vec(3), note(5, 1)] * 2
    kernels = [
        ("both kernels vectorised", classify + [vec(8), note(10, 1)], 0),
        ("block test scalar", classify + [
            "src/core/kernels.cc:8:24: missed: couldn't vectorize loop",
            note(10, 0)], 1),
        ("block test instance missing", classify, 1),
    ]
    for name, report, want in kernels:
        got = len(check_kernels("\n".join(report), source)[0])
        if got != want:
            print(f"self-test: {name}: {got} problems, want {want}")
            failures += 1
    print("self-test:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path,
                        help="CMake build tree with compile_commands.json")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="source tree (default: this script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the report parser on embedded reports")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.build_dir is None:
        parser.error("--build-dir is required")
    return gate(args.root, args.build_dir)


if __name__ == "__main__":
    sys.exit(main())
