#!/usr/bin/env python3
"""Builds the rdbsc benchmark from this checkout and runs one workload.

    python3 rdbsc_benchmark/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

The program is built with CMake into $CARGO_TARGET_DIR (default
.bench_build), relative to the root of the checkout. The last line of
standard output is the run's JSON result; everything else (build log,
notes) goes before it or to standard error. With --trace 1 the spans are
written to <build dir>/traces/<workload>-<seed>.json.

    python3 rdbsc_benchmark/run.py --write-expected

re-computes the correctness digests of every workload for the seeds
listed in expected.json and rewrites that file.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("campus_greedy", "city_dc", "city_stream", "serve_hot")
# One run measures for --seconds twice at most (the traced run adds an
# untraced phase) plus set-up; anything longer is a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no rdbsc sources at %s; the benchmark builds the "
                 "library from the checkout it sits in" %
                 os.path.join(ROOT, "src"))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "rdbsc_benchmark",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(out, "rdbsc_benchmark")


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def listed_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds]
    digest = load_expected()["digests"].get(workload, {}).get(str(seed))
    if digest:
        cmd.append("--expect=" + digest)
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace=" + os.path.join(
            traces, "%s-%d.json" % (workload, seed)))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %d s" %
                 (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    want = listed_metrics(trace)
    if result is not None and want is not None and \
            set(result["metrics"]) != want:
        sys.exit("run.py: the runner's metrics %s differ from BENCHMARK.json's "
                 "%s" % (sorted(result["metrics"]), sorted(want)))
    print(lines[-1], flush=True)
    return proc.returncode


def write_expected(binary):
    expected = load_expected()
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in expected["seeds"]:
            proc = subprocess.run(
                [binary, "--workload=" + workload, "--seed=%d" % seed,
                 "--digest-only"], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True,
                timeout=RUN_TIMEOUT_S, check=True)
            line = next(l for l in proc.stdout.splitlines()
                        if l.startswith("digest "))
            digests[workload][str(seed)] = line.split()[1]
            print(workload, seed, digests[workload][str(seed)])
    expected["digests"] = digests
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.write_expected:
        write_expected(binary)
        return 0
    return run(binary, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
