#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 rdbsc_benchmark/compare_runs.py BASE_DIR NEW_DIR \
        [--benchmark BENCHMARK.json]

Each directory holds one file per run: the standard output of
`run.py --trace 0`, whose last line is the run's JSON result, in a file
named after its workload (`city_dc-seed3.txt`, `serve_hot.7.out`, ...).
For every workload and end-to-end metric of BENCHMARK.json it prints the
median and quartiles of each side and a verdict:

  unresolved    either side's quartile spread, as a share of its median,
                exceeds the metric's bound: the runs cannot tell
  worse         the new median is worse than the base median by more
                than the bound
  better        the new median is better than the base median by more
                than the base's own quartile spread
  within bound  anything else

Quartiles are Python's statistics.quantiles(values, n=4). The exit status
is 1 when any pair is worse, else 0. `--self-test` checks the verdicts on
built-in cases.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(directory, workloads):
    """{workload: [metrics dict, ...]} from every run file in `directory`."""
    runs = {w: [] for w in workloads}
    for name in sorted(os.listdir(directory)):
        workload = next((w for w in workloads
                         if name.startswith(w + "-") or
                         name.startswith(w + ".")), None)
        if workload is None:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        runs[workload].append(result["metrics"])
    return runs


def summary(values):
    """(median, q1, q3) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(stats):
    median, q1, q3 = stats
    return (q3 - q1) / median if median else float("inf")


def verdict(metric, base, new):
    bound = metric["bound"]
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    change = (new[0] - base[0]) / base[0] if base[0] else 0.0
    worse = change if metric["better"] == "lower" else -change
    if worse > bound:
        return "worse"
    if -worse > spread(base):
        return "better"
    return "within bound"


def compare(base_dir, new_dir, spec, out=sys.stdout):
    """Prints the comparison table; returns the verdicts by (workload,
    metric)."""
    workloads = [w["name"] for w in spec["workloads"]]
    base_runs = load_runs(base_dir, workloads)
    new_runs = load_runs(new_dir, workloads)
    verdicts = {}
    out.write("%-14s %-14s %-32s %-32s %8s  %s\n" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "verdict"))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base_values = [m[name]["value"] for m in base_runs[workload]
                           if name in m]
            new_values = [m[name]["value"] for m in new_runs[workload]
                          if name in m]
            if not base_values or not new_values:
                verdicts[(workload, name)] = "missing"
                out.write("%-14s %-14s missing runs\n" % (workload, name))
                continue
            base, new = summary(base_values), summary(new_values)
            verdicts[(workload, name)] = verdict(metric, base, new)
            out.write("%-14s %-14s %-32s %-32s %+7.1f%%  %s\n" % (
                workload, name,
                "%.4g [%.4g, %.4g] n=%d" % (base + (len(base_values),)),
                "%.4g [%.4g, %.4g] n=%d" % (new + (len(new_values),)),
                100.0 * (new[0] - base[0]) / base[0] if base[0] else 0.0,
                verdicts[(workload, name)]))
    return verdicts


def self_test():
    spec = {
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "lat_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher",
             "bound": 0.1},
        ],
    }
    cases = [
        # (base lat_s, new lat_s, base rate, new rate, verdicts)
        ([1.0, 1.01, 0.99, 1.0, 1.02], [1.01, 1.0, 1.02, 0.99, 1.0],
         [10, 10.1, 9.9, 10, 10], [10, 10, 10.1, 9.9, 10],
         ("within bound", "within bound")),
        ([1.0, 1.01, 0.99, 1.0, 1.02], [1.2, 1.21, 1.19, 1.2, 1.22],
         [10, 10.1, 9.9, 10, 10], [8, 8.1, 7.9, 8, 8],
         ("worse", "worse")),
        ([1.0, 1.01, 0.99, 1.0, 1.02], [0.9, 0.91, 0.89, 0.9, 0.92],
         [10, 10.1, 9.9, 10, 10], [11, 11.1, 10.9, 11, 11],
         ("better", "better")),
        ([1.0, 1.5, 0.7, 1.2, 0.8], [1.0, 1.01, 0.99, 1.0, 1.02],
         [10, 10.1, 9.9, 10, 10], [10, 14, 7, 12, 8],
         ("unresolved", "unresolved")),
    ]
    failures = 0
    for index, (bl, nl, br, nr, want) in enumerate(cases):
        with tempfile.TemporaryDirectory() as tmp:
            dirs = []
            for side, lat, rate in (("base", bl, br), ("new", nl, nr)):
                d = os.path.join(tmp, side)
                os.makedirs(d)
                for i, (l, r) in enumerate(zip(lat, rate)):
                    with open(os.path.join(d, "w-%d.txt" % i), "w") as f:
                        f.write("a log line\n")
                        f.write(json.dumps({
                            "correct": True, "attempted": 1, "failed": 0,
                            "metrics": {
                                "lat_s": {"value": l, "unit": "s"},
                                "rate": {"value": r, "unit": "1/s"}}}))
                        f.write("\n")
                # Files of other workloads and non-result files are ignored.
                with open(os.path.join(d, "other-1.txt"), "w") as f:
                    f.write("{}\n")
                dirs.append(d)
            with open(os.devnull, "w") as devnull:
                got = compare(dirs[0], dirs[1], spec, out=devnull)
            got = (got[("w", "lat_s")], got[("w", "rate")])
            if got != want:
                failures += 1
                print("case %d: got %s, want %s" % (index, got, want))
    print("self-test: %d of %d cases failed" % (failures, len(cases)))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_dir", nargs="?")
    parser.add_argument("new_dir", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.base_dir is None or args.new_dir is None:
        parser.error("BASE_DIR and NEW_DIR are required")
    with open(args.benchmark) as f:
        spec = json.load(f)
    verdicts = compare(args.base_dir, args.new_dir, spec)
    return 1 if "worse" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
