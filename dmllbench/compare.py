#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 dmllbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds run records as written by run.py (a copy of
dmllbench/_work/results/ from each side).  Runs are paired by workload,
seed and trace flag.  The comparison is refused (exit 2) when a pair's
stamps differ in nproc, OCaml version or native path: the JIT and the
child-process fallback time different programs, and a run on another
core count measures another machine.  For every metric it prints both
medians, the change, each side's spread (interquartile range over
median) and how many pairs the change wins.
"""

import glob
import json
import os
import statistics
import sys

STAMP_KEYS = ("nproc", "ocaml", "native_path")


def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        st = rec["stamp"]
        runs[(st["workload"], st["seed"], st["trace"])] = rec
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q[2] - q[0]) / m if m else float("nan")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    pairs = sorted(set(base) & set(change))
    if not pairs:
        sys.exit("no runs with the same workload, seed and trace flag on both sides")
    for key in pairs:
        a, b = base[key]["stamp"], change[key]["stamp"]
        diff = [k for k in STAMP_KEYS if a[k] != b[k]]
        if diff:
            print(f"refused: {key} stamps differ in {', '.join(diff)}: {a} vs {b}",
                  file=sys.stderr)
            sys.exit(2)
    spec = json.load(open("BENCHMARK.json")) if os.path.isfile("BENCHMARK.json") else {}
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    for workload, trace in sorted({(w, t) for w, _, t in pairs}):
        keys = [k for k in pairs if k[0] == workload and k[2] == trace]
        print(f"{workload} trace={trace}: {len(keys)} paired runs")
        for metric in base[keys[0]]["result"]["metrics"]:
            xs = [base[k]["result"]["metrics"][metric]["value"] for k in keys]
            ys = [change[k]["result"]["metrics"][metric]["value"] for k in keys]
            mx, my = statistics.median(xs), statistics.median(ys)
            sign = -1 if better.get(metric, "lower") == "lower" else 1
            wins = sum(1 for x, y in zip(xs, ys) if sign * (y - x) > 0)
            rel = f"{(my - mx) / mx:+.1%}" if mx else "n/a"
            print(f"  {metric:44s} {mx:12.6g} -> {my:12.6g} {rel:>8s}  "
                  f"spread {spread(xs):.3f}/{spread(ys):.3f}  wins {wins}/{len(keys)}")


if __name__ == "__main__":
    main()
