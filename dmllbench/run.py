#!/usr/bin/env python3
"""Outside-in benchmark for DMLL: build, run one workload, print one result.

    python3 dmllbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds dmllbench/main.exe with dune,
then starts fresh processes for the workload: one measuring process that
sets up and runs jobs for --seconds (with --trace 1, its second half runs
traced jobs); then, with --trace 0, set-up-only processes until SETUPS
set-ups or SETUP_BUDGET_S seconds of them are timed.  setup_s is the
median over every set-up timed.  Times are
reported scaled to the speed of a reference loop timed before every job
(calib.ml), with the wall times beside them in the record.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the line before it stamps
the run.  Each run's record is also kept under dmllbench/_work/results/.
See dmllbench/BENCHMARK.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = "dmllbench"
EXE = os.path.join("_build", "default", BENCH, "main.exe")
SETUPS = 5
SETUP_BUDGET_S = 5.0
TAIL_BEYOND = 10
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"{BENCH}: {msg}", file=sys.stderr)
    sys.exit(code)


def run_process(cmd, env, deadline):
    """Run cmd in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"timed out: {' '.join(cmd)}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        die(f"{' '.join(cmd)} exited with {proc.returncode}", 3)
    lines = out.strip().splitlines()
    if not lines:
        die(f"no record from {' '.join(cmd)}")
    return json.loads(lines[-1])


def tail(times, beyond=TAIL_BEYOND):
    """The highest-ranked sample with `beyond` samples ranked above it (the
    maximum when there are fewer): (value, percentile, beyond, samples)."""
    xs = sorted(times)
    n = len(xs)
    i = n - beyond - 1 if n > beyond else n - 1
    return xs[i], 100.0 * (i + 1) / n, n - i - 1, n


def summary(rec, setups):
    """End-to-end metrics of a measuring process's record; `setups` are
    the set-up times of every process of the run."""
    times = rec["times"]
    value, percentile, beyond, n = tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
        "throughput_elems_s": rec["elements"] / sum(times),
        "compile_p50_s": statistics.median(rec["compile_s"]),
        "ok_ratio": (rec["attempted"] - rec["failed"]) / rec["attempted"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    info = {"tail_percentile": percentile, "tail_beyond": beyond, "jobs": n,
            "wall_p50_s": statistics.median(rec["wall"]),
            "calib_p50_s": statistics.median(rec["calib"]),
            "reported_p50_s": statistics.median(rec["reported"])}
    return values, info


def declared_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for f in ("dune-project", os.path.join("lib", "core", "dmll.mli"), "BENCHMARK.json"):
        if not os.path.isfile(f):
            die(f"{f} not found: run from the root of a DMLL checkout")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    if shutil.which("dune") is None:
        die("dune not found")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE[len("_build/default/"):]],
        env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    work = os.path.abspath(os.path.join(BENCH, "_work", f"{tag}.{os.getpid()}"))
    results = os.path.join(BENCH, "_work", "results")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    os.makedirs(results, exist_ok=True)
    env = dict(env, TMPDIR=os.path.join(work, "tmp"))
    base = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--work", work]
    try:
        rec = run_process(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                          env, deadline)
        setups, setups_wall = [rec["setup_s"]], [rec["setup_wall_s"]]
        while (not args.trace and len(setups) < SETUPS
               and sum(setups_wall) < SETUP_BUDGET_S):
            r = run_process(base + ["--seconds", "0", "--trace", "0", "--setup-only"],
                            env, deadline)
            setups.append(r["setup_s"])
            setups_wall.append(r["setup_wall_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {}
    if args.trace:
        values = rec["layers"]
    elif not rec["times"]:
        die(f"no job completed: {rec.get('first_error')}", 3)
    else:
        values, info = summary(rec, setups)
    units = declared_metrics(spec, args.trace)
    if set(units) != set(values):
        die("metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(values))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "nproc": len(os.sched_getaffinity(0)), "ocaml": rec["ocaml"],
             "native_path": rec["native_path"]}
    attempted, failed = rec["attempted"], rec["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    error = rec.get("first_error")
    detail = dict(info, setup_s=setups, setup_wall_s=setups_wall, first_error=error)
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump({"stamp": stamp, "result": result, "detail": detail}, fh, indent=1)
    if error:
        print(f"first failure: {error}")
    if info:
        print(f"job_tail_s is p{info['tail_percentile']:.1f} of {info['jobs']} jobs, "
              f"{info['tail_beyond']} beyond it; job_p50_s {values['job_p50_s']:.6f} s "
              f"scaled from wall p50 {info['wall_p50_s']:.6f} s (reference loop p50 "
              f"{info['calib_p50_s']:.6f} s); run_result.seconds p50 "
              f"{info['reported_p50_s']:.6f} s")
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
