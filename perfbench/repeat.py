#!/usr/bin/env python3
"""Repeat runner: every workload N times, each run in a fresh process.

    python3 perfbench/repeat.py [--runs N] [--seed-base B]

Runs every workload of BENCHMARK.json for its run_seconds; run i uses seed
B + i, and the workload order alternates between runs (forward, then
reversed) so slow drift of the machine does not favour one workload. Raw
results go to .bench_build/repeat.json. For every end-to-end metric it
prints the median and quartiles (statistics.quantiles, n=4) of all runs,
and treats the first and the second half of the runs as two sets: the
spread (q3 - q1) / median of each set, and the shift |b - a| / a between
their medians a and b.

Flags, each of which makes the exit status 1:

  OVER    a set's spread exceeds the metric's bound
  HALVES  the two sets' medians differ by more than the bound
  FAILED  the share of failed ops differs between runs

A spread above a third of the bound is marked "(>b/3)" for information:
that is the steadiness the benchmark aims for, not a failure. A run that
exits nonzero, prints no result, or reports correct=false is listed as a
PROBLEM and also makes the exit status 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_PATH = os.path.join(ROOT, ".bench_build", "repeat.json")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None, "unparsable last line: %s" % lines[-1][:200]
    # Reference figures printed on the "info:" line (not gated; README.md).
    res["info"] = {}
    for line in lines:
        if line.startswith("info:"):
            for field in line.split()[1:]:
                key, _, value = field.partition("=")
                res["info"][key] = float(value)
    return res, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def set_spreads(vals, half):
    spreads = []
    for v in (vals[:half], vals[half:] or vals[:half]):
        a1, am, a3 = quartiles(v)
        spreads.append((a3 - a1) / am if am else float("inf"))
    return spreads


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    results = {w: [] for w in workloads}
    problems = []
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed_base + i
            res, err = run_once(w, seed, spec["run_seconds"])
            if res is None or not res.get("correct", False):
                problems.append("%s seed %d: %s" % (w, seed, err or "correct=false"))
            if res is not None:
                res["seed"] = seed
                results[w].append(res)
            print("run %2d %-22s seed %d %s" % (i, w, seed,
                                                "ok" if res and res.get("correct") else "PROBLEM"),
                  file=sys.stderr, flush=True)

    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w") as f:
        json.dump(results, f, indent=1)

    flags = 0
    for w in workloads:
        runs = results[w]
        if not runs:
            continue
        print("\n%s (%d runs)" % (w, len(runs)))
        print("  %-14s %11s %11s %11s %8s %8s %6s %8s  %s" % (
            "metric", "q1", "median", "q3", "spread1", "spread2", "bound", "shift", "flags"))
        half = max(1, len(runs) // 2)
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spreads = set_spreads(vals, half)
            a = statistics.median(vals[:half])
            b = statistics.median(vals[half:] or vals[:half])
            shift = abs(b - a) / a
            marks = []
            if max(spreads) > m["bound"]:
                marks.append("OVER")
            if shift > m["bound"]:
                marks.append("HALVES")
            flags += len(marks)
            if not marks and max(spreads) > m["bound"] / 3:
                marks.append("(>b/3)")
            print("  %-14s %11.5g %11.5g %11.5g %7.2f%% %7.2f%% %5.0f%% %7.2f%%  %s" % (
                m["name"], q1, med, q3, 100 * spreads[0], 100 * spreads[1],
                100 * m["bound"], 100 * shift, " ".join(marks)))
        for key in sorted(runs[0]["info"]):
            vals = [r["info"][key] for r in runs]
            spreads = set_spreads(vals, half)
            q1, med, q3 = quartiles(vals)
            print("  %-14s %11.5g %11.5g %11.5g %7.2f%% %7.2f%%   (info, not gated)" % (
                key, q1, med, q3, 100 * spreads[0], 100 * spreads[1]))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("  failed share: %s%s" % (", ".join("%.6f" % s for s in shares),
                                        "  FAILED" if len(shares) > 1 else ""))
        if len(shares) > 1:
            flags += 1
        ops = [r["attempted"] for r in runs]
        print("  ops attempted per run: min %d, median %d, max %d" % (
            min(ops), statistics.median(ops), max(ops)))
    for p in problems:
        print("PROBLEM: " + p)
    print("\n%d flag(s), %d problem run(s); raw results in %s" % (flags, len(problems), OUT_PATH))
    return 1 if flags or problems else 0


if __name__ == "__main__":
    sys.exit(main())
