#!/usr/bin/env python3
"""Run the benchmark's workloads repeatedly and report how steady each metric is.

    python3 e2ebench/steadiness.py [--runs 10] [--seconds 10] [--trace 0]
                                   [--first-seed 1] [workload ...]

Run i uses seed first-seed + i; the workloads run in alternating order
(forward on even rounds, reversed on odd ones), so a slow stretch of the
host does not land on one workload only. For every metric of every
workload it prints the median, the first and third quartile
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and,
for end-to-end metrics, the bound from BENCHMARK.json with "ok" when the
spread is under a third of it. It also prints the share of failed
operations per workload, and the host's own speed spread: a fixed ALU loop
timed in 100 ms windows before and after the runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def host_speed(windows=30):
    binary = os.path.join(ROOT, ".bench_build", "e2ebench")
    out = subprocess.run([binary, "--host-speed", str(windows)],
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    speed = host_speed()
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, args.first_seed + i, seconds, args.trace)
            results[w].append(r)
            print("run %d %s seed %d correct=%s attempted=%d failed=%d %s" %
                  (i, w, args.first_seed + i, r["correct"], r["attempted"],
                   r["failed"], " ".join("%s=%.4g" % (k, v["value"])
                                         for k, v in
                                         sorted(r["metrics"].items()))),
                  file=sys.stderr, flush=True)
    speed += host_speed()

    med, q1, q3, s = spread(speed)
    print("host ALU loop (iterations per 100 ms, %d windows): median %.0f "
          "q1 %.0f q3 %.0f spread %.3f" % (len(speed), med, q1, q3, s))
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: %d runs, all correct: %s, failed shares: %s" %
              (w, len(runs), all(r["correct"] for r in runs), shares))
        print("  %-36s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2 or statistics.median(values) == 0:
                print("  %-36s %14.6g" % (name, statistics.median(values)))
                continue
            med, q1, q3, s = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "%6.3f %s" % (bound, "ok" if s < bound / 3 else
                                        "WIDE")
            print("  %-36s %14.6g %14.6g %14.6g %8.4f %s" %
                  (name, med, q1, q3, s, verdict))


if __name__ == "__main__":
    main()
