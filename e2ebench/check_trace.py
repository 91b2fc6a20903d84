#!/usr/bin/env python3
"""Test of the benchmark's traced mode.

    python3 e2ebench/check_trace.py [--seconds 2] [--seed 1] [workload ...]

Runs each workload traced, then reads the Chrome trace it wrote and checks,
apart from the benchmark binary's own check, that within every operation
(a root span -- one capture, query or landing -- with its descendants) the
layer self-times (span duration minus the durations of its child spans)
sum to the operation's wall time, every span lies within its parent,
siblings do not overlap and no self-time is negative, all within 1 us. It
also checks that the run reported every per-layer metric of
BENCHMARK.json and judged its outputs correct. Exits 1 on any failure.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOL_US = 1.0


def check_trace(path):
    """Return (operations, operations breaking the invariant)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = collections.defaultdict(dict)
    for e in events:
        by_tid[e["tid"]][e["args"]["id"]] = e
    ops = bad = 0
    for spans in by_tid.values():
        children = collections.defaultdict(list)
        for sid, e in spans.items():
            if e["args"]["parent"] >= 0:
                children[e["args"]["parent"]].append(sid)
        self_sum = collections.defaultdict(float)
        broken = set()
        for sid, e in spans.items():
            root = sid
            while spans[root]["args"]["parent"] >= 0:
                root = spans[root]["args"]["parent"]
            kids = sorted((spans[k] for k in children[sid]),
                          key=lambda k: k["ts"])
            own = e["dur"] - sum(k["dur"] for k in kids)
            self_sum[root] += own
            if own < -TOL_US:
                broken.add(root)
            for k in kids:
                if (k["ts"] < e["ts"] - TOL_US or
                        k["ts"] + k["dur"] > e["ts"] + e["dur"] + TOL_US):
                    broken.add(root)
            for a, b in zip(kids, kids[1:]):
                if b["ts"] < a["ts"] + a["dur"] - TOL_US:
                    broken.add(root)
        for sid, e in spans.items():
            if e["args"]["parent"] >= 0:
                continue
            ops += 1
            if sid in broken or abs(self_sum[sid] - e["dur"]) > TOL_US:
                bad += 1
    return ops, bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    wanted = {m["name"] for m in bench["per_layer"]}

    failed = False
    for w in workloads:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        missing = sorted(wanted - set(result["metrics"]))
        path = os.path.join(ROOT, ".bench_build", "out",
                            "%s-%d.trace.json" % (w, args.seed))
        n, bad = check_trace(path)
        ok = result["correct"] and not missing and n > 0 and bad == 0
        failed |= not ok
        print("%s %s: %d operations, %d breaking the self-time invariant, "
              "missing metrics %s, correct %s" %
              ("PASS" if ok else "FAIL", w, n, bad, missing,
               result["correct"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
