#!/usr/bin/env python3
"""Line-coverage gate for one source directory (default src/codec).

Reads the .gcda/.gcno counters a ``--coverage`` build left in the
build tree (ci/check.sh coverage runs the full ctest suite first),
merges them with ``gcov --json-format`` into per-file line coverage,
writes the result as a JSON artifact, and fails when the aggregate
line coverage of ``--scope`` drops more than ``margin`` percentage
points below that scope's recorded baseline.

Each gated directory has its own baseline. ci/check.sh gates
src/codec, the byte-format core every other layer builds on, where
untested lines hide silent format regressions; src/ground, whose
archive open and recovery paths only tests keep honest; and src/core,
where every policy branch of the one on-board pipeline must stay
exercised.

Re-baselining after an intentional change::

    ci/check.sh coverage            # populates the build tree
    python3 ci/coverage_gate.py --build-dir build-coverage \
        --scope src/ground \
        --baseline ci/COVERAGE_ground.baseline.json --rebaseline

Stdlib only — no coverage tooling beyond gcov itself.
"""

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def find_gcda(build_dir, scope):
    """Every .gcda under the build tree of an object from `scope`."""
    hits = []
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            path = os.path.join(root, name)
            if name.endswith(".gcda") and scope in path.replace("\\", "/"):
                hits.append(path)
    return sorted(hits)


def gcov_json(gcda):
    """Parse one .gcda via gcov's JSON intermediate format."""
    gcda = os.path.abspath(gcda)
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda],
        capture_output=True,
        text=True,
        check=True,
        cwd=os.path.dirname(gcda),
    )
    return json.loads(out.stdout)


def merge_counts(build_dir, scope):
    """file -> {line -> count}, max-merged across translation units."""
    counts = {}
    gcdas = find_gcda(build_dir, scope)
    if not gcdas:
        sys.exit(
            "coverage_gate: no %s .gcda files under '%s' — "
            "build with --coverage and run the tests first"
            % (scope.rstrip("/"), build_dir)
        )
    for gcda in gcdas:
        for f in gcov_json(gcda).get("files", []):
            path = os.path.normpath(f["file"])
            if not os.path.isabs(path):
                path = os.path.normpath(os.path.join(REPO_ROOT, path))
            rel = os.path.relpath(path, REPO_ROOT).replace("\\", "/")
            if not rel.startswith(scope):
                continue
            per_line = counts.setdefault(rel, {})
            for line in f.get("lines", []):
                n = line["line_number"]
                per_line[n] = max(per_line.get(n, 0), line["count"])
    return counts


def summarize(counts, scope):
    files = {}
    covered_total = 0
    lines_total = 0
    for rel in sorted(counts):
        per_line = counts[rel]
        total = len(per_line)
        covered = sum(1 for c in per_line.values() if c > 0)
        covered_total += covered
        lines_total += total
        files[rel] = {
            "covered": covered,
            "total": total,
            "percent": round(100.0 * covered / total, 2) if total else 0.0,
        }
    aggregate = (
        round(100.0 * covered_total / lines_total, 2) if lines_total else 0.0
    )
    return {
        "scope": scope.rstrip("/"),
        "aggregate_percent": aggregate,
        "covered_lines": covered_total,
        "total_lines": lines_total,
        "files": files,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--build-dir", required=True, help="--coverage build tree"
    )
    parser.add_argument(
        "--scope",
        default="src/codec",
        help="repo-relative source directory to gate (default src/codec)",
    )
    parser.add_argument(
        "--baseline",
        required=True,
        help="checked-in baseline JSON of that scope "
        "(ci/COVERAGE_<dir>.baseline.json)",
    )
    parser.add_argument(
        "--report", help="where to write the coverage JSON artifact"
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="overwrite the baseline with the fresh numbers and exit",
    )
    parser.add_argument(
        "--margin",
        type=float,
        default=1.0,
        help="tolerated drop in aggregate percentage points (default 1.0)",
    )
    args = parser.parse_args()

    scope = args.scope.strip("/") + "/"
    summary = summarize(merge_counts(args.build_dir, scope), scope)
    if args.report:
        os.makedirs(os.path.dirname(args.report) or ".", exist_ok=True)
        with open(args.report, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(
        "coverage_gate: %s line coverage %.2f%% (%d/%d lines, %d files)"
        % (
            summary["scope"],
            summary["aggregate_percent"],
            summary["covered_lines"],
            summary["total_lines"],
            len(summary["files"]),
        )
    )

    if args.rebaseline:
        with open(args.baseline, "w") as fh:
            json.dump(
                {
                    "scope": summary["scope"],
                    "aggregate_percent": summary["aggregate_percent"],
                    "covered_lines": summary["covered_lines"],
                    "total_lines": summary["total_lines"],
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        print("coverage_gate: baseline rewritten -> %s" % args.baseline)
        return 0

    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        sys.exit(
            "coverage_gate: baseline '%s' missing — record one with "
            "--rebaseline" % args.baseline
        )

    floor = baseline["aggregate_percent"] - args.margin
    if summary["aggregate_percent"] < floor:
        sys.exit(
            "coverage_gate: FAIL — %s coverage %.2f%% fell below "
            "baseline %.2f%% - %.2f-point margin (floor %.2f%%)"
            % (
                summary["scope"],
                summary["aggregate_percent"],
                baseline["aggregate_percent"],
                args.margin,
                floor,
            )
        )
    print(
        "coverage_gate: PASS (baseline %.2f%%, margin %.2f points)"
        % (baseline["aggregate_percent"], args.margin)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
