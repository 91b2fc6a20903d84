#!/usr/bin/env python3
"""Build the Earth+ program and its end-to-end benchmark, then run one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first call configures and builds
the program's library and the benchmark binary in .bench_build/ (Release);
later calls rebuild only what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. Traced
runs write their Chrome trace, per-layer self-time table and telemetry
snapshot to .bench_build/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("e2ebench: no program sources beside the benchmark "
                         "(looked for %s/src)\n" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("e2ebench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def main(argv):
    if not build():
        return 2
    cmd = [BINARY] + argv + [
        "--out-dir", os.path.join(BUILD, "out"),
        "--work-dir", os.path.join(BUILD, "work"),
    ]
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
