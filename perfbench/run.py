#!/usr/bin/env python3
"""Build the synthesis benchmark from source and run one workload.

Run from the root of a polysynth source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program (perfbench/bench.ml) is built with dune against the
libraries under lib/, then run with the same arguments.  Its last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Build output goes to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ("dune-project", "lib", "perfbench/dune", "perfbench/bench.ml")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main(argv):
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a polysynth source tree; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    # no shared dune cache: the build reads and writes only this tree
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
