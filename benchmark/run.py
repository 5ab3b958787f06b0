#!/usr/bin/env python3
"""Build the benchmark from source, then run it with the given arguments.

    python3 benchmark/run.py --workload battle-12k --seed 42 --seconds 10 --trace 0
    python3 benchmark/run.py run --trace

The build goes to _build/ beside this directory, with dune's shared cache
disabled so nothing is written outside the source tree; build output goes
to stderr.  The benchmark then replaces this process, so its exit code and
its stdout (whose last line is the result object) are the command's.
"""

import os
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
build = subprocess.run(
    ["dune", "build", "--root", root, "--cache=disabled", "--display", "quiet",
     "./benchmark/main.exe"],
    stdout=sys.stderr,
)
if build.returncode != 0:
    sys.exit(build.returncode)
exe = os.path.join(root, "_build", "default", "benchmark", "main.exe")
os.execv(exe, [exe] + sys.argv[1:] + ["--root", root])
