#!/usr/bin/env python3
"""Build the benchmark with dune and run it from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments go to perfbench/main.exe unchanged; its exit code is ours.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        print("perfbench: run from the root of an EXOCHI checkout", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
