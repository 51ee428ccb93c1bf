#!/usr/bin/env python3
"""Build the benchmark executable from source and run one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Workloads: serve-hot, serve-cold-churn, join-leave.  The executable prints
every metric by name and unit, every correctness check, and as its last
line one JSON object (see perfbench/README.md).  The exit code is the
executable's, or non-zero without a result when the checkout cannot be
built (for example when the repository's libraries are absent).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-hot", "serve-cold-churn", "join-leave")
TARGET = "./perfbench/src/main.exe"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if not dune:
        fail("dune is not on PATH")
    return [dune]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "src")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")

    build = subprocess.run(
        dune_command() + ["build", "--root", ".", TARGET],
        cwd=root,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (dune exit {build.returncode})")

    exe = os.path.join(root, "_build", "default", "perfbench", "src", "main.exe")
    run = subprocess.run(
        [
            exe,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=root,
    )
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
