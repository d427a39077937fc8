#!/usr/bin/env python3
"""Build and run the graphdance benchmark.

    python3 perfbench/run.py --workload khop-closed --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds perfbench/main.exe from
source with dune into .bench_build/ (dune's shared cache off, so nothing
is written outside the checkout), runs it with the same arguments, and
passes its output through: a table of every metric with its unit and
clock on stderr, and the JSON result as the last line of stdout.

Workloads: khop-closed, khop-wide, ldbc-serve (see perfbench/README.md).
Exits non-zero without printing a result when the build or the run
fails, or the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--cache=disabled", "--display=quiet", "./perfbench/main.exe",
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found on PATH")
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["khop-closed", "khop-wide", "ldbc-serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("benchmark printed no result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
