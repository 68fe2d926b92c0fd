#!/usr/bin/env python3
"""Build the library and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The build goes to .bench_build/
(release profile, no shared dune cache), so nothing is written outside
the tree. The benchmark's own output is passed through unchanged; its
last line is the JSON result. Exits non-zero, without a result line,
when the sources are missing, the build fails or the run fails.
"""

import argparse
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
PROFILE = "release"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["findgap-dp-serial", "sweep-grid", "serve-mix"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def commit():
    """The source tree's commit when it is a git checkout, else "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the source tree (dune-project and lib/ not found)")

    started = time.monotonic()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", PROFILE, "--cache", "disabled", "./perfbench/perfbench.exe"],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not complete: %s" % e, 1)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed", 1)
    build_s = time.monotonic() - started

    nproc = len(os.sched_getaffinity(0))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit(), "--profile", PROFILE, "--nproc", str(nproc)]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(run.stderr)
    if run.returncode != 0 or not run.stdout.strip():
        sys.stderr.write(run.stdout)
        fail("run failed with code %d" % run.returncode, 1)
    print("# build_s %.3f" % build_s)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
