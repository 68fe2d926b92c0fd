#!/usr/bin/env python3
"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py [--seconds 20] [--seeds 1-10] [--trace 0|1] [WORKLOAD...]

Runs perfbench/run.py once per seed for each workload (all of them when
none is named), from the root of the source tree, and prints a markdown
table per workload: for every metric the median over the seeds, its
first and third quartiles (statistics.quantiles, n=4), their distance
as a share of the median, and the values in run order. Exits non-zero if any run fails, reports an
incorrect output or a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["findgap-dp-serial", "sweep-grid", "serve-mix"]


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for wl in args.workloads:
        values, units, ops = {}, {}, []
        for seed in seeds_of(args.seeds):
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", args.trace],
                capture_output=True, text=True)
            if run.returncode != 0:
                sys.stderr.write(run.stderr)
                print("%s seed %d: exit code %d" % (wl, seed, run.returncode))
                ok = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            ops.append((result["attempted"], result["failed"]))
            if not result["correct"] or result["failed"]:
                sys.stderr.write(run.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("\n### %s (%d seeds, %d s, trace %s)\n" % (wl, len(ops), args.seconds, args.trace))
        print("attempted/failed per run: %s\n" % ", ".join("%d/%d" % o for o in ops))
        print("| metric | unit | median | q1 | q3 | spread | runs |")
        print("|---|---|---|---|---|---|---|")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            runs = " ".join("%.4g" % v for v in vs)
            print("| %s | %s | %.6g | %.6g | %.6g | %.3f | %s |"
                  % (name, units[name], med, q1, q3, spread, runs))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
