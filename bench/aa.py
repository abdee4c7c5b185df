#!/usr/bin/env python3
"""A/A check: the same code measured twice must agree with itself.

    python3 bench/aa.py --sets 6

runs ``--sets`` full sets (every workload once, a new seed per set)
back to back on this checkout, splits them alternately into two groups
and prints, for every (workload, end-to-end metric), the relative
difference of the two group medians next to the metric's bound, and the
spread (interquartile range ÷ median) over all sets.  Exits non-zero if
a difference exceeds its bound, or if an op count or ``code_bytes`` is
not identical in every set; differences above half the bound are
flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"aa: {workload} seed {seed} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"aa: {workload} seed {seed} reported failures")
    return result


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=4)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    if args.sets < 3:
        parser.error("an A/A check needs at least 3 sets")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    values = {(w, m["name"]): [] for w in workloads for m in metrics}
    ops = {w: set() for w in workloads}
    for s in range(args.sets):
        t0 = time.time()
        for w in workloads:
            result = run_once(spec["command"], w, args.first_seed + s, seconds)
            ops[w].add(result["attempted"])
            for m in metrics:
                values[(w, m["name"])].append(result["metrics"][m["name"]]["value"])
        print(f"set {s + 1}/{args.sets}: {time.time() - t0:.0f} s", flush=True)

    breaches = 0
    print(f"\n{'workload':<14}{'metric':<20}{'median A':>14}{'median B':>14}"
          f"{'diff':>8}{'spread':>8}{'bound':>7}")
    for w in workloads:
        for m in metrics:
            v = values[(w, m["name"])]
            a, b = statistics.median(v[0::2]), statistics.median(v[1::2])
            diff = abs(a - b) / min(a, b)
            flag = ""
            if diff > m["bound"]:
                flag, breaches = "  BREACH", breaches + 1
            elif diff > m["bound"] / 2:
                flag = "  > half"
            print(f"{w:<14}{m['name']:<20}{a:>14.4f}{b:>14.4f}{diff:>8.3f}"
                  f"{spread(v):>8.3f}{m['bound']:>7.2f}{flag}")
        # counts are not allowed any difference at all
        for what, seen in (("op count", ops[w]),
                           ("code_bytes", set(values[(w, "code_bytes")]))):
            if len(seen) != 1:
                print(f"{w:<14}{what} differs between sets: {sorted(seen)}")
                breaches += 1
    print(f"\n{breaches} breach(es) over {args.sets} sets")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
