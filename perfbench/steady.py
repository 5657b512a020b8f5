"""Steadiness check: run every workload several times and print, per metric,
the median, the quartiles and the spread relative to the metric's bound.

    python3 perfbench/steady.py --runs 10 [--first-seed 1]

Each run is a fresh ``run.py`` process with its own seed, measuring for
``run_seconds`` of BENCHMARK.json with ``--trace 0``; the workload order
alternates between repetitions so drift in the machine does not line up
with one workload.  Spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric whose spread exceeds a
third of its bound is marked ``!``; one above the bound ``!!``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark steadiness check")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = defaultdict(lambda: defaultdict(list))
    failed_share = defaultdict(set)
    incorrect = 0
    for rep in range(args.runs):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for workload in order:
            seed = args.first_seed + rep
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                incorrect += 1
                continue
            result = json.loads(lines[-1])
            incorrect += not result["correct"]
            failed_share[workload].add(Fraction(result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)

    worst = 0.0
    for workload in workloads:
        shares = sorted(str(share) for share in failed_share[workload])
        print(f"\n== {workload}: failed share(s) {shares}")
        print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'/bound':>7s}")
        for name, series in values[workload].items():
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[name]
            ratio = spread / bound
            if name != "setup_s":
                worst = max(worst, ratio)
            mark = "!!" if ratio > 1 else "!" if ratio > 1 / 3 else ""
            print(f"{name:40s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
                  f"{bound:>6} {ratio:7.3f} {mark}")
    print(f"\nworst spread/bound (setup_s excluded): {worst:.3f}; incorrect runs: {incorrect}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
