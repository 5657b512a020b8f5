"""hFAD benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload ingest|search|served --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The process re-executes itself once with
``PYTHONHASHSEED=0``: the buffer pool stripes frames by hashing ``str``
keys, so an unseeded interpreter reads a different number of device blocks
on every run.  The last line of standard output is the result object;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "search", "served"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: no hFAD sources at {SOURCE}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCE, HERE]

    import report
    from layers import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    run = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    if args.trace:
        values, units = report.per_layer(run), dict(report.PER_LAYER)
    else:
        values, units = report.end_to_end(run), dict(report.END_TO_END)
    for reason in run.errors:
        print(f"check failed: {reason}", file=sys.stderr)
    if run.problems > len(run.errors):
        print(f"... {run.problems - len(run.errors)} more", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:40s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": run.problems == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
