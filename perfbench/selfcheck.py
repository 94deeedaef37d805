"""Steadiness self-check of the benchmark.

    python3 perfbench/selfcheck.py --workload NAME --seed N [--seconds S]

Makes two traced runs of one workload with one seed and compares what
must repeat exactly: operations attempted and failed, per-layer call
counts and ratios, and every memo-table size and hit count.  Each traced
run already compares its traced passes with its untraced ones.  Also
checks that BENCHMARK.json names exactly the metrics run.py prints, and
prints the machine record.  Exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def diff(a, b, path=""):
    """Paths at which two JSON-like values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            out += diff(a.get(k), b.get(k), f"{path}.{k}" if path else k)
        return out
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    print(f"machine: {json.dumps(run.machine(), sort_keys=True)}")

    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {m["name"] for m in spec["end_to_end"]} != set(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [m["name"] for m in spec["per_layer"]] != list(run.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")

    first, second = (run.run_workload(args.workload, args.seed, args.seconds, trace=True)
                     for _ in range(2))
    for rec in (first, second):
        if not rec["steady"]:
            problems.append(f"passes of one run counted differently ({rec['passes']} passes)")
    problems += diff(first["exact"], second["exact"])
    overheads = [rec["metrics"]["trace.overhead_share"] for rec in (first, second)]
    print(f"{args.workload} seed {args.seed}: {first['attempted']} ops per pass, "
          f"{first['failed']} failed, tracing overhead {overheads[0]:+.3f} / {overheads[1]:+.3f}")
    for line in problems:
        print(f"DIFFERS {line}")
    print("exact counts identical" if not problems else f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
