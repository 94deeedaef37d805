"""Benchmark of the hecke library, measured from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one computing process at a time):

  verify_sweep    oracle.verify_equivalence over Q at bound 6, Q(i) and
                  Q(sqrt(-3)) at bound 4; one operation is one checked pair.
  ground_states   symmetry.regularity_check at every level of norm <= 20 in
                  Q, Q(i), Q(sqrt(-3)), and compare_actions on every (g, w, r)
                  at Q levels 4, 5, 8, 9, 12 and Q(i) level 5.
  thermal_states  kms.phi_extreme_beta at every class and symmetry
                  representative of the same levels at beta 1.5, 2, 3; the
                  beta 5, 10, 20 ground-state-limit sweep at Q(i) level 5;
                  kms.zeta_k for all ten fields at beta 1.5, 2, 3.
  cli_oneshot     the eleven README examples, each a fresh `hecke` process.

A run starts passes of the workload while it expects to end nearer to
--seconds with one more pass than without it, making at least two passes
and at least 40 operations.  Each pass is a fresh worker process with
cold memo tables, as every CLI call and test session starts cold.  The
seed fixes the order of the operations in a pass, never the set of
operations.

With --trace 0 the run prints the end-to-end metrics.  `wall_s` is the
mean timed section of a pass: the machine's speed drifts between passes,
and the mean of a few passes reads steadier than their median.
`ops_per_s` is the operations of all passes over their timed seconds.
`op_ms_p50` is the mean over passes of each pass's median latency: pooled
over passes run at different speeds, the median jumps between the latency
clusters of different call types.  `op_ms_tail` pools the operations of all
passes, as it needs ten samples beyond it.  `setup_s` is the median over
every worker started: before each pass, SETUP_PROBES workers only set up,
so that set-up is sampled across the whole run, as the passes are.

With --trace 1 it alternates traced and untraced passes and prints the
per-layer metrics of the traced ones, plus the tracing overhead.

Every output is checked against an independent reference (workloads.py,
reference.py).  `attempted` and `failed` count the operations of one pass,
which every pass repeats exactly; `correct` is false if any output
disagreed with its reference, a worker failed, or two passes counted
differently.  A human summary goes to stderr; the last line of stdout is
the JSON result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2  # set-up-only workers before each pass
MIN_PASSES = 2
MIN_SAMPLES = 40  # per run, so that op_ms_tail sits at p75 or above
RUN_LIMIT_S = 150.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "op_ms_p50": "ms", "op_ms_tail": "ms", "peak_rss_mb": "MB"}

_COUNT, _SECONDS, _RATIO = ("count", "lower"), ("s", "lower"), ("ratio", "higher")
PER_LAYER = {
    "numberfield.calls": _COUNT, "numberfield.self_s": _SECONDS,
    "numberfield.cache_hit_ratio": _RATIO, "numberfield.cache_entries": _COUNT,
    "torsion.calls": _COUNT, "torsion.self_s": _SECONDS, "torsion.memo_entries": _COUNT,
    "hecke_algebra.mul_calls": _COUNT, "hecke_algebra.mul_s": _SECONDS,
    "hecke_algebra.make_calls": _COUNT, "hecke_algebra.make_s": _SECONDS,
    "hecke_algebra.terms_out": _COUNT,
    "oracle.engine_s": _SECONDS, "oracle.convolve_calls": _COUNT, "oracle.convolve_s": _SECONDS,
    "oracle.phi_s": _SECONDS, "oracle.verify_self_s": _SECONDS, "oracle.prod_calls": _COUNT,
    "oracle.prod_hit_ratio": _RATIO, "oracle.cosets_interned": _COUNT,
    "oracle.prod_memo_entries": _COUNT,
    "cyclotomic.calls": _COUNT, "cyclotomic.self_s": _SECONDS,
    "cyclotomic.reduction_cache_hit_ratio": _RATIO,
    "pairing.calls": _COUNT, "pairing.self_s": _SECONDS,
    "kms.extreme_calls": _COUNT, "kms.extreme_s": _SECONDS, "kms.table_builds": _COUNT,
    "kms.table_s": _SECONDS, "kms.table_hit_ratio": _RATIO, "kms.zeta_calls": _COUNT,
    "kms.zeta_s": _SECONDS, "kms.sieve_s": _SECONDS, "kms.infty_calls": _COUNT,
    "kms.infty_s": _SECONDS, "kms.err_bound_max": ("abs", "lower"),
    "symmetry.regularity_calls": _COUNT, "symmetry.regularity_self_s": _SECONDS,
    "symmetry.compare_s": _SECONDS, "symmetry.lift_s": _SECONDS,
    "symmetry.level_cache_entries": _COUNT,
    "cli.import_s": _SECONDS,
    **{f"cli.call_ms.{name}": ("ms", "lower") for name in sorted(workloads.CLI_CALLS)},
    **{f"{layer}.errors": _COUNT for layer in ("numberfield", "torsion", "cyclotomic",
                                               "hecke_algebra", "oracle", "pairing", "kms",
                                               "symmetry", "cli")},
    "trace.overhead_share": ("ratio", "lower"),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "mpmath": metadata.version("mpmath"),
            "machine": platform.machine()}


def spawn(name: str, seed: int, mode: str, refs: list, deadline: float) -> dict:
    """Run one worker to completion and return its result and set-up time."""
    env = workloads.cli_env(str(SRC))
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    env["PERFBENCH_OUT"] = str(OUT)
    start = time.monotonic()
    # a session of its own, so a timeout also stops the CLI processes it runs
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), name, str(seed), mode],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(json.dumps(refs), timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker for {name} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {name} exited {proc.returncode}:\n"
                         f"{stderr[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    out["mode"] = mode
    out["pass_s"] = time.monotonic() - start
    return out


def weighted_percentile(samples: list, pct: float) -> float:
    """Percentile of (value, weight) samples, each weight counting as that
    many samples of the value."""
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    need = pct / 100.0 * total
    seen = 0
    for value, weight in samples:
        seen += weight
        if seen >= need:
            return value
    return samples[-1][0]


def min_passes(per_pass: int) -> int:
    return max(MIN_PASSES, math.ceil(MIN_SAMPLES / per_pass))


def tail_percentile(per_pass: int) -> float:
    """Highest percentile with at least 10 samples beyond it in a run of
    the minimum length, so every run of a workload reads the same one."""
    samples = min_passes(per_pass) * per_pass
    return math.floor(1000.0 * (1 - 10 / samples)) / 10


def exact_counts(p: dict) -> dict:
    """What must repeat exactly between passes and runs with one seed."""
    keep = {"attempted": p["attempted"], "failed": p["failed"], "wrong": p["wrong"],
            "memo": p["memo"]}
    if "layers" in p:
        keep["layers"] = {k: v for k, v in p["layers"].items() if PER_LAYER[k][0] != "s"}
    return keep


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "hecke" / "cli.py").is_file():
        raise BenchError(f"no library source at {SRC / 'hecke'}")
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S + 20
    refs = [[d, b, reference.zeta_reference(d, b)] for d, b in workloads.zeta_points(name)]
    spawn(name, seed, "setup", refs, deadline)  # compiles bytecode; not measured
    probes: list = []
    passes: list = []
    start = time.monotonic()
    while True:
        probes += [spawn(name, seed, "setup", refs, deadline) for _ in range(SETUP_PROBES)]
        mode = "traced" if trace and len(passes) % 2 == 0 else "plain"
        passes.append(spawn(name, seed, mode, refs, deadline))
        elapsed = time.monotonic() - start
        longest = max(p["pass_s"] for p in passes) + sum(p["pass_s"] for p in probes[-SETUP_PROBES:])
        if len(passes) >= min_passes(passes[0]["attempted"]) and (elapsed + longest / 2 > seconds
                                          or time.monotonic() - began + longest > RUN_LIMIT_S):
            break

    counts = [exact_counts(p) for p in passes]
    base = [{k: v for k, v in c.items() if k != "layers"} for c in counts]
    layers = [c["layers"] for c in counts if "layers" in c]
    steady = all(b == base[0] for b in base) and all(x == layers[0] for x in layers)
    first = passes[0]
    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    setups = [p["setup_s"] for p in probes + passes]
    record = {
        "workload": name, "seed": seed, "machine": machine(),
        "passes": len(passes), "probes": len(probes),
        "pass_walls": [round(p["wall_s"], 4) for p in passes],
        "attempted": first["attempted"], "failed": first["failed"], "wrong": first["wrong"],
        "steady": steady, "correct": steady and all(p["wrong"] == 0 for p in passes),
        "problems": first["problems"], "memo": first["memo"], "exact": counts[0],
        "err_bound_max": first.get("err_bound_max", 0.0),
    }
    if trace:
        record["metrics"] = layer_metrics(traced, plain, probes + passes)
    else:
        record["metrics"], record["tail"] = end_to_end(plain, setups)
    return record


def end_to_end(plain: list, setups: list) -> tuple[dict, dict]:
    per_pass = [[(lat / weight * 1000.0, weight) for lat, weight, _ in p["ops"]] for p in plain]
    samples = [s for ops in per_pass for s in ops]
    pct = tail_percentile(plain[0]["attempted"])
    total = sum(w for _, w in samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(p["wall_s"] for p in plain),
        "ops_per_s": sum(p["attempted"] for p in plain) / sum(p["wall_s"] for p in plain),
        "op_ms_p50": statistics.fmean(weighted_percentile(ops, 50.0) for ops in per_pass),
        "op_ms_tail": weighted_percentile(samples, pct),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    return metrics, {"percentile": pct, "samples": total, "calls": len(samples),
                     "beyond": round(total * (1 - pct / 100.0), 1)}


def layer_metrics(traced: list, plain: list, workers: list) -> dict:
    m = {}
    for key in traced[0]["layers"]:
        values = [p["layers"][key] for p in traced]
        m[key] = statistics.median(values) if PER_LAYER[key][0] == "s" else values[0]
    m["kms.err_bound_max"] = traced[0].get("err_bound_max", 0.0)
    m["cli.import_s"] = statistics.median(p["import_s"] for p in workers)
    calls: dict = {}
    for p in traced + plain:
        for lat, _, label in p["ops"]:
            if label:
                calls.setdefault(label, []).append(lat * 1000.0)
    for label in workloads.CLI_CALLS:
        m[f"cli.call_ms.{label}"] = statistics.median(calls[label]) if label in calls else 0.0
    m["cli.errors"] = traced[0].get("cli_errors", 0)
    m["trace.overhead_share"] = (statistics.median(p["wall_s"] for p in traced)
                                 / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return {k: m[k] for k in PER_LAYER}


def report(record: dict, trace: bool) -> dict:
    """Print the human summary to stderr and return the JSON result."""
    err = sys.stderr
    units = {k: v[0] for k, v in PER_LAYER.items()} if trace else END_TO_END
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}", file=err)
    print(f"workload {record['workload']} seed {record['seed']}: {record['passes']} passes "
          f"of {record['pass_walls']} s, {record['probes']} set-up probes, trace={int(trace)}",
          file=err)
    for key, value in record["metrics"].items():
        print(f"  {key:40s} {value:.6g} {units[key]}", file=err)
    if "tail" in record:
        t = record["tail"]
        if t["calls"] == t["samples"]:
            print(f"  op_ms_tail is p{t['percentile']:g} of {t['samples']} timed calls "
                  f"({t['beyond']} beyond)", file=err)
        else:  # verify_sweep: one call checks many pairs and gives each its mean
            print(f"  op_ms_tail is p{t['percentile']:g} of {t['samples']} pairs, each the "
                  f"mean of its call, from only {t['calls']} timed calls", file=err)
    share = record["failed"] / record["attempted"]
    print(f"  fail_share {share:.6g} = {record['failed']} failed / {record['attempted']} "
          f"attempted per pass ({record['wrong']} wrong)", file=err)
    if record["workload"] == "thermal_states":
        print(f"  err_bound_max {record['err_bound_max']:.6g} abs", file=err)
    for line in record["problems"]:
        print(f"  failed: {line}", file=err)
    if not record["steady"]:
        print("  WARNING: passes of one run counted differently", file=err)
    print(f"memo: {json.dumps(record['memo'], sort_keys=True)}", file=err)
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.run.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(report(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
