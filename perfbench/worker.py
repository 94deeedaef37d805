"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is `setup` (import and build field contexts, then stop), `plain` or
`traced`.  The zeta references arrive as JSON on stdin; the result leaves
as one JSON object on stdout.  run.py starts this with PYTHONPATH set to
the library's source directory.
"""
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from reference import FIELDS
from tracer import LAYERS, Tracer

MODULES: dict = {}
LRU_LAYERS = ("numberfield", "kms", "cyclotomic", "oracle")


def memo_snapshot() -> dict:
    """Read-only sizes and hit counts of every memo table."""
    out = {}
    for layer in LRU_LAYERS:
        mod = MODULES[layer]
        for name, obj in sorted(vars(mod).items()):
            orig = getattr(obj, "_perfbench_orig", obj)
            if hasattr(orig, "cache_info") and orig.__module__ == mod.__name__:
                info = orig.cache_info()
                out[f"{layer}.{name}"] = {"hits": info.hits, "misses": info.misses,
                                          "size": info.currsize}
    torsion, symmetry = MODULES["torsion"], MODULES["symmetry"]
    out["torsion._orbit_cache"] = len(torsion._orbit_cache)
    out["torsion._stab_index_cache"] = len(torsion._stab_index_cache)
    out["symmetry._level_cache"] = len(symmetry._level_cache)
    unis = list(MODULES["oracle"]._universes.values())
    out["oracle._universes"] = {"universes": len(unis),
                                **{f: sum(len(getattr(u, f)) for u in unis)
                                   for f in ("reps", "prod", "phi", "std")}}
    return out


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def timed_counts(memo: dict, before: dict) -> dict:
    """The memo snapshot with hits and misses counted from `before`, so
    that set-up and the building of the operations are left out."""
    out = dict(memo)
    for key, info in before.items():
        if isinstance(info, dict) and "hits" in info:
            out[key] = dict(memo[key], hits=memo[key]["hits"] - info["hits"],
                            misses=memo[key]["misses"] - info["misses"])
    return out


def layer_metrics(tracer: Tracer, memo: dict) -> dict:
    """Per-layer numbers of one traced pass (cli numbers come from run.py);
    `memo` holds the hits and misses of the timed section only."""
    tot = tracer.totals()
    row = lambda name: tot.get(name, {"entries": 0, "calls": 0, "self_s": 0.0,
                                      "incl_s_by_parent": {}, "errors": 0})

    def layer_sum(layer, key):
        return sum(r[key] for n, r in tot.items() if n.startswith(layer + "."))

    def lru(layer):
        infos = [v for k, v in memo.items() if k.startswith(layer + ".") and isinstance(v, dict)
                 and "hits" in v]
        return sum(i["hits"] for i in infos), sum(i["misses"] for i in infos), \
            sum(i["size"] for i in infos)

    m = {}
    for layer in ("numberfield", "torsion", "cyclotomic", "pairing"):
        m[f"{layer}.calls"] = layer_sum(layer, "entries")
        m[f"{layer}.self_s"] = layer_sum(layer, "self_s")
    hits, misses, size = lru("numberfield")
    m["numberfield.cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["numberfield.cache_entries"] = size
    m["torsion.memo_entries"] = memo["torsion._orbit_cache"] + memo["torsion._stab_index_cache"]

    mul, make = row("hecke_algebra._mul_monomials"), row("hecke_algebra.Monomial.make")
    m["hecke_algebra.mul_calls"] = mul["calls"]
    m["hecke_algebra.mul_s"] = mul["self_s"]
    m["hecke_algebra.make_calls"] = make["calls"]
    m["hecke_algebra.make_s"] = make["self_s"]
    m["hecke_algebra.terms_out"] = tracer.counters["hecke_algebra.terms_out"]

    uni = memo["oracle._universes"]
    prod_calls = tracer.counters["oracle.prod_calls"]
    m["oracle.engine_s"] = mul["incl_s_by_parent"].get("oracle", 0.0)
    m["oracle.convolve_calls"] = row("oracle.convolve")["calls"]
    m["oracle.convolve_s"] = row("oracle.convolve")["self_s"]
    m["oracle.phi_s"] = row("oracle._phi_data")["self_s"]
    m["oracle.verify_self_s"] = row("oracle.verify_equivalence")["self_s"]
    m["oracle.prod_calls"] = prod_calls
    m["oracle.prod_hit_ratio"] = _ratio(prod_calls - uni["prod"], prod_calls)
    m["oracle.cosets_interned"] = uni["reps"]
    m["oracle.prod_memo_entries"] = uni["prod"]

    red = memo["cyclotomic._reduction_tail"]
    m["cyclotomic.reduction_cache_hit_ratio"] = _ratio(red["hits"], red["hits"] + red["misses"])

    table = memo["kms._residue_sums"]
    m["kms.extreme_calls"] = row("kms.phi_extreme_beta")["calls"]
    m["kms.extreme_s"] = row("kms.phi_extreme_beta")["self_s"]
    m["kms.table_builds"] = table["misses"]
    m["kms.table_s"] = row("kms._residue_sums")["self_s"]
    m["kms.table_hit_ratio"] = _ratio(table["hits"], table["hits"] + table["misses"])
    m["kms.zeta_calls"] = row("kms.zeta_k")["calls"]
    m["kms.zeta_s"] = row("kms.zeta_k")["self_s"]
    m["kms.sieve_s"] = row("kms._primes_up_to")["self_s"]
    m["kms.infty_calls"] = row("kms.phi_extreme_infty")["calls"]
    m["kms.infty_s"] = row("kms.phi_extreme_infty")["self_s"]

    m["symmetry.regularity_calls"] = row("symmetry.regularity_check")["calls"]
    m["symmetry.regularity_self_s"] = row("symmetry.regularity_check")["self_s"]
    m["symmetry.compare_s"] = row("symmetry.compare_actions")["self_s"]
    m["symmetry.lift_s"] = row("symmetry._min_lift_norm")["self_s"]
    m["symmetry.level_cache_entries"] = memo["symmetry._level_cache"]

    for layer in LAYERS:
        m[f"{layer}.errors"] = layer_sum(layer, "errors")
    return m


def setup() -> dict:
    """Import the library and build every field context: the set-up a
    user's process pays before its first call."""
    t = time.perf_counter()
    importlib.import_module("hecke.cli")
    import_s = time.perf_counter() - t
    for layer in LAYERS:
        MODULES[layer] = importlib.import_module(f"hecke.{layer}")
    for d in FIELDS:
        MODULES["numberfield"].make_ctx(d)
    return {"ready": time.monotonic(), "import_s": import_s}


def main() -> None:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    out = setup()
    if mode == "setup":
        print(json.dumps(out))
        return
    refs = {(d, b): v for d, b, v in json.load(sys.stdin)}
    h = SimpleNamespace(**MODULES)
    tracer = None
    if mode == "traced":
        tracer = Tracer(MODULES)
        tracer.install()
    ops = workloads.build(name, h, seed)
    before = memo_snapshot()

    clock = time.perf_counter
    begin = clock()
    if tracer:
        tracer.on = True
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i)
        t = clock()
        try:
            op.result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
        op.latency = clock() - t
        if tracer:
            tracer.end_op()
    wall = clock() - begin
    if tracer:
        tracer.on = False

    who = resource.RUSAGE_CHILDREN if name == "cli_oneshot" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    out["memo"] = memo_snapshot()
    workloads.check(name, h, ops, refs)

    out["wall_s"] = wall
    out["ops"] = [[op.latency, op.weight, op.label] for op in ops]
    out["attempted"] = sum(op.weight for op in ops)
    out["failed"] = sum(op.failed for op in ops)
    out["wrong"] = sum(op.wrong for op in ops)
    out["problems"] = sorted({workloads.describe(op) for op in ops if op.failed})[:40]
    if name == "cli_oneshot":
        out["cli_errors"] = sum(op.error is not None or op.result.returncode != 0 for op in ops)
    if name == "thermal_states":
        out["err_bound_max"] = workloads.err_bound_max(ops)
    if tracer:
        out["layers"] = layer_metrics(tracer, timed_counts(out["memo"], before))
        spans_dir = Path(os.environ["PERFBENCH_OUT"])
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{name}.spans.npz", f"{name} seed {seed}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
