"""Span tracer installed into the `hecke` modules from outside.

Every public function of a layer module, a few named private ones, and a
few methods are replaced, in every module namespace that binds them, by a
wrapper that records a span.  A call made from inside the same layer runs
unwrapped, so a span marks one call into a layer from outside; the
functions in OWN_SPANS get a span on every call, because a per-layer
metric names them.  FieldElem and TorsionClass operators are left alone:
they run millions of times per pass and their time counts as self time
of the layer that calls them.

Spans stay in memory as (name, start_ns, end_ns, parent, op) rows and are
written out once, after the pass.
"""
from __future__ import annotations

import time
from array import array

LAYERS = ("numberfield", "torsion", "cyclotomic", "hecke_algebra", "oracle",
          "pairing", "kms", "symmetry")

PRIVATE = {"hecke_algebra._mul_monomials", "oracle._phi_data",
           "kms._residue_sums", "kms._primes_up_to", "symmetry._min_lift_norm"}

OWN_SPANS = {"hecke_algebra._mul_monomials", "hecke_algebra.Monomial.make",
             "oracle.convolve", "oracle._phi_data", "kms._residue_sums",
             "kms._primes_up_to", "kms.zeta_k", "symmetry._min_lift_norm"}

METHODS = {
    ("hecke_algebra", "Monomial"): ("make",),
    ("torsion", "TorsionClass"): ("scaled",),
    ("pairing", "CharacterPoint"): ("make", "twisted", "restricted"),
    ("symmetry", "SymmetryElem"): ("make", "inverse", "__mul__", "is_identity"),
    ("cyclotomic", "CycloNum"): None,  # every method but __repr__
}

BENCH = "bench"


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules          # layer name -> module
        self.on = False
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans = array("q")         # 5 ints per span
        self.stack: list[list] = []     # [layer, name_id, start, child_ns, idx]
        self.stats: dict = {}           # (name_id, parent_layer) -> [calls, self, incl, errors]
        self.counters: dict = {"hecke_algebra.terms_out": 0, "oracle.prod_calls": 0}
        self.op_id = -1
        self._wrappers: dict = {}

    # -- installation

    def install(self) -> None:
        homes = {mod.__name__: layer for layer, mod in self.modules.items()}
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                layer = homes.get(getattr(obj, "__module__", None))
                if layer is None or isinstance(obj, type) or not callable(obj):
                    continue
                span = f"{layer}.{name}"
                if name.startswith("_") and span not in PRIVATE:
                    continue
                setattr(mod, name, self._wrapped(obj, span, layer))
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(self.modules[layer], cls_name)
            if names is None:
                names = [n for n, v in vars(cls).items()
                         if n != "__repr__" and callable(getattr(v, "__func__", v))]
            for name in names:
                raw = vars(cls)[name]
                span = f"{layer}.{cls_name}.{name}"
                if isinstance(raw, classmethod):
                    setattr(cls, name, classmethod(self._wrapped(raw.__func__, span, layer)))
                else:
                    setattr(cls, name, self._wrapped(raw, span, layer))
        uni = self.modules["oracle"]._Universe
        prod_id = uni.prod_id
        counters = self.counters

        def counted_prod_id(self_, i, j):
            counters["oracle.prod_calls"] += 1
            return prod_id(self_, i, j)

        uni.prod_id = counted_prod_id

    def _wrapped(self, fn, span: str, layer: str):
        got = self._wrappers.get(id(fn))
        if got is not None:
            return got
        nid = len(self.names)
        self.names.append(span)
        self.layer_of.append(layer)
        own = span in OWN_SPANS
        count_terms = span == "hecke_algebra._mul_monomials"
        tracer = self
        stack = self.stack
        spans = self.spans
        stats = self.stats
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.on or (stack and stack[-1][0] == layer and not own):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            idx = len(spans) // 5
            start = clock()
            spans.extend((nid, start, 0, parent[4] if parent else -1, tracer.op_id))
            frame = [layer, nid, start, 0, idx]
            stack.append(frame)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans[idx * 5 + 2] = end
                incl = end - start
                if parent is not None:
                    parent[3] += incl
                key = (nid, parent[0] if parent else BENCH)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0, 0, 0]
                st[0] += 1
                st[1] += incl - frame[3]
                st[2] += incl
                st[3] += failed
            if count_terms:
                tracer.counters["hecke_algebra.terms_out"] += len(out)
            return out

        wrapper._perfbench_orig = fn
        self._wrappers[id(fn)] = wrapper
        return wrapper

    # -- operations issued by the benchmark

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        start = time.perf_counter_ns()
        self.stack.append([BENCH, -1, start, 0, len(self.spans) // 5])
        self.spans.extend((-1, start, 0, -1, op_id))

    def end_op(self) -> None:
        frame = self.stack.pop()
        self.spans[frame[4] * 5 + 2] = time.perf_counter_ns()

    # -- results

    def totals(self) -> dict:
        """Per span name: entry calls (from another layer), all calls,
        self seconds, inclusive seconds by parent layer, errors."""
        out: dict = {}
        for (nid, parent_layer), (calls, self_ns, incl_ns, errors) in self.stats.items():
            name = self.names[nid]
            row = out.setdefault(name, {"entries": 0, "calls": 0, "self_s": 0.0,
                                        "incl_s_by_parent": {}, "errors": 0})
            row["calls"] += calls
            if parent_layer != self.layer_of[nid]:
                row["entries"] += calls
            row["self_s"] += self_ns / 1e9
            byp = row["incl_s_by_parent"]
            byp[parent_layer] = byp.get(parent_layer, 0.0) + incl_ns / 1e9
            row["errors"] += errors
        return out

    def write(self, path, run_id: str) -> None:
        """Save the spans: rows of (name id, start ns, end ns, parent row,
        op id), with name id -1 for the benchmark's root span of an op."""
        import numpy as np

        np.savez_compressed(path, spans=np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 5),
                            names=np.array(self.names), run=np.array(run_id))
