"""The four workloads: their operations, in seeded order, and their checks.

An operation's inputs are made from plain integers by the benchmark; each
operation then calls the library through its module attributes, so that a
traced pass sees every call.  `check` runs after the timed section and sets,
for each operation, how many of its units failed (missed their contract:
an exception, an error bound above the requested tolerance, a non-zero
exit) and how many of those were wrong (a value that disagrees with the
independent reference).
"""
from __future__ import annotations

import cmath
import json
import os
import random
import subprocess
import sys

import reference as ref

NAMES = ("verify_sweep", "ground_states", "thermal_states", "cli_oneshot")

# (field, norm bound, canonical monomials expected at that bound)
VERIFY_SWEEPS = ((0, 6, 87), (1, 4, 9), (3, 4, 13))
GROUND_FIELDS, GROUND_BOUND = (0, 1, 3), 20
COMPARE_LEVELS = ((0, 4), (0, 5), (0, 8), (0, 9), (0, 12), (1, 5))
THERMAL_BETAS, THERMAL_BOUND, THERMAL_TOL = (1.5, 2.0, 3.0), 100_000, 1e-7
LIMIT_LEVEL, LIMIT_BETAS, LIMIT_BOUND, LIMIT_TOL = (1, (5, 0)), (5.0, 10.0, 20.0), 2000, 1e-10
ZETA_TOL = 1e-7


def zeta_points(name: str) -> list[tuple[int, float]]:
    """The (field, beta) points whose reference zeta value the checks need."""
    if name == "thermal_states":
        return [(d, b) for d in ref.FIELDS for b in THERMAL_BETAS]
    if name == "cli_oneshot":
        return [(1, 2.0)]
    return []


class Op:
    __slots__ = ("call", "weight", "label", "group", "result", "error",
                 "latency", "failed", "wrong", "data")

    def __init__(self, call, weight=1, label=None, group=None, data=None):
        self.call, self.weight, self.label = call, weight, label
        self.group, self.data = group, data
        self.result = self.error = None
        self.latency = 0.0
        self.failed = self.wrong = 0

    def mark(self, wrong: bool, failed: int | None = None) -> None:
        self.failed = max(self.failed, self.weight if failed is None else failed)
        if wrong:
            self.wrong = self.failed


def _elem(ctx, p):
    return ctx.elem(p[0], p[1]) if ctx.d else ctx.elem(p[0])


# ---------------------------------------------------------------------------
# verify_sweep: one operation is one checked monomial pair; a call of
# verify_equivalence checks all pairs at one bound.


def verify_ops(h, rng):
    ops = []
    for d, bound, mons in VERIFY_SWEEPS:
        ctx = h.numberfield.make_ctx(d)
        ops.append(Op(lambda ctx=ctx, b=bound: h.oracle.verify_equivalence(ctx, b),
                      weight=mons * mons, data=mons))
    rng.shuffle(ops)
    return ops


def verify_check(h, ops, refs):
    for op in ops:
        if op.error is not None:
            op.mark(False)
            continue
        rep = op.result
        if rep["monomials"] != op.data or rep["checked"] != op.weight:
            op.mark(True)
        elif rep["failed"]:
            op.mark(True, rep["failed"])


# ---------------------------------------------------------------------------
# ground_states: regularity_check at every level up to the bound, and
# compare_actions on every (g, w, r) at a few levels, each built from plain
# coordinates inside the operation, as the CLI builds it.


def ground_ops(h, rng):
    ops = []
    for d in GROUND_FIELDS:
        ctx = h.numberfield.make_ctx(d)
        for c in ref.levels_up_to(d, GROUND_BOUND):
            ops.append(Op(lambda ctx=ctx, c=_elem(ctx, c): h.symmetry.regularity_check(c),
                          group="regularity", data=(d, c)))
    for d, k in COMPARE_LEVELS:
        ctx = h.numberfield.make_ctx(d)
        res = ref.Residues(d, (k, 0))
        reps = res.group_reps()
        for g in reps:
            for w in reps:
                for r in res.reps:
                    ops.append(Op(lambda ctx=ctx, k=k, w=w, g=g, r=r: _compare(h, ctx, k, w, g, r),
                                  group="compare", data=(d, k, w, g, r)))
    rng.shuffle(ops)
    return ops


def _compare(h, ctx, k, w, g, r):
    c = ctx.elem(k)
    chi = h.pairing.CharacterPoint.make(ctx, c, _elem(ctx, w))
    sym = h.symmetry.SymmetryElem.make(ctx, c, _elem(ctx, g))
    tc = h.torsion.torsion_class(_elem(ctx, r) / c)
    return h.symmetry.compare_actions(tc, chi, sym), tc, chi, sym


def ground_check(h, ops, refs):
    # the README's d1 example: level 5, w = 1, j = 3, r = 1/5, up to the
    # global units acting on w and j
    res5 = ref.Residues(1, (5, 0))
    orbit = lambda z: {res5.key(ref.mul(1, z, u)) for u in ref.units(1)}
    w_orbit, j_orbit = orbit((1, 0)), orbit((3, 0))
    geo_want = (2 + 2 * cmath.cos(6 * cmath.pi / 5)) / 4
    ari_want = (2 + 2 * cmath.cos(8 * cmath.pi / 5)) / 4
    witnesses = 0
    for op in ops:
        if op.error is not None:
            op.mark(False)
            continue
        if op.group == "regularity":
            d, c = op.data
            rep, order = op.result, ref.Residues(d, c).group_order()
            if not (rep["all_ok"] and rep["group_order"] == order
                    and rep["extreme_classes"] == order):
                op.mark(True)
            continue
        d, k, w, g, r = op.data
        rep, tc, chi, sym = op.result
        if d == 0:
            ok = rep["equal"] is True
        else:
            moved = h.torsion.torsion_class(sym.j * tc.rep)
            ok = rep["geometric_value"] == h.kms.phi_extreme_infty(moved, chi)
            if (k, r) == (5, (1, 0)) and res5.key(w) in w_orbit and res5.key(g) in j_orbit:
                witnesses += 1
                ok = (ok and rep["equal"] is False
                      and abs(rep["geometric_value"].numeric() - geo_want) < 1e-12
                      and abs(rep["arithmetic_value"].numeric() - ari_want) < 1e-12)
        if not ok:
            op.mark(True)
    if witnesses != 1:
        raise AssertionError(f"expected the README witness once, found {witnesses}")


# ---------------------------------------------------------------------------
# thermal_states: finite-beta extreme states at every class and symmetry
# representative, the ground-state limit sweep, and zeta_k for every field.


def thermal_ops(h, rng):
    nf, kms = h.numberfield, h.kms
    ops = []
    for d in GROUND_FIELDS:
        ctx = nf.make_ctx(d)
        for c in ref.levels_up_to(d, GROUND_BOUND):
            ops += _state_ops(h, ctx, c, THERMAL_BETAS, THERMAL_BOUND, THERMAL_TOL, "identity")
    d, c = LIMIT_LEVEL
    ops += _state_ops(h, nf.make_ctx(d), c, LIMIT_BETAS, LIMIT_BOUND, LIMIT_TOL, "limit")
    for d in ref.FIELDS:
        ctx = nf.make_ctx(d)
        for beta in THERMAL_BETAS:
            ops.append(Op(lambda ctx=ctx, b=beta: kms.zeta_k(ctx, b, tol=ZETA_TOL),
                          group="zeta", data=(d, beta)))
    rng.shuffle(ops)
    return ops


def _state_ops(h, ctx, c, betas, bound, tol, kind):
    """The states of one level.  The level, each class, character and
    parameter set is built by the first operation that needs it, inside the
    timed section, as a caller builds them; later operations reuse it."""
    res = ref.Residues(ctx.d, c)
    made: dict = {}

    def get(key, make):
        if key not in made:
            made[key] = make()
        return made[key]

    def state(p, w, beta):
        level = get("level", lambda: _elem(ctx, c))
        tc = get(("tc", p), lambda: h.torsion.torsion_class(_elem(ctx, p) / level))
        chi = get(("chi", w), lambda: h.pairing.CharacterPoint.make(ctx, level, _elem(ctx, w)))
        params = get(("params", beta), lambda: h.kms.KmsParams(beta=beta, bound=bound, tol=tol))
        return h.kms.phi_extreme_beta(tc, chi, params)

    ops = []
    for p in res.reps:
        for beta in betas:
            for w in res.group_reps():
                key = (ctx.d, c, p, beta) if kind == "identity" else (p, w)
                ops.append(Op(lambda p=p, w=w, beta=beta: state(p, w, beta),
                              group=kind, data=(key, made, p, w, beta)))
    return ops


def thermal_check(h, ops, refs):
    groups: dict = {}
    for op in ops:
        if op.group == "zeta":
            if op.error is not None:
                op.mark(False)
                continue
            value, err = op.result
            if abs(value - refs[op.data]) > err:
                op.mark(True)
            elif err > ZETA_TOL:
                op.mark(False)
        else:
            groups.setdefault((op.group, op.data[0]), []).append(op)
    for (kind, _), members in groups.items():
        _, made, p, w, beta = members[0].data
        if any(op.error is not None for op in members):
            ok = None
        elif kind == "identity":
            vals = [op.result[0] for op in members]
            errs = [op.result[1] for op in members]
            want = float(h.kms.phi_symmetric(made[("tc", p)], beta))
            ok = abs(sum(vals) / len(vals) - want) <= sum(errs) / len(errs)
        else:
            target = h.kms.phi_extreme_infty(made[("tc", p)], made[("chi", w)]).numeric()
            members.sort(key=lambda op: op.data[4])
            gaps = [abs(op.result[0] - target) for op in members]
            ok = (all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
                  and gaps[-1] < 1e-4)
        if not ok:
            for op in members:
                op.mark(ok is not None)


def describe(op: Op) -> str:
    """One line naming a failed operation and why it failed."""
    what = op.label or op.group or "verify"
    if op.error is not None:
        return f"{what}: {op.error}"
    if op.group == "zeta":
        return f"zeta_k field d{op.data[0]} beta {op.data[1]}: err {op.result[1]:.3g}"
    return f"{what}: {'wrong value' if op.wrong else 'contract missed'}"


def err_bound_max(ops) -> float:
    return max((op.result[1] for op in ops if op.result is not None), default=0.0)


# ---------------------------------------------------------------------------
# cli_oneshot: the README examples, each in a fresh interpreter.

CLI_CALLS = {
    "field": (["field", "--field", "d1"],
              {"delta": "2*w", "discriminant": -4, "field": "d1", "omega": "w",
               "rational": False, "units": ["1", "-1", "w", "-w"]}),
    "mul_q": (["mul", "--field", "q", "mu(2)", "mu(3)"],
              {"field": "Q", "terms": [{"a": "1", "b": "6", "coeff": {"exact": "1", "numeric": 1.0},
                                        "r": "0"}]}),
    "mul_d1": (["mul", "--field", "d1", "mu(2) theta(1/2)", "mustar(2)"],
               {"field": "d1", "terms": [
                   {"a": "1", "b": "1", "coeff": {"exact": "1/2", "numeric": 0.5}, "r": "1/4*w"},
                   {"a": "1", "b": "1", "coeff": {"exact": "1/2", "numeric": 0.5}, "r": "1/4 + 1/2*w"}]}),
    "kms_symmetric": (["kms", "--field", "q", "--beta", "2", "--r", "(1)/(2)"],
                      {"beta": "2", "exact": "-1/2", "field": "Q", "numeric": -0.5}),
    "kms_inf": (["kms", "--field", "d1", "--beta", "inf", "--extreme", "--level", "5", "--w", "1",
                 "--r", "(1)/(5)"],
                {"beta": "inf", "cyclotomic": {"coeffs": ["1/4", "0", "-1/4", "-1/4"], "m": 5},
                 "field": "d1", "level": "5", "numeric": [0.6545084971874737, -2.7755575615628914e-17],
                 "w": "1"}),
    "kms_beta": (["kms", "--field", "d1", "--beta", "2", "--extreme", "--level", "1+1*w", "--w", "1",
                  "--r", "(1)/(1+1*w)"],
                 {"beta": "2", "bound": 100000, "err": 2.093867664374674e-05, "field": "d1",
                  "level": "1 - w", "numeric": [-0.5000000010986357, 0.0], "w": "1"}),
    "zeta": (["zeta", "--field", "d1", "--beta", "2"],
             {"beta": 2.0, "err": 1.3672840399709657e-07, "field": "d1", "value": 1.5067030071588796}),
    "pair": (["pair", "--field", "q", "--level", "5", "--w", "2", "--r", "(1)/(5)"],
             {"exponent": "2/5", "field": "Q", "numeric": [-0.8090169943749473, 0.5877852522924732],
              "order": 5}),
    "verify": (["verify", "--field", "q", "--level", "3"],
               {"checked": 169, "failures": [], "field": "Q", "level": 3, "monomials": 13}),
    "galois_compare": (["galois-compare", "--field", "d1", "--level", "5", "--w", "1", "--j", "3",
                        "--r", "(1)/(5)"],
                       {"equal": False, "field": "d1", "j": "3", "level": "5", "w": "1",
                        "geometric": [(2 + 2 * cmath.cos(6 * cmath.pi / 5)).real / 4, 0.0],
                        "arithmetic": [(2 + 2 * cmath.cos(8 * cmath.pi / 5)).real / 4, 0.0]}),
    "regularity": (["regularity", "--field", "d1", "--level", "5"],
                   {"all_ok": True, "counts_match": True, "extreme_classes": 4, "field": "d1",
                    "free": True, "group_order": 4, "level": "5", "orbits_align": True,
                    "transitive": True, "transport_ok": True}),
}


def cli_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HECKE_LEVEL_MAX"}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_ops(h, rng):
    env = cli_env(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    names = sorted(CLI_CALLS)
    rng.shuffle(names)
    return [Op(lambda argv=[sys.executable, "-m", "hecke.cli", *CLI_CALLS[name][0]]:
               subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120),
               label=name)
            for name in names]


def cli_check(h, ops, refs):
    for op in ops:
        if op.error is not None or op.result.returncode != 0:
            op.mark(False)
            continue
        try:
            got = json.loads(op.result.stdout)
        except ValueError:
            op.mark(True)
            continue
        want = CLI_CALLS[op.label][1]
        if op.label == "galois_compare":
            got = dict(got, geometric=got["geometric"]["numeric"],
                       arithmetic=got["arithmetic"]["numeric"])
        if not ref.values_match(got, want):
            op.mark(True)
        elif op.label == "zeta":
            if abs(got["value"] - refs[(1, 2.0)]) > got["err"]:
                op.mark(True)
            elif got["err"] > ZETA_TOL:
                op.mark(False)


BUILD = {"verify_sweep": verify_ops, "ground_states": ground_ops,
         "thermal_states": thermal_ops, "cli_oneshot": cli_ops}
CHECK = {"verify_sweep": verify_check, "ground_states": ground_check,
         "thermal_states": thermal_check, "cli_oneshot": cli_check}


def build(name: str, h, seed: int) -> list[Op]:
    return BUILD[name](h, random.Random(seed))


def check(name: str, h, ops, refs) -> None:
    CHECK[name](h, ops, refs)
