"""Brute-force coset model of the pair (P_K, P_O) of ax+b groups.

P_K is realized as pairs (y, x) with y in K and x in K*, standing for
the matrix (1 y; 0 x), so that (y1, x1)(y2, x2) = (y2 + y1*x2, x1*x2).
The subgroup P_O has y integral and x a unit.  Everything the symbolic
algebra claims is checked here against explicit right cosets and the
convolution

    (f * g)(gamma) = sum over right cosets P_O gamma_1 of
                     f(gamma gamma_1^{-1}) g(gamma_1),

evaluated exactly with rational values.  Functions are stored on right
cosets; the fast product path below is valid because every function
built by this module is constant on double cosets (bi-invariant), which
the tests verify by translation sampling.

The right coset P_O(y, x) equals (y + xO, xO*), so a coset is keyed by
the canonical generator of the fractional ideal xO together with y
reduced modulo the lattice xO.  Keys are interned to integers and the
group products of coset representatives are memoized, which keeps the
full pairwise verification sweep in the minutes range.  The arithmetic
is the shared exact core of hecke.numberfield; what keeps the oracle
independent of the rewrite engine is the coset model, not the field
arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import LevelOverflowError
from .hecke_algebra import HeckeElement, Monomial, _mul_monomials
from .numberfield import (FieldCtx, FieldElem, canonical_generator,
                          frac_ideal_parts, gcd_gen, ideals_up_to,
                          reduce_mod, residues)
from .torsion import TorsionClass, stabilizer_index, torsion_class

__all__ = [
    "GroupElem", "CosetFunction", "right_cosets_in_double_coset",
    "count_R", "count_L", "convolve", "adjoint_fun", "identity_fun", "e_fun",
    "nu_fun", "nu_adj_fun", "theta_fun", "expected_monomial_function",
    "symbolic_to_oracle", "enumerate_monomials", "verify_equivalence",
    "DEFAULT_LEVEL",
]

DEFAULT_LEVEL = 10 ** 6


@lru_cache(maxsize=None)
def _x_canonical(x: "FieldElem") -> "FieldElem":
    """The canonical fractional generator of xO (num/den in lowest terms)."""
    num, den = frac_ideal_parts(x)
    return num / den


class GroupElem:
    """An element (y, x) of the ax+b group over K, with x nonzero."""

    __slots__ = ("y", "x")

    def __init__(self, y: FieldElem, x: FieldElem):
        if x.is_zero:
            raise ValueError("group elements need invertible x")
        self.y = y
        self.x = x

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        return GroupElem(other.y + self.y * other.x, self.x * other.x)

    def inverse(self) -> "GroupElem":
        return GroupElem(-self.y / self.x, 1 / self.x)

    def __eq__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        return self.y == other.y and self.x == other.x

    def __hash__(self):
        return hash((self.y, self.x))

    def __repr__(self):
        from .numberfield import format_element
        return f"({format_element(self.y)}; {format_element(self.x)})"


def identity_elem(ctx: FieldCtx) -> GroupElem:
    return GroupElem(ctx.zero, ctx.one)


def in_subgroup(g: GroupElem) -> bool:
    """Membership in P_O: integral translation part, unit scaling part."""
    return g.y.is_integral and g.x.is_unit


# ---------------------------------------------------------------------------
# interned right-coset keys, one universe per field


class _Universe:
    """Interning table for right-coset keys of one field.

    A coset is keyed by the canonical generator xc of xO and by y
    reduced modulo the lattice xc*O, both on the shared exact core;
    products of stored representatives are memoized by id pair.
    """

    __slots__ = ("ctx", "ids", "reps", "levels", "prod", "phi", "std")

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.ids: dict = {}
        self.reps: list[GroupElem] = []
        self.levels: list[int] = []
        self.prod: dict = {}
        self.phi: dict = {}
        self.std: dict = {}

    def key_id(self, y: FieldElem, x: FieldElem) -> int:
        xc = _x_canonical(x)
        yr = reduce_mod(y, xc)
        tag = (xc.e0, xc.e1, xc.q, yr.e0, yr.e1, yr.q)
        got = self.ids.get(tag)
        if got is not None:
            return got
        idx = self.ids[tag] = len(self.reps)
        self.reps.append(GroupElem(yr, xc))
        num, den = frac_ideal_parts(xc)
        ylev = 1 if yr.is_integral else int(frac_ideal_parts(yr)[1].norm())
        self.levels.append(max(int(num.norm()), int(den.norm()), ylev))
        return idx

    def elem_id(self, g: GroupElem) -> int:
        return self.key_id(g.y, g.x)

    def prod_id(self, i: int, j: int) -> int:
        key = (i << 22) | j
        got = self.prod.get(key)
        if got is None:
            g = self.reps[i] * self.reps[j]
            got = self.prod[key] = self.key_id(g.y, g.x)
        return got


_universes: dict = {}


def _universe(ctx: FieldCtx) -> _Universe:
    u = _universes.get(ctx.d)
    if u is None:
        u = _universes[ctx.d] = _Universe(ctx)
    return u


# ---------------------------------------------------------------------------
# coset functions


class CosetFunction:
    """Finitely supported rational function on right cosets P_O\\P_K."""

    __slots__ = ("ctx", "level", "data")

    def __init__(self, ctx: FieldCtx, data: dict | None = None,
                 level: int = DEFAULT_LEVEL):
        self.ctx = ctx
        self.level = level
        self.data = {}
        if data:
            uni = _universe(ctx)
            for i, q in data.items():
                q = Fraction(q)
                if not q:
                    continue
                if uni.levels[i] > level:
                    raise LevelOverflowError(
                        f"coset {uni.reps[i]!r} exceeds level {level}")
                self.data[i] = q

    def value_at(self, g: GroupElem) -> Fraction:
        """The value on the right coset of g."""
        return self.data.get(_universe(self.ctx).elem_id(g), Fraction(0))

    def support(self) -> list[GroupElem]:
        uni = _universe(self.ctx)
        return [uni.reps[i] for i in sorted(self.data)]

    def __add__(self, other: "CosetFunction") -> "CosetFunction":
        out = dict(self.data)
        for i, q in other.data.items():
            out[i] = out.get(i, 0) + q
        return CosetFunction(self.ctx, out, max(self.level, other.level))

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def __mul__(self, scalar) -> "CosetFunction":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return CosetFunction(
            self.ctx, {i: q * scalar for i, q in self.data.items()},
            self.level)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CosetFunction):
            return NotImplemented
        return self.ctx == other.ctx and self.data == other.data

    @property
    def is_zero(self) -> bool:
        return not self.data

    def __repr__(self):
        uni = _universe(self.ctx)
        bits = [f"{q}@{uni.reps[i]!r}" for i, q in sorted(self.data.items())]
        return "{" + ", ".join(bits) + "}"


def _convolve_data(uni: _Universe, d1: dict, d2: dict) -> dict:
    prod_id = uni.prod_id
    out: dict = {}
    for i, qf in d1.items():
        for j, qg in d2.items():
            k = prod_id(i, j)
            v = out.get(k)
            out[k] = qf * qg if v is None else v + qf * qg
    return {k: v for k, v in out.items() if v}


def convolve(f: CosetFunction, g: CosetFunction) -> CosetFunction:
    """Convolution over right cosets.

    Exact for f constant on double cosets and g any coset function:
    the pair of support cosets P_O a (for f) and P_O b (for g)
    contributes f(a)g(b) on the single right coset P_O ab.
    """
    uni = _universe(f.ctx)
    data = _convolve_data(uni, f.data, g.data)
    level = max(f.level, g.level)
    levels = uni.levels
    for i in data:
        if levels[i] > level:
            raise LevelOverflowError(
                f"coset {uni.reps[i]!r} exceeds level {level}")
    out = CosetFunction(f.ctx)
    out.level = level
    out.data = data
    return out


def adjoint_fun(f: CosetFunction) -> CosetFunction:
    """f^*(gamma) = f(gamma^{-1}); requires f constant on double cosets.

    The value at a support coset spreads over the whole double coset of
    the inverted representative, since the inverse double coset may
    split into a different number of right cosets.
    """
    uni = _universe(f.ctx)
    out: dict = {}
    for i, q in f.data.items():
        for rep in right_cosets_in_double_coset(uni.reps[i].inverse()):
            k = uni.elem_id(rep)
            if k in out and out[k] != q:
                raise ValueError("adjoint of a non-bi-invariant function")
            out[k] = q
    return CosetFunction(f.ctx, out, f.level)


# ---------------------------------------------------------------------------
# cosets of double cosets and the counting formulas


def right_cosets_in_double_coset(gamma: GroupElem) -> list[GroupElem]:
    """Canonical representatives of the right cosets inside P_O gamma P_O.

    P_O gamma (m, u) = P_O(m + y u, x u), with m running over O modulo
    O intersect xO = (numerator of x)O and u over the units.
    """
    ctx = gamma.y.ctx
    uni = _universe(ctx)
    num, _den = frac_ideal_parts(gamma.x)
    seen = {}
    for u in ctx.units:
        yu = gamma.y * u
        xu = gamma.x * u
        for m in residues(num):
            i = uni.key_id(yu + m, xu)
            if i not in seen:
                seen[i] = uni.reps[i]
    return [seen[i] for i in sorted(seen)]


def _count_R_formula(gamma: GroupElem) -> int:
    # R(gamma) = [O^* : stab(y mod (O + xO))] * [O : O cap xO]; with
    # x = p/q in coprime form, O + xO = (1/q)O and O cap xO = pO, so the
    # first factor is the unit-orbit size of the class of y*q.
    num, den = frac_ideal_parts(gamma.x)
    orbit = stabilizer_index(torsion_class(gamma.y * den))
    return orbit * int(num.norm())


def count_R(gamma: GroupElem) -> int:
    """Number of right cosets in P_O gamma P_O.

    Computed by the index formula and by explicit enumeration, which
    are asserted to agree.
    """
    formula = _count_R_formula(gamma)
    enumerated = len(right_cosets_in_double_coset(gamma))
    assert formula == enumerated, (
        f"coset count mismatch at {gamma!r}: formula {formula}, "
        f"enumerated {enumerated}")
    return formula


def count_L(gamma: GroupElem) -> int:
    """Number of left cosets in P_O gamma P_O; equals R of the inverse."""
    return count_R(gamma.inverse())


# ---------------------------------------------------------------------------
# the standard functions


def identity_fun(ctx: FieldCtx, level: int = DEFAULT_LEVEL) -> CosetFunction:
    """The characteristic function of P_O, the convolution identity."""
    uni = _universe(ctx)
    return CosetFunction(ctx, {uni.key_id(ctx.zero, ctx.one): 1}, level)


def e_fun(r: FieldElem, level: int = DEFAULT_LEVEL) -> CosetFunction:
    """Indicator of the single right coset P_O(r, 1)."""
    ctx = r.ctx
    uni = _universe(ctx)
    return CosetFunction(ctx, {uni.key_id(r, ctx.one): 1}, level)


def _indicator_dc(gamma: GroupElem, value, level: int) -> CosetFunction:
    ctx = gamma.y.ctx
    uni = _universe(ctx)
    data = {uni.elem_id(rep): value
            for rep in right_cosets_in_double_coset(gamma)}
    return CosetFunction(ctx, data, level)


def nu_fun(a: FieldElem, level: int = DEFAULT_LEVEL) -> CosetFunction:
    """The unnormalized isometry function: indicator of P_O(0, a)P_O."""
    if not a.is_integral or a.is_zero:
        raise ValueError("nu index must be nonzero integral")
    return _indicator_dc(GroupElem(a.ctx.zero, a), 1, level)


def nu_adj_fun(a: FieldElem, level: int = DEFAULT_LEVEL) -> CosetFunction:
    """Indicator of P_O(0, 1/a)P_O, the adjoint of nu_fun(a)."""
    if not a.is_integral or a.is_zero:
        raise ValueError("nu index must be nonzero integral")
    return _indicator_dc(GroupElem(a.ctx.zero, 1 / a), 1, level)


def theta_fun(r, level: int = DEFAULT_LEVEL) -> CosetFunction:
    """The function of the double coset of (r, 1), value 1/R on each of
    its R right cosets."""
    if isinstance(r, TorsionClass):
        r = r.rep
    ctx = r.ctx
    R = stabilizer_index(torsion_class(r))
    return _indicator_dc(GroupElem(r, ctx.one), Fraction(1, R), level)


def expected_monomial_function(m: Monomial,
                               level: int = DEFAULT_LEVEL) -> CosetFunction:
    """Closed-form image of a canonical monomial, bypassing convolution.

    M(a, r, b) is supported on the double coset of (r b, b/a) and takes
    the constant value 1/R(a b r) there, in the rational normalization
    where the isometry generators are plain indicator functions.
    """
    ctx = m.ctx
    rb = m.r.rep * m.b
    x = m.b / m.a
    R = stabilizer_index(m.r.scaled(m.a * m.b))
    return _indicator_dc(GroupElem(rb, x), Fraction(1, R), level)


# ---------------------------------------------------------------------------
# the correspondence with the symbolic algebra


def _std_data(uni: _Universe, kind: str, key) -> dict:
    """Cached support data of the generator functions nu_a, nu_a^* and
    theta_r, so repeated monomial images reuse them."""
    k = (kind, key)
    got = uni.std.get(k)
    if got is None:
        ctx = uni.ctx
        if kind == "nu":
            f = _indicator_dc(GroupElem(ctx.zero, key), 1, DEFAULT_LEVEL)
        elif kind == "nuadj":
            f = _indicator_dc(GroupElem(ctx.zero, 1 / key), 1, DEFAULT_LEVEL)
        else:
            R = stabilizer_index(key)
            f = _indicator_dc(GroupElem(key.rep, ctx.one),
                              Fraction(1, R), DEFAULT_LEVEL)
        got = uni.std[k] = f.data
    return got


def _phi_data(m: Monomial) -> tuple[dict, int]:
    """Cached support data of the oracle image of one monomial, with the
    largest key level occurring in it."""
    uni = _universe(m.ctx)
    got = uni.phi.get(m)
    if got is None:
        data = _convolve_data(uni, _std_data(uni, "nuadj", m.a),
                              _std_data(uni, "theta", m.r))
        data = _convolve_data(uni, data, _std_data(uni, "nu", m.b))
        maxlev = max((uni.levels[i] for i in data), default=1)
        got = uni.phi[m] = (data, maxlev)
    return got


def _phi(m: Monomial, level: int = DEFAULT_LEVEL) -> CosetFunction:
    data, maxlev = _phi_data(m)
    if maxlev > level:
        raise LevelOverflowError(
            f"image of {m!r} needs level {maxlev}, bound is {level}")
    out = CosetFunction(m.ctx)
    out.level = level
    out.data = dict(data)
    return out


def symbolic_to_oracle(x: HeckeElement,
                       level: int = DEFAULT_LEVEL) -> CosetFunction:
    """Linear map sending M(a, r, b) to nu_a^* * theta_r * nu_b.

    This rational rescaling of the representation by functions drops a
    factor sqrt(N_a N_b) per monomial, so products correspond up to the
    integer factor checked in verify_equivalence.
    """
    out = CosetFunction(x.ctx, {}, level)
    for m, q in x.terms.items():
        out = out + _phi(m, level) * q
    return out


def enumerate_monomials(ctx: FieldCtx, bound: int) -> list[Monomial]:
    """All canonical monomials with slot norms and label denominator
    norms at most the bound."""
    gens = [ideal.gen for ideal in ideals_up_to(ctx, bound)]
    out = set()
    for a in gens:
        for b in gens:
            if not gcd_gen(a, b).is_unit:
                continue
            for f in gens:
                for e in residues(f):
                    out.add(Monomial.make(ctx, a, e / f, b))
    return sorted(out, key=Monomial.sort_key)


def _product_scale(m1: Monomial, m2: Monomial, prod: dict) -> int:
    """The integer kappa with Phi(m1) * Phi(m2) = kappa * Phi(m1 m2).

    Two independent routes: the norm bookkeeping of the rewrite engine
    (kappa = N_g N_h for the two gcd extractions) and the square root of
    the norm ratio read off the output slots.  Both are computed and
    must agree.
    """
    g = gcd_gen(m1.b, m2.a)
    c1 = m2.a / g
    h = gcd_gen(canonical_generator(m1.a * c1), m2.b)
    kappa = int(g.norm() * h.norm())

    some = next(iter(prod))
    num = (m1.a.norm() * m1.b.norm() * m2.a.norm() * m2.b.norm())
    den = some.a.norm() * some.b.norm()
    ratio = Fraction(int(num), int(den))
    assert ratio.denominator == 1
    root = isqrt(int(ratio))
    assert root * root == int(ratio), "norm ratio is not a perfect square"
    assert root == kappa, f"scale mismatch: {root} vs {kappa}"
    return kappa


def verify_equivalence(ctx: FieldCtx, bound: int,
                       level: int = DEFAULT_LEVEL,
                       max_failures: int = 10) -> dict:
    """Sweep all ordered pairs of canonical monomials within the bound
    and compare the rewrite engine with the convolution, exactly.

    Returns a report {"field", "bound", "monomials", "checked",
    "failures": [...]}; an empty failure list means every product
    agreed.
    """
    mons = enumerate_monomials(ctx, bound)
    report = {"field": ctx.tag, "bound": bound, "monomials": len(mons),
              "checked": 0, "failed": 0, "failures": []}
    phis = {m: _phi(m, level) for m in mons}
    for m1 in mons:
        f1 = phis[m1]
        for m2 in mons:
            report["checked"] += 1
            try:
                prod = _mul_monomials(m1, m2)
                kappa = _product_scale(m1, m2, prod)
                got = convolve(f1, phis[m2])
                want: dict = {}
                for m, q in prod.items():
                    kq = kappa * q
                    for i, v in _phi_data(m)[0].items():
                        want[i] = want.get(i, 0) + kq * v
                ok = got.data == {i: v for i, v in want.items() if v}
                detail = "" if ok else "support or value mismatch"
            except AssertionError as exc:
                ok, detail = False, str(exc)
            if not ok:
                report["failed"] += 1
                if len(report["failures"]) < max_failures:
                    report["failures"].append(
                        {"left": repr(m1), "right": repr(m2),
                         "detail": detail})
    return report
