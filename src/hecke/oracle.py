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
reduced modulo the lattice xO.  Keys are interned to integers, with no
bound on the level of a coset: the model is the algebra as defined, and
callers bound the sizes they ask for (the CLI caps them).  A
convolution groups each operand's support by scaling part, so the
canonical generator of x1*x2*O and its inverse are found once per pair
of scaling parts; each product coset is then keyed by integer
arithmetic on the translation parts alone, and values are summed as
integer numerators over one common denominator.  verify_equivalence
stays on integers for each pair: it convolves the numerators of the two
monomial images, computed once per monomial, with the pair plans against
each right image built once per run of left monomials with equal slots,
and compares them with the engine's product scaled to the same
denominator.  The arithmetic is the shared exact core of
hecke.numberfield; what keeps the oracle independent of the rewrite
engine is the coset model, not the field arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .hecke_algebra import HeckeElement, Monomial, _mul_monomials
from .numberfield import (FieldCtx, FieldElem, _numerators,
                          canonical_generator, frac_ideal_parts, gcd_gen,
                          ideals_up_to, residues)
from .torsion import TorsionClass, stabilizer_index, torsion_class

__all__ = [
    "GroupElem", "CosetFunction", "right_cosets_in_double_coset",
    "count_R", "count_L", "convolve", "adjoint_fun", "identity_fun", "e_fun",
    "nu_fun", "nu_adj_fun", "theta_fun", "expected_monomial_function",
    "symbolic_to_oracle", "enumerate_monomials", "verify_equivalence",
]

# verify_equivalence reports at most this many failing pairs in full
MAX_FAILURES = 10


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


# ---------------------------------------------------------------------------
# interned right-coset keys, one universe per field


class _Universe:
    """Interning table for right-coset keys of one field.

    The right coset P_O(y, x) is keyed by the canonical generator xc of
    xO and by the class of y/xc modulo O, read off its reduced triple
    (e0 % q, e1 % q, q); its stored representative is
    (reduce_mod(y, xc), xc).  `ids` maps the triple of xc to the table
    of its classes, and `prod` memoizes, per pair of scaling parts
    (x1, x2), the canonical generator xc of x1*x2*O, 1/xc and the class
    table of xc: all of the group law that is not integer arithmetic on
    translation parts.
    """

    __slots__ = ("ctx", "ids", "reps", "prod", "phi", "std")

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.ids: dict = {}
        self.reps: list[GroupElem] = []
        self.prod: dict = {}
        self.phi: dict = {}
        self.std: dict = {}

    def classes(self, xc: FieldElem) -> dict:
        """The class table {reduced triple of y/xc mod O: id} of xc."""
        tag = (xc.e0, xc.e1, xc.q)
        tab = self.ids.get(tag)
        if tab is None:
            tab = self.ids[tag] = {}
        return tab

    def intern(self, xc: FieldElem, cls: tuple) -> int:
        """Store the coset of class `cls` over xc, known to be new."""
        yr = xc * FieldElem(self.ctx, *cls)
        idx = len(self.reps)
        self.reps.append(GroupElem(yr, xc))
        return idx

    def _class_id(self, tab: dict, xc: FieldElem, z: FieldElem) -> int:
        q = z.q
        cls = (z.e0 % q, z.e1 % q, q)
        got = tab.get(cls)
        if got is None:
            got = tab[cls] = self.intern(xc, cls)
        return got

    def key_id(self, y: FieldElem, x: FieldElem) -> int:
        xc = _x_canonical(x)
        return self._class_id(self.classes(xc), xc, y / xc)

    def elem_id(self, g: GroupElem) -> int:
        return self.key_id(g.y, g.x)

    def scale(self, x1: FieldElem, x2: FieldElem) -> tuple:
        """(xc, 1/xc, class table of xc) for xc the canonical generator
        of x1*x2*O."""
        key = (x1.e0, x1.e1, x1.q, x2.e0, x2.e1, x2.q)
        got = self.prod.get(key)
        if got is None:
            xc = _x_canonical(x1 * x2)
            got = self.prod[key] = (xc, 1 / xc, self.classes(xc))
        return got

    def prod_id(self, i: int, j: int) -> int:
        """The id of the right coset of reps[i] * reps[j]."""
        g1, g2 = self.reps[i], self.reps[j]
        xc, inv, tab = self.scale(g1.x, g2.x)
        return self._class_id(tab, xc, (g2.y + g1.y * g2.x) * inv)


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

    __slots__ = ("ctx", "data")

    def __init__(self, ctx: FieldCtx, data: dict | None = None):
        self.ctx = ctx
        self.data = {}
        if data:
            for i, q in data.items():
                q = Fraction(q)
                if q:
                    self.data[i] = q

    def support(self) -> list[GroupElem]:
        uni = _universe(self.ctx)
        return [uni.reps[i] for i in sorted(self.data)]

    def __add__(self, other: "CosetFunction") -> "CosetFunction":
        out = dict(self.data)
        for i, q in other.data.items():
            out[i] = out.get(i, 0) + q
        return CosetFunction(self.ctx, out)

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def __mul__(self, scalar) -> "CosetFunction":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return CosetFunction(
            self.ctx, {i: q * scalar for i, q in self.data.items()})

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


def _scaled_runs(uni: _Universe, nums: dict) -> list:
    """The support of `nums` cut into runs of consecutive cosets with one
    scaling part, as [(x, [(y, numerator)])]."""
    reps = uni.reps
    runs: list = []
    x = None
    for i, n in nums.items():
        g = reps[i]
        if x is None or g.x != x:
            x = g.x
            cur: list = []
            runs.append((x, cur))
        cur.append((g.y, n))
    return runs


def _pair_plan(uni: _Universe, x1: FieldElem, x2: FieldElem,
               right: list) -> tuple:
    """What a left coset over x1 needs against a right run over x2:
    x2/xc, xc, the class table of xc and, per right coset (y2, n2), the
    class of y2/xc modulo O as a triple (w0, w1, wq) with n2."""
    xc, inv, tab = uni.scale(x1, x2)
    ws = []
    for y2, n2 in right:
        w = y2 * inv
        q = w.q
        ws.append((w.e0 % q, w.e1 % q, q, n2))
    return x2 * inv, xc, tab, ws


def _convolve_nums(uni: _Universe, nums1: dict, nums2: dict,
                   plans: dict) -> dict:
    """The convolution of integer numerators on cosets.  The pair of
    support cosets (y1, x1) and (y2, x2) contributes n1 * n2 on the coset
    of (y2 + y1*x2, x1*x2), keyed by xc and the class of (y2 + y1*x2)/xc
    modulo O.  Zero sums are dropped.

    `plans` holds the pair plans against nums2, by the triple of a left
    scaling part, filled as they are met; a caller that convolves several
    left operands with one right operand passes one dict for all of them,
    to build each plan once.  The pairs are
    met in the order of nums1 by nums2, so cosets are interned in the
    same order as by one prod_id call per pair.
    """
    runs = None
    reps = uni.reps
    intern = uni.intern
    out: dict = {}
    get = out.get
    for i, n1 in nums1.items():
        g = reps[i]
        y1, x1 = g.y, g.x
        xtag = (x1.e0, x1.e1, x1.q)
        plan = plans.get(xtag)
        if plan is None:
            if runs is None:
                runs = _scaled_runs(uni, nums2)
            plan = plans[xtag] = [_pair_plan(uni, x1, x2, right)
                                  for x2, right in runs]
        for a, xc, tab, ws in plan:
            u = y1 * a
            pq = u.q
            p0, p1 = u.e0 % pq, u.e1 % pq
            for w0, w1, wq, n2 in ws:
                q = pq * wq
                e0 = (p0 * wq + w0 * pq) % q
                e1 = (p1 * wq + w1 * pq) % q
                c = gcd(e0, e1, q)
                cls = (e0, e1, q) if c == 1 else (e0 // c, e1 // c, q // c)
                k = tab.get(cls)
                if k is None:
                    k = tab[cls] = intern(xc, cls)
                out[k] = get(k, 0) + n1 * n2
    return {k: v for k, v in out.items() if v}


def _convolve_data(uni: _Universe, d1: dict, d2: dict) -> dict:
    """_convolve_nums on Fraction values."""
    (den1, nums1), (den2, nums2) = _numerators(d1), _numerators(d2)
    out = _convolve_nums(uni, nums1, nums2, {})
    return {k: Fraction(v, den1 * den2) for k, v in out.items()}


def convolve(f: CosetFunction, g: CosetFunction) -> CosetFunction:
    """Convolution over right cosets.

    Exact for f constant on double cosets and g any coset function:
    the pair of support cosets P_O a (for f) and P_O b (for g)
    contributes f(a)g(b) on the single right coset P_O ab.
    """
    out = CosetFunction(f.ctx)
    out.data = _convolve_data(_universe(f.ctx), f.data, g.data)
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
    return CosetFunction(f.ctx, out)


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
    ms = residues(num)
    seen = {}
    for u in ctx.units:
        yu = gamma.y * u
        xu = gamma.x * u
        for m in ms:
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
    return orbit * num.norm()


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


def identity_fun(ctx: FieldCtx) -> CosetFunction:
    """The characteristic function of P_O, the convolution identity."""
    uni = _universe(ctx)
    return CosetFunction(ctx, {uni.key_id(ctx.zero, ctx.one): 1})


def e_fun(r: FieldElem) -> CosetFunction:
    """Indicator of the single right coset P_O(r, 1)."""
    ctx = r.ctx
    uni = _universe(ctx)
    return CosetFunction(ctx, {uni.key_id(r, ctx.one): 1})


def _indicator_dc(gamma: GroupElem, value) -> CosetFunction:
    ctx = gamma.y.ctx
    uni = _universe(ctx)
    data = {uni.elem_id(rep): value
            for rep in right_cosets_in_double_coset(gamma)}
    return CosetFunction(ctx, data)


def nu_fun(a: FieldElem) -> CosetFunction:
    """The unnormalized isometry function: indicator of P_O(0, a)P_O."""
    if not a.is_integral or a.is_zero:
        raise ValueError("nu index must be nonzero integral")
    return _indicator_dc(GroupElem(a.ctx.zero, a), 1)


def nu_adj_fun(a: FieldElem) -> CosetFunction:
    """Indicator of P_O(0, 1/a)P_O, the adjoint of nu_fun(a)."""
    if not a.is_integral or a.is_zero:
        raise ValueError("nu index must be nonzero integral")
    return _indicator_dc(GroupElem(a.ctx.zero, 1 / a), 1)


def theta_fun(r) -> CosetFunction:
    """The function of the double coset of (r, 1), value 1/R on each of
    its R right cosets."""
    if isinstance(r, TorsionClass):
        r = r.rep
    ctx = r.ctx
    R = stabilizer_index(torsion_class(r))
    return _indicator_dc(GroupElem(r, ctx.one), Fraction(1, R))


def expected_monomial_function(m: Monomial) -> CosetFunction:
    """Closed-form image of a canonical monomial, bypassing convolution.

    M(a, r, b) is supported on the double coset of (r b, b/a) and takes
    the constant value 1/R(a b r) there, in the rational normalization
    where the isometry generators are plain indicator functions.
    """
    ctx = m.ctx
    rb = m.r.rep * m.b
    x = m.b / m.a
    R = stabilizer_index(m.r.scaled(m.a * m.b))
    return _indicator_dc(GroupElem(rb, x), Fraction(1, R))


# ---------------------------------------------------------------------------
# the correspondence with the symbolic algebra


def _std_data(uni: _Universe, fun, key) -> dict:
    """Cached support data of a generator function fun(key) (nu_fun,
    nu_adj_fun or theta_fun), so repeated monomial images reuse it."""
    k = (fun, key)
    got = uni.std.get(k)
    if got is None:
        got = uni.std[k] = fun(key).data
    return got


def _phi_data(m: Monomial) -> dict:
    """Cached support data of the oracle image of one monomial."""
    uni = _universe(m.ctx)
    got = uni.phi.get(m)
    if got is None:
        data = _convolve_data(uni, _std_data(uni, nu_adj_fun, m.a),
                              _std_data(uni, theta_fun, m.r))
        got = uni.phi[m] = _convolve_data(uni, data,
                                          _std_data(uni, nu_fun, m.b))
    return got


def symbolic_to_oracle(x: HeckeElement) -> CosetFunction:
    """Linear map sending M(a, r, b) to nu_a^* * theta_r * nu_b.

    This rational rescaling of the representation by functions drops a
    factor sqrt(N_a N_b) per monomial, so products correspond up to the
    integer factor checked in verify_equivalence.
    """
    out: dict = {}
    for m, q in x.terms.items():
        for i, v in _phi_data(m).items():
            out[i] = out.get(i, 0) + v * q
    return CosetFunction(x.ctx, out)


def enumerate_monomials(ctx: FieldCtx, bound: int) -> list[Monomial]:
    """All canonical monomials with slot norms and label denominator
    norms at most the bound."""
    gens = ideals_up_to(ctx, bound)
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
    kappa = g.norm() * h.norm()

    ratio, rem = divmod(m1.level * m2.level, next(iter(prod)).level)
    assert not rem
    root = isqrt(ratio)
    assert root * root == ratio, "norm ratio is not a perfect square"
    assert root == kappa, f"scale mismatch: {root} vs {kappa}"
    return kappa


def verify_equivalence(ctx: FieldCtx, bound: int) -> dict:
    """Sweep all ordered pairs of canonical monomials within the bound
    and compare the rewrite engine with the convolution, exactly.

    Returns a report {"field", "bound", "monomials", "checked",
    "failures": [...]}; an empty failure list means every product
    agreed; at most MAX_FAILURES failing pairs are listed.
    """
    mons = enumerate_monomials(ctx, bound)
    report = {"field": ctx.tag, "bound": bound, "monomials": len(mons),
              "checked": 0, "failed": 0, "failures": []}
    uni = _universe(ctx)
    images = {m: _numerators(_phi_data(m)) for m in mons}
    slots = plans = None
    for m1 in mons:
        den1, nums1 = images[m1]
        # the image of M(a, r, b) lies over the one scaling part of b/a,
        # and mons are sorted by slots: the pair plans against each right
        # image are kept while the left slots stay the same
        if (m1.a, m1.b) != slots:
            slots, plans = (m1.a, m1.b), {m: {} for m in mons}
        for m2 in mons:
            report["checked"] += 1
            den2, nums2 = images[m2]
            try:
                prod = _mul_monomials(m1, m2)
                kappa = _product_scale(m1, m2, prod)
                # the convolution, as integers over den1 * den2
                got = _convolve_nums(uni, nums1, nums2, plans[m2])
                # kappa * sum of q * Phi(m), as integers over one denominator
                parts = []
                den = 1
                for m, q in prod.items():
                    img = images.get(m)
                    if img is None:
                        img = images[m] = _numerators(_phi_data(m))
                    dm, nums = img
                    kq = kappa * q
                    b = kq.denominator * dm
                    parts.append((kq.numerator, b, nums))
                    den = lcm(den, b)
                want: dict = {}
                for a, b, nums in parts:
                    s = a * (den // b)
                    for i, n in nums.items():
                        want[i] = want.get(i, 0) + s * n
                den12 = den1 * den2
                ok = (len(got) == sum(1 for w in want.values() if w)
                      and all(want.get(i, 0) * den12 == v * den
                              for i, v in got.items()))
                detail = "" if ok else "support or value mismatch"
            except AssertionError as exc:
                ok, detail = False, str(exc)
            if not ok:
                report["failed"] += 1
                if len(report["failures"]) < MAX_FAILURES:
                    report["failures"].append(
                        {"left": repr(m1), "right": repr(m2),
                         "detail": detail})
    return report
