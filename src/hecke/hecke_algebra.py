"""Symbolic *-algebra on the canonical monomial basis M(a, r, b).

A monomial M(a, r, b) stands for mu_a^* theta_r mu_b, where mu is the
isometry family indexed by nonzero integral elements and theta_r is the
self-adjoint projection-average attached to a class r in K/O.  The
defining relations are:

    (I.1)   mu_w = 1 for units w
    (I.2)   mu_a^* mu_a = 1
    (I.3)   mu_a mu_b = mu_{ab}
    (II.1)  theta_0 = 1
    (II.2)  theta_{wr} = theta_r = theta_r^* for units w
    (II.3)  theta_r theta_s = average of theta_{ur+vs} over unit pairs
    (III)   mu_a theta_r mu_a^* = (1/N_a) sum_{x mod a} theta_{(r+x)/a}

together with the derived rule theta_r mu_a = mu_a theta_{ar}.  Products
of monomials are rewritten back into the basis with exact rational
coefficients; no floating point enters anywhere.  Inside a product the
commutative theta part is carried as integer numerators over one common
denominator, and one Fraction is built per output monomial.  Its classes
are worked on as reduced integer triples (e0 + e1*omega)/q: rotation by
the units, sums over the lcm of two denominators, transport and division
by the output slots, with products from hecke.numberfield and each
unit-orbit representative from hecke.torsion, which owns the orbit table.

Monomial labels are redundant: M(a, r, b) = M(c, s, d) exactly when
a = c, b = d (as canonical generators with gcd(a, b) = 1) and r = w*s
modulo (1/(ab))O for some unit w.  Canonicalization picks the minimal
representative of that class, so equality of monomials is equality of
stored triples.  Three memo tables, each keyed by integers and bounded:
the canonical labels, the range projections mu_g mu_g^*, and the slot
plans, the integer slot algebra of a product per quadruple of slots.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .numberfield import (FieldCtx, FieldElem, _mul_numerators, _numerators,
                          canonical_generator, divide_exact, gcd_gen,
                          make_ctx, residues)
from .torsion import (TorsionClass, _orbit_of, orbit_canonical, reduce01,
                      torsion_class)

__all__ = [
    "Monomial", "HeckeElement", "identity", "mu", "theta", "theta_product",
    "alpha", "beta_endo", "dynamics_weight", "sigma_i_beta",
]


def _canon_div(x: FieldElem, g: FieldElem) -> FieldElem:
    q = divide_exact(x, g)
    assert q is not None
    return canonical_generator(q)


def _rep_mod_level(t: TorsionClass, c: FieldElem) -> TorsionClass:
    """Canonical representative of t modulo the fractional lattice (1/c)O."""
    return torsion_class(reduce01(t.rep * c) / c)


# The verification sweeps of Q and Q(i) at bound 8 meet about 34,000
# distinct labels; the bound keeps a long-running process finite.
_LABEL_MEMO = 1 << 16


@lru_cache(maxsize=_LABEL_MEMO)
def _canonical_label(d: int, a0: int, a1: int, b0: int, b1: int,
                     r0: int, r1: int, rq: int) -> tuple:
    """The canonical (a, r, b) of the monomial label with integral slots
    a0 + a1*omega, b0 + b1*omega and r the class of (r0 + r1*omega)/rq."""
    ctx = make_ctx(d)
    a = canonical_generator(FieldElem(ctx, a0, a1, 1))
    b = canonical_generator(FieldElem(ctx, b0, b1, 1))
    r = torsion_class(FieldElem(ctx, r0, r1, rq))
    g = gcd_gen(a, b)
    if not g.is_unit:
        a = _canon_div(a, g)
        b = _canon_div(b, g)
        r = r.scaled(g)
    c = canonical_generator(a * b)
    best = None
    for u in ctx.units:
        cand = _rep_mod_level(r.scaled(u), c)
        if best is None or cand.sort_key() < best.sort_key():
            best = cand
    return a, best, b


class Monomial:
    """Canonical basis monomial M(a, r, b) = mu_a^* theta_r mu_b."""

    __slots__ = ("ctx", "a", "r", "b", "_hash")

    def __init__(self, ctx: FieldCtx, a: FieldElem, r: TorsionClass,
                 b: FieldElem):
        self.ctx = ctx
        self.a = a
        self.r = r
        self.b = b
        self._hash = None

    @classmethod
    def make(cls, ctx: FieldCtx, a, r, b) -> "Monomial":
        """Build the canonical monomial for the (possibly redundant) label.

        Accepts integral field elements or plain integers for a and b,
        and a field element or torsion class for r.  The common factor
        of a and b is folded into r, and r is reduced to the minimal
        representative of its unit orbit modulo (1/(ab))O.
        """
        if isinstance(a, int):
            a = ctx.elem(a)
        if isinstance(b, int):
            b = ctx.elem(b)
        if isinstance(r, FieldElem):
            r = torsion_class(r)
        if a.is_zero or b.is_zero or not (a.is_integral and b.is_integral):
            raise ValueError("monomial slots must be nonzero integral")
        t = r.rep
        return cls(ctx, *_canonical_label(ctx.d, a.e0, a.e1, b.e0, b.e1,
                                          t.e0, t.e1, t.q))

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.r.rep == other.r.rep)

    def __hash__(self):
        h = self._hash
        if h is None:
            a, b, t = self.a, self.b, self.r.rep
            h = self._hash = hash((a.e0, a.e1, b.e0, b.e1, t.e0, t.e1, t.q))
        return h

    def sort_key(self):
        # the slots are integral, so their numerators order them by value
        a, b = self.a, self.b
        return (a.norm(), b.norm(), a.e0, a.e1, b.e0, b.e1) \
            + self.r.sort_key()

    @property
    def level(self) -> int:
        """Product of the two slot norms; bounds the support size."""
        return self.a.norm() * self.b.norm()

    @property
    def is_theta_type(self) -> bool:
        """True when the monomial lies in the commutative theta part."""
        return self.a.is_unit and self.b.is_unit

    def adjoint(self) -> "Monomial":
        return Monomial.make(self.ctx, self.b, self.r, self.a)

    def __repr__(self):
        from .numberfield import format_element
        return (f"M({format_element(self.a)}, {format_element(self.r.rep)},"
                f" {format_element(self.b)})")


# ---------------------------------------------------------------------------
# the commutative theta part, as integer numerators over one denominator:
# (den, {orbit class: numerator})


def _theta_dict(r: TorsionClass) -> tuple:
    return 1, {orbit_canonical(r): 1}


def _scaled_orbit(ctx: FieldCtx, r: TorsionClass, z0: int, z1: int
                  ) -> TorsionClass:
    """orbit_canonical of the class z*r for the integral z = z0 + z1*omega."""
    q = r.rep.q
    x0, x1 = _mul_numerators(ctx, r.rep.e0, r.rep.e1, z0, z1)
    x0, x1 = x0 % q, x1 % q
    c = gcd(x0, x1, q)
    if c != 1:
        x0, x1, q = x0 // c, x1 // c, q // c
    return _orbit_of(ctx, x0, x1, q)


def _theta_dict_mul(ctx: FieldCtx, F: tuple, G: tuple) -> tuple:
    # theta_r theta_s = (1/|units|) sum_w theta_{r + w s}, the unit-pair
    # average collapsed along the overall unit scaling; on the reduced
    # triples of the classes: each class of G is rotated by the units,
    # a sum is taken over lcm(p, q), and its orbit is read by integer key
    units = ctx.units
    rotated = []
    for cls, n2 in G[1].items():
        e0, e1, q = cls.rep.e0, cls.rep.e1, cls.rep.q
        ws = (_mul_numerators(ctx, e0, e1, u.e0, u.e1) for u in units)
        rotated.append((q, n2, [(w0 % q, w1 % q) for w0, w1 in ws]))
    out: dict = {}
    get = out.get
    for cls, n1 in F[1].items():
        p0, p1, p = cls.rep.e0, cls.rep.e1, cls.rep.q
        for q, n2, ws in rotated:
            num = n1 * n2
            L = p * q // gcd(p, q)
            a, b = L // p, L // q
            p0a, p1a = p0 * a, p1 * a
            for w0, w1 in ws:
                s0 = (p0a + w0 * b) % L
                s1 = (p1a + w1 * b) % L
                c = gcd(s0, s1, L)
                k = (_orbit_of(ctx, s0, s1, L) if c == 1
                     else _orbit_of(ctx, s0 // c, s1 // c, L // c))
                out[k] = get(k, 0) + num
    return F[0] * G[0] * len(units), {k: v for k, v in out.items() if v}


def _alpha_dict(ctx: FieldCtx, a: FieldElem, F: tuple) -> tuple:
    # alpha_a(theta_t) = (1/N_a) sum_{x mod a} theta_{(t+x)/a}
    if a.is_unit:
        return F
    out: dict = {}
    xs = residues(a)
    for t, n in F[1].items():
        for x in xs:
            k = orbit_canonical(torsion_class((t.rep + x) / a))
            out[k] = out.get(k, 0) + n
    return F[0] * a.norm(), {k: v for k, v in out.items() if v}


@lru_cache(maxsize=1 << 12)
def _range_projection(d: int, g0: int, g1: int) -> tuple:
    """mu_g mu_g^* = alpha_g(theta_0), g = g0 + g1*omega; shared, read only."""
    ctx = make_ctx(d)
    return _alpha_dict(ctx, FieldElem(ctx, g0, g1, 1),
                       _theta_dict(torsion_class(ctx.zero)))


# ---------------------------------------------------------------------------
# the product engine

# A sweep over sorted monomial pairs meets each slot quadruple (a, b, c, d)
# in one run of left operands with equal slots, against at most 43 slot
# pairs (c, d) at bound 8 (Q); with room for one such run the memo misses
# once per quadruple, as an unbounded one would.
_SLOT_MEMO = 1 << 7


@lru_cache(maxsize=_SLOT_MEMO)
def _slot_plan(tag: int, a0: int, a1: int, b0: int, b1: int, c0: int,
               c1: int, d0: int, d1: int) -> tuple:
    """What the product M(a, ., b) * M(c, ., d) needs of its four integral
    slots, as integers: the cofactors b1 = b/g and c1 = c/g of
    g = gcd(b, c), the range projection mu_g mu_g^* (None for a unit g),
    the output slots Q and P, the transport multiplier a*d1, and the
    triple (k0 + k1*omega)/kq of 1/PQ, which divides a label by PQ."""
    ctx = make_ctx(tag)
    a, b, c, d = (FieldElem(ctx, x0, x1, 1)
                  for x0, x1 in ((a0, a1), (b0, b1), (c0, c1), (d0, d1)))
    g = gcd_gen(b, c)
    b1 = _canon_div(b, g)
    c1 = _canon_div(c, g)
    proj = None if g.is_unit else _range_projection(tag, g.e0, g.e1)

    E = canonical_generator(a * c1)
    h = gcd_gen(E, d)
    Q = _canon_div(E, h)
    d1 = _canon_div(d, h)
    P = canonical_generator(b1 * d1)
    assert gcd_gen(P, Q).is_unit

    mult = a * d1
    inv = 1 / canonical_generator(P * Q)
    # one flat tuple, the smallest form of the up to _SLOT_MEMO kept alive
    return (b1.e0, b1.e1, c1.e0, c1.e1, proj, Q.e0, Q.e1, P.e0, P.e1,
            mult.e0, mult.e1, inv.e0, inv.e1, inv.q)


def _mul_monomials(m1: Monomial, m2: Monomial) -> dict:
    """Product of two canonical monomials as {Monomial: Fraction}.

    Rewrites mu_a^* theta_r mu_b mu_c^* theta_s mu_d step by step:
    split off g = gcd(b, c) so that mu_b mu_c^* = mu_b1 (mu_g mu_g^*)
    mu_c1^*, push the thetas inward to form an element H of the theta
    part, commute the coprime isometries outward, transport H with
    theta_t -> theta_{(a d1) t}, and resolve the remaining shape
    mu_P H mu_Q^* through relation (III).  Coprimality of P and Q makes
    every branch of (III) land in one monomial class, with total
    coefficient one.  The slot algebra comes from _slot_plan, H is
    integer numerators over one denominator, and each output label
    (a d1 t mod O)/PQ is computed on integer triples, so one Fraction is
    built per output monomial.
    """
    ctx = m1.ctx
    a, b, c, d = m1.a, m1.b, m2.a, m2.b
    b10, b11, c10, c11, proj, Q0, Q1, P0, P1, u0, u1, k0, k1, kq = \
        _slot_plan(ctx.d, a.e0, a.e1, b.e0, b.e1, c.e0, c.e1, d.e0, d.e1)

    H = 1, {_scaled_orbit(ctx, m1.r, b10, b11): 1}
    if proj is not None:
        H = _theta_dict_mul(ctx, H, proj)
    den, H = _theta_dict_mul(ctx, H,
                             (1, {_scaled_orbit(ctx, m2.r, c10, c11): 1}))

    slots = (ctx.d, Q0, Q1, P0, P1)
    out: dict = {}
    get = out.get
    for cls, num in H.items():
        e0, e1, q = cls.rep.e0, cls.rep.e1, cls.rep.q
        # x = mult*t reduced modulo O, then x/PQ = x*(k0 + k1*omega)/kq
        x0, x1 = _mul_numerators(ctx, e0, e1, u0, u1)
        y0, y1 = _mul_numerators(ctx, x0 % q, x1 % q, k0, k1)
        yq = q * kq
        g = gcd(y0, y1, yq)
        if g != 1:
            y0, y1, yq = y0 // g, y1 // g, yq // g
        m = Monomial(ctx, *_canonical_label(*slots, y0 % yq, y1 % yq, yq))
        out[m] = get(m, 0) + num
    return {k: Fraction(v, den) for k, v in out.items() if v}


class HeckeElement:
    """Finite rational combination of canonical monomials."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms: dict | None = None):
        self.ctx = ctx
        clean = {}
        if terms:
            for m, q in terms.items():
                q = Fraction(q)
                if q:
                    clean[m] = q
        self.terms = clean

    # -- constructors

    @staticmethod
    def from_monomial(m: Monomial, coeff=1) -> "HeckeElement":
        return HeckeElement(m.ctx, {m: Fraction(coeff)})

    # -- linear structure

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        out = dict(self.terms)
        for m, q in other.terms.items():
            out[m] = out.get(m, 0) + q
        return HeckeElement(self.ctx, out)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.ctx, {m: -q for m, q in self.terms.items()})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HeckeElement(
                self.ctx, {m: q * other for m, q in self.terms.items()})
        if not isinstance(other, HeckeElement):
            return NotImplemented
        out: dict = {}
        for m1, q1 in self.terms.items():
            for m2, q2 in other.terms.items():
                q12 = q1 * q2
                for m, q in _mul_monomials(m1, m2).items():
                    out[m] = out.get(m, 0) + q12 * q
        return HeckeElement(self.ctx, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # -- involution and predicates

    def adjoint(self) -> "HeckeElement":
        return HeckeElement(
            self.ctx, {m.adjoint(): q for m, q in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_theta_type(self) -> bool:
        return all(m.is_theta_type for m in self.terms)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=Monomial.sort_key):
            bits.append(f"{self.terms[m]}*{m!r}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# public constructors and maps


def identity(ctx: FieldCtx) -> HeckeElement:
    return HeckeElement.from_monomial(
        Monomial.make(ctx, ctx.one, torsion_class(ctx.zero), ctx.one))


def mu(a: FieldElem) -> HeckeElement:
    """The isometry generator mu_a for a nonzero integral element a."""
    ctx = a.ctx
    return HeckeElement.from_monomial(
        Monomial.make(ctx, ctx.one, torsion_class(ctx.zero), a))


def theta(r) -> HeckeElement:
    """The projection-average generator theta_r for a class r in K/O."""
    if isinstance(r, FieldElem):
        r = torsion_class(r)
    ctx = r.ctx
    return HeckeElement.from_monomial(
        Monomial.make(ctx, ctx.one, r, ctx.one))


def theta_product(r, s) -> HeckeElement:
    """theta_r * theta_s straight from the unit-average relation (II.3)."""
    if isinstance(r, FieldElem):
        r = torsion_class(r)
    if isinstance(s, FieldElem):
        s = torsion_class(s)
    ctx = r.ctx
    return _from_theta_dict(
        ctx, _theta_dict_mul(ctx, _theta_dict(r), _theta_dict(s)))


def _from_theta_dict(ctx: FieldCtx, H: tuple) -> HeckeElement:
    den, F = H
    out = {}
    for t, n in F.items():
        m = Monomial.make(ctx, ctx.one, t, ctx.one)
        out[m] = out.get(m, 0) + n
    return HeckeElement(ctx, {m: Fraction(n, den) for m, n in out.items()})


def _to_theta_dict(x: HeckeElement) -> tuple:
    if not x.is_theta_type:
        raise ValueError("element lies outside the theta part")
    out: dict = {}
    for m, q in x.terms.items():
        k = orbit_canonical(m.r)
        out[k] = out.get(k, 0) + q
    return _numerators(out)


def alpha(a: FieldElem, x: HeckeElement) -> HeckeElement:
    """The corner endomorphism theta_t -> (1/N_a) sum theta_{(t+x)/a}.

    Defined on the theta part only; alpha_a(x) = mu_a x mu_a^*.
    """
    if not (a.is_integral and not a.is_zero):
        raise ValueError("alpha index must be a nonzero integral element")
    return _from_theta_dict(x.ctx, _alpha_dict(x.ctx, a, _to_theta_dict(x)))


def beta_endo(a: FieldElem, x: HeckeElement) -> HeckeElement:
    """The transport endomorphism theta_t -> theta_{at}, left inverse
    of alpha_a on the theta part."""
    if not (a.is_integral and not a.is_zero):
        raise ValueError("beta index must be a nonzero integral element")
    den, F = _to_theta_dict(x)
    out: dict = {}
    for t, n in F.items():
        k = orbit_canonical(t.scaled(a))
        out[k] = out.get(k, 0) + n
    return _from_theta_dict(x.ctx, (den, out))


# ---------------------------------------------------------------------------
# dynamics


def dynamics_weight(m: Monomial) -> Fraction:
    """The scaling N_b/N_a; the time evolution acts on M(a, r, b) by
    (N_b/N_a)^{it}."""
    return Fraction(m.b.norm(), m.a.norm())


def sigma_i_beta(x: HeckeElement, beta: int) -> HeckeElement:
    """The analytic continuation of the dynamics at time t = i*beta,
    exact for integer beta: M(a, r, b) -> (N_b/N_a)^{-beta} M(a, r, b)."""
    out = {}
    for m, q in x.terms.items():
        out[m] = q * dynamics_weight(m) ** (-beta)
    return HeckeElement(x.ctx, out)
