"""Finite-level characters of K/O and the exact duality pairing.

A character point at level c is a unit residue w modulo c.  It pairs
with a torsion class r through the trace form

    <r, chi_w> = exp(2*pi*i * frac(Tr(r*w/delta))),

where delta generates the different ideal (delta = 1 over Q), so the
value is an exact root of unity.  The exponent does not depend on the
integral lift of w as long as the denominator of r divides c, because
Tr(O/delta) lies in Z; the tests check this rather than assume it.
"""
from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycloNum, from_exponent
from .numberfield import (FieldCtx, FieldElem, _mul_numerators,
                          canonical_generator, divide_exact, factor,
                          format_element, is_coprime, reduce_mod, residues)
from .torsion import TorsionClass, denominator_element, torsion_points

__all__ = ["CharacterPoint", "pair", "pair_exponent", "character_laws"]


def _elem_key(x: FieldElem):
    """Order by coordinate values.  Callers pass integral elements
    (residues, levels and divisor generators), whose numerators are their
    coordinates."""
    return (x.e0, x.e1)


def _unit_residue(ctx: FieldCtx, c, x) -> tuple[FieldElem, FieldElem]:
    """(c, x) checked and reduced: c a nonzero integral level, taken to
    its canonical generator, and x integral and invertible modulo c,
    taken to its canonical residue."""
    if not isinstance(c, FieldElem):
        c = ctx.elem(c)
    if not isinstance(x, FieldElem):
        x = ctx.elem(x)
    if c.is_zero or not c.is_integral:
        raise ValueError("level must be a nonzero integral element")
    if not x.is_integral:
        raise ValueError(f"residue {format_element(x)} must be integral")
    c = canonical_generator(c)
    if not is_coprime(x, c):
        raise ValueError(
            f"residue {format_element(x)} is not a unit modulo "
            f"{format_element(c)}")
    return c, reduce_mod(x, c)


class CharacterPoint:
    """A level-c extreme character, stored as a unit residue w mod c."""

    __slots__ = ("ctx", "c", "w")

    def __init__(self, ctx: FieldCtx, c: FieldElem, w: FieldElem):
        self.ctx = ctx
        self.c = c
        self.w = w

    @classmethod
    def make(cls, ctx: FieldCtx, c, w) -> "CharacterPoint":
        """Validated constructor: c a nonzero integral level, w integral
        and invertible modulo c; w is reduced to its canonical residue."""
        return cls(ctx, *_unit_residue(ctx, c, w))

    @property
    def level_norm(self) -> int:
        return int(self.c.norm())

    def twisted(self, z) -> "CharacterPoint":
        """The point with datum z*w at the same level, for integral z
        invertible modulo c."""
        if isinstance(z, int):
            z = self.ctx.elem(z)
        return CharacterPoint.make(self.ctx, self.c, z * self.w)

    def restricted(self, c2) -> "CharacterPoint":
        """The same character seen at a divisor level c2 | c."""
        if isinstance(c2, int):
            c2 = self.ctx.elem(c2)
        if divide_exact(self.c, c2) is None:
            raise ValueError("restriction level must divide the level")
        return CharacterPoint.make(self.ctx, c2, self.w)

    def __eq__(self, other):
        if not isinstance(other, CharacterPoint):
            return NotImplemented
        return (self.ctx == other.ctx and self.c == other.c
                and self.w == other.w)

    def __hash__(self):
        return hash((self.c, self.w))

    def __repr__(self):
        return (f"chi(level={format_element(self.c)}, "
                f"w={format_element(self.w)})")


def _trace_numerators(r: TorsionClass,
                      chi: CharacterPoint) -> tuple[int, int, int]:
    """(q, t0, t1) with Tr(z) = t0/q and Tr(omega*z) = t1/q, where
    z = r*w/delta, so <u*r, chi> has exponent (u0*t0 + u1*t1)/q mod 1
    for an integral u = u0 + u1*omega.

    With y = r*w = (s0 + s1*omega)/q, and delta = omega - conj(omega) =
    2*omega - t, Tr(y/delta) = (y - conj(y))/delta = s1/q and
    Tr(omega*y/delta) = (omega*y - conj(omega*y))/delta = (s0 + t*s1)/q;
    over Q (delta = 1) the pair is (s0/q, 0).  All on integers.

    Requires the denominator of r to divide the level of chi; otherwise
    the value would depend on the lift of w.  It does exactly when c*r
    is integral, which is checked on the numerators of the product.
    """
    ctx = chi.ctx
    e0, e1, q = r.rep.e0, r.rep.e1, r.rep.q
    k0, k1 = _mul_numerators(ctx, chi.c.e0, chi.c.e1, e0, e1)
    if k0 % q or k1 % q:
        den = denominator_element(r)
        raise ValueError(
            f"denominator {format_element(den)} of the torsion class does "
            f"not divide the character level {format_element(chi.c)}")
    s0, s1 = _mul_numerators(ctx, e0, e1, chi.w.e0, chi.w.e1)
    if ctx.is_rational:
        return q, s0, 0
    return q, s1, s0 + ctx.t * s1


def _unit_trace_numerators(r: TorsionClass, chi: CharacterPoint) -> tuple:
    """(q, [(a0, a1) per unit u of ctx.units]) with Tr(u*z) = a0/q and
    Tr(omega*u*z) = a1/q for z = r*w/delta; checked as _trace_numerators."""
    q, t0, t1 = _trace_numerators(r, chi)
    ctx = chi.ctx
    out = []
    for u in ctx.units:
        v0, v1 = _mul_numerators(ctx, 0, 1, u.e0, u.e1)  # omega*u
        out.append((u.e0 * t0 + u.e1 * t1, v0 * t0 + v1 * t1))
    return q, out


def pair_exponent(r: TorsionClass, chi: CharacterPoint) -> Fraction:
    """The exact exponent q in <r, chi> = exp(2*pi*i*q), reduced to [0, 1).

    Requires the denominator of r to divide the level of chi; otherwise
    the value would depend on the lift of w.
    """
    q, t0, _ = _trace_numerators(r, chi)
    return Fraction(t0 % q, q)


def pair(r: TorsionClass, chi: CharacterPoint) -> CycloNum:
    """The duality pairing <r, chi> as an exact root of unity."""
    return from_exponent(pair_exponent(r, chi))


def character_laws(chi: CharacterPoint) -> dict:
    """Exhaustive finite checks that chi is an extreme character.

    Verifies on all level-c torsion: additivity of the pairing,
    triviality on O, unit compatibility <u*r, chi_w> = <r, chi_(u*w)>,
    that the characters r -> <z*r, chi> for z mod c are pairwise
    distinct (so chi generates the full dual as an O-module and the
    pairing separates points), and restriction compatibility at every
    proper divisor level.
    """
    ctx = chi.ctx
    c = chi.c
    pts = torsion_points(c)
    expo = {r: pair_exponent(r, chi) for r in pts}

    additive = all(
        (expo[r] + expo[s] - expo[r + s]).denominator == 1
        for r in pts for s in pts)

    zero = [r for r in pts if r.is_zero]
    o_trivial = len(zero) == 1 and expo[zero[0]] == 0

    unit_compat = all(
        pair_exponent(r.scaled(u), chi) == pair_exponent(r, chi.twisted(u))
        for u in ctx.units for r in pts)

    vectors = {tuple(pair_exponent(r.scaled(z), chi) for r in pts)
               for z in residues(c)}
    generates_dual = len(vectors) == c.norm()

    restriction = True
    for e in _proper_divisors(c):
        sub = chi.restricted(e)
        for r in torsion_points(e):
            if pair_exponent(r, sub) != pair_exponent(r, chi):
                restriction = False

    report = {
        "field": ctx.tag,
        "level": format_element(c),
        "additive": additive,
        "o_trivial": o_trivial,
        "unit_compat": unit_compat,
        "generates_dual": generates_dual,
        "restriction": restriction,
    }
    report["all_ok"] = all(
        report[k] for k in ("additive", "o_trivial", "unit_compat",
                            "generates_dual", "restriction"))
    return report


def _proper_divisors(c: FieldElem) -> list[FieldElem]:
    """Canonical generators of the proper divisor ideals of cO."""
    out = [c.ctx.one]
    for prime, mult in factor(c):
        powers = [c.ctx.one]
        for _ in range(mult):
            powers.append(powers[-1] * prime)
        out = [canonical_generator(x * p) for x in out for p in powers]
    key = _elem_key(canonical_generator(c))
    return sorted((x for x in out if _elem_key(x) != key), key=_elem_key)
