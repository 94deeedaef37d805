"""Classes in K/O: reduction, unit orbits, stabilizers, denominators.

A class r + O is stored by its unique representative whose coordinates
over the integral basis lie in [0, 1).  Multiplication is defined for
integral multipliers only (non-integral ones do not act on K/O).
"""
from __future__ import annotations

from .numberfield import (FieldCtx, FieldElem, canonical_generator,
                          frac_ideal_parts, residues)

__all__ = [
    "TorsionClass", "torsion_class", "reduce01", "denominator_element",
    "stabilizer", "stabilizer_index", "unit_orbit", "orbit_canonical",
    "torsion_points",
]


def reduce01(x: FieldElem) -> FieldElem:
    """The representative of x + O with both coordinates in [0, 1)."""
    q = x.q
    return FieldElem(x.ctx, x.e0 % q, x.e1 % q, q)


class TorsionClass:
    """An element of K/O, hashable and totally ordered."""

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: FieldCtx, rep: FieldElem):
        self.ctx = ctx
        self.rep = rep

    def __eq__(self, other):
        if not isinstance(other, TorsionClass):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        t = self.rep
        return hash((t.e0, t.e1, t.q))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        """The coordinates of the representative, compared by value."""
        return (self.rep.c0, self.rep.c1)

    def __add__(self, other: "TorsionClass") -> "TorsionClass":
        return torsion_class(self.rep + other.rep)

    def __neg__(self) -> "TorsionClass":
        return torsion_class(-self.rep)

    def __sub__(self, other: "TorsionClass") -> "TorsionClass":
        return torsion_class(self.rep - other.rep)

    def scaled(self, z) -> "TorsionClass":
        """The class z*r for an integral multiplier z."""
        if isinstance(z, FieldElem):
            if not z.is_integral:
                raise ValueError("only integral elements act on K/O")
            return torsion_class(self.rep * z)
        return torsion_class(self.rep * int(z))

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def __repr__(self):
        return f"[{self.rep!r} + O]"


def torsion_class(x: FieldElem) -> TorsionClass:
    return TorsionClass(x.ctx, reduce01(x))


def denominator_element(r: TorsionClass) -> FieldElem:
    """Canonical integral q with {z in O : z*r in O} = qO."""
    if r.is_zero:
        return r.ctx.one
    num, den = frac_ideal_parts(r.rep)
    return canonical_generator(den)


def stabilizer(r: TorsionClass) -> tuple[FieldElem, ...]:
    """The units u with u*r = r in K/O."""
    return tuple(u for u in r.ctx.units if r.scaled(u) == r)


_stab_index_cache: dict[TorsionClass, int] = {}


def stabilizer_index(r: TorsionClass) -> int:
    """[O^* : O^*_r], the size of the unit orbit of r."""
    cached = _stab_index_cache.get(r)
    if cached is not None:
        return cached
    n = len(stabilizer(r))
    total = len(r.ctx.units)
    assert total % n == 0
    out = total // n
    _stab_index_cache[r] = out
    return out


def unit_orbit(r: TorsionClass) -> set[TorsionClass]:
    return {r.scaled(u) for u in r.ctx.units}


# keyed by (d, e0, e1, q), the field tag and the reduced triple of the
# class, so that the engine can look a class up without building it
_orbit_cache: dict[tuple, TorsionClass] = {}


def orbit_canonical(r: TorsionClass) -> TorsionClass:
    """Deterministic representative of the unit orbit of r."""
    t = r.rep
    key = (r.ctx.d, t.e0, t.e1, t.q)
    cached = _orbit_cache.get(key)
    if cached is not None:
        return cached
    out = min(unit_orbit(r))
    _orbit_cache[key] = out
    return out


def torsion_points(c: FieldElem) -> list[TorsionClass]:
    """All classes killed by c, i.e. (1/c)O / O; there are norm(c) of them."""
    if not c.is_integral or c.is_zero:
        raise ValueError("torsion level must be a nonzero integral element")
    pts = sorted(torsion_class(b / c) for b in residues(c))
    assert len(set(pts)) == c.norm()
    return pts
