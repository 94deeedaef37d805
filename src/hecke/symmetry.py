"""The level-c symmetry group and its two actions on ground states.

Unit residues modulo c form the group (O/cO)*; the image of the global
units O* inside it is the subgroup that acts trivially on symmetric
data, and the quotient is the level-c symmetry group.  level_group
builds it once per level, for the checks that walk the whole group.
The group acts on character points by multiplication (the geometric
action, which transports extreme states to each other) and on
cyclotomic state values through the field norm, raising each root of
unity to the power N(t) for an integral lift t (the arithmetic
action).  compare_actions evaluates one instance of each and decides
exact equality; the two agree on every input over the rationals and
disagree already at level 5 over the Gaussian integers.

A SymmetryElem is one unit residue j at its level, so that acting on a
character point is deterministic; equality and hashing use the least
residue of its coset j*O*, computed when asked for: two residues that
differ by a global unit are the same group element.  Building, moving,
multiplying or inverting an element never enumerates the group.

The public constructors (CharacterPoint.make, .twisted, .restricted and
SymmetryElem.make) check their input.  Residues the group builds itself
are not checked again: level_group lists canonical unit residues at a
canonical level, and a product of two such residues is a unit, so
regularity_check, group_elements and act_geometric build their points
and elements directly, reducing a product with reduce_mod.  The level
tables are kept for the last _LEVEL_MEMO levels asked for.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .cyclotomic import CycloNum
from .kms import phi_extreme_infty
from .numberfield import (FieldCtx, FieldElem, _lift_norms,
                          canonical_generator, factor, is_coprime,
                          reduce_mod, residues)
from .pairing import CharacterPoint, _elem_key, _unit_residue
from .torsion import TorsionClass, torsion_class, torsion_points

__all__ = [
    "LevelGroup", "level_group", "SymmetryElem", "act_geometric",
    "act_arithmetic", "compare_actions", "regularity_check",
    "group_elements",
]


class LevelGroup(NamedTuple):
    """The group (O/cO)*/image(O*) at one canonical level c.

    units: (O/cO)* as sorted canonical residues; image: the image of O*
    in it; reps: the sorted coset representatives, each the smallest
    residue of its coset; rep_of: every unit residue to its coset
    representative.  len(units) == len(image) * len(reps).
    """

    c: FieldElem
    units: tuple
    image: tuple
    reps: tuple
    rep_of: dict


# A ground_states pass of the benchmark builds 49 level groups; the bound
# keeps a long-running process finite.  perfbench reads len(_level_cache).
_LEVEL_MEMO = 256
_level_cache: dict = {}


def _unit_coset(w: FieldElem, c: FieldElem) -> list[FieldElem]:
    """The residues w*u mod c over the global units u, least first: its
    head is the coset's representative."""
    return sorted({reduce_mod(w * u, c) for u in c.ctx.units},
                  key=_elem_key)


def level_group(c: FieldElem) -> LevelGroup:
    """The symmetry group at the level generated by c, built once while
    it stays among the last _LEVEL_MEMO levels built."""
    if c.is_zero or not c.is_integral:
        raise ValueError("level must be a nonzero integral element")
    cc = canonical_generator(c)
    hit = _level_cache.get(cc)
    if hit is not None:
        return hit
    units = tuple(sorted((x for x in residues(cc) if is_coprime(x, cc)),
                         key=_elem_key))
    image = tuple(sorted({reduce_mod(u, cc) for u in cc.ctx.units},
                         key=_elem_key))
    rep_of: dict = {}
    for w in units:
        if w in rep_of:
            continue
        coset = _unit_coset(w, cc)
        for z in coset:
            rep_of[z] = coset[0]
    reps = tuple(sorted(set(rep_of.values()), key=_elem_key))
    hit = _level_cache[cc] = LevelGroup(cc, units, image, reps, rep_of)
    if len(_level_cache) > _LEVEL_MEMO:
        del _level_cache[next(iter(_level_cache))]
    return hit


class SymmetryElem:
    """A unit residue j modulo c, up to the image of the global units."""

    __slots__ = ("ctx", "c", "j")

    def __init__(self, ctx: FieldCtx, c: FieldElem, j: FieldElem):
        self.ctx = ctx
        self.c = c
        self.j = j

    @classmethod
    def make(cls, ctx: FieldCtx, c, j) -> "SymmetryElem":
        """Validated constructor, as CharacterPoint.make: c goes to its
        canonical generator and j, a unit modulo c, to its residue."""
        return cls(ctx, *_unit_residue(ctx, c, j))

    def is_identity(self) -> bool:
        return self.j in _unit_coset(self.ctx.one, self.c)

    def __mul__(self, other: "SymmetryElem") -> "SymmetryElem":
        if not isinstance(other, SymmetryElem):
            return NotImplemented
        if self.ctx.d != other.ctx.d or self.c != other.c:
            raise ValueError("level mismatch")
        return SymmetryElem(self.ctx, self.c,
                            reduce_mod(self.j * other.j, self.c))

    def inverse(self) -> "SymmetryElem":
        """j^(phi(c) - 1) mod c by square-and-multiply, where phi(c) is
        the order of (O/cO)*, read off the prime factorization of c."""
        c = self.c
        order = 1
        for p, e in factor(c):
            n = p.norm()
            order *= n ** (e - 1) * (n - 1)
        k = order - 1
        z, base = reduce_mod(self.ctx.one, c), self.j
        while k:
            if k & 1:
                z = reduce_mod(z * base, c)
            base = reduce_mod(base * base, c)
            k >>= 1
        return SymmetryElem(self.ctx, c, z)

    def __eq__(self, other):
        if not isinstance(other, SymmetryElem):
            return NotImplemented
        return (self.ctx.d == other.ctx.d and self.c == other.c
                and _unit_coset(self.j, self.c)[0]
                == _unit_coset(other.j, other.c)[0])

    def __hash__(self):
        return hash((self.c, _unit_coset(self.j, self.c)[0]))

    def __repr__(self):
        return f"SymmetryElem(c={self.c!r}, j={self.j!r})"


def group_elements(c: FieldElem) -> list[SymmetryElem]:
    """The full symmetry group at level c, by canonical representatives."""
    grp = level_group(c)
    return [SymmetryElem(c.ctx, grp.c, w) for w in grp.reps]


def act_geometric(g: SymmetryElem, chi: CharacterPoint) -> CharacterPoint:
    """Multiply the character residue: chi_w goes to chi_(j*w)."""
    if g.ctx.d != chi.ctx.d or g.c != chi.c:
        raise ValueError("symmetry element and character live at "
                         "different levels")
    return CharacterPoint(chi.ctx, chi.c, reduce_mod(g.j * chi.w, chi.c))


def _ring(rr: int):
    if rr == 0:
        yield 0, 0
        return
    for x in range(-rr, rr + 1):
        yield x, rr
        yield x, -rr
    for y in range(-rr + 1, rr):
        yield rr, y
        yield -rr, y


def _min_lift_norm(g: SymmetryElem, m: int) -> int:
    """The least N(t) over the lifts t of j mod c with gcd(N(t), m) = 1;
    over Q, the least such lift t >= 0, its own signed norm, which is not
    the lift of least |t|.  The search expands in rings and stops once no
    farther ring can beat the best norm found.  All on integers:
    numberfield._lift_norms gives N(j + c*z) from the numerators of j
    and c."""
    ctx = g.ctx
    if ctx.is_rational:
        base, step = g.j.e0, g.c.e0
        for k in range(3 * m + 6):
            t = base + step * k
            if gcd(t, m) == 1:
                return t
        raise ValueError(
            f"no lift of {g.j!r} mod {g.c!r} has norm invertible "
            f"mod {m}; raise the level")
    norm_c = g.c.norm()
    b = 4 * g.j.norm()
    best = None
    for rr in range(3 * m + 7):
        for nt in _lift_norms(g.j, g.c, _ring(rr)):
            if (best is None or nt < best) and gcd(nt, m) == 1:
                best = nt
        if best is not None:
            # z = x + y*omega on ring R = max(|x|, |y|) >= 1 has N(z) >=
            # 3R^2/4 in every field: R^2 - R|y| + n*y^2 >= R^2 - R^2/(4n)
            # where |x| = R, n*R^2 - R^2/4 where |y| = R.  So from ring
            # R = rr + 1 on, norms are at least (sqrt(3N(c))R/2 -
            # sqrt(N(j)))^2 > best exactly when sqrt(a) > sqrt(b) + sqrt(e)
            # for a = 3N(c)R^2, b = 4N(j), e = 4*best: D = a - b - e > 0
            # and D^2 > 4be
            a = 3 * norm_c * (rr + 1) ** 2
            e = 4 * best
            diff = a - b - e
            if diff > 0 and diff * diff > 4 * b * e:
                return best
    if best is not None:
        return best
    raise ValueError(
        f"no lift of {g.j!r} mod {g.c!r} has norm invertible mod {m}; "
        "raise the level")


def act_arithmetic(g: SymmetryElem, v: CycloNum) -> CycloNum:
    """Raise the roots of unity in v to the power N(t), where t is the
    smallest integral lift of j whose norm is invertible modulo the
    conductor of v, the modulus v is stored at; so equal values move
    alike."""
    return v.galois(_min_lift_norm(g, v.m) % v.m)


def compare_actions(r: TorsionClass, chi: CharacterPoint,
                    g: SymmetryElem) -> dict:
    """Evaluate the ground state at the moved character against the
    norm-twisted original value and decide equality exactly."""
    geometric = phi_extreme_infty(r, act_geometric(g, chi))
    arithmetic = act_arithmetic(g, phi_extreme_infty(r, chi))
    return {
        "field": chi.ctx.tag,
        "level": chi.c,
        "w": chi.w,
        "j": g.j,
        "geometric_value": geometric,
        "arithmetic_value": arithmetic,
        "equal": geometric == arithmetic,
    }


def regularity_check(c: FieldElem) -> dict:
    """Confirm that the symmetry group permutes the level-c ground
    states simply transitively.

    Checks, all exact, on the state tuples over the level-c torsion: the
    number of distinct tuples equals the group order; residues in one
    unit orbit give the same tuple; moving one ground state by every
    group element reaches every ground state (transitive) and a distinct
    one each time (free); and moving the character matches moving the
    torsion class (state transport).
    """
    cc, units, _, reps, rep_of = level_group(c)
    ctx = cc.ctx
    order = len(reps)
    pts = torsion_points(cc)

    ids: dict = {}  # each distinct state tuple, hashed once, to its id
    state_of = {}
    for w in units:
        chi = CharacterPoint(ctx, cc, w)
        row = tuple(phi_extreme_infty(r, chi) for r in pts)
        state_of[w] = ids.setdefault(row, len(ids))
    extreme_classes = len(ids)
    counts_match = extreme_classes == order
    orbits_align = all(state_of[w] == state_of[rep_of[w]] for w in units)

    base = reps[0]
    moved = [state_of[reduce_mod(j * base, cc)] for j in reps]
    transitive = set(moved) == set(range(extreme_classes))
    free = len(set(moved)) == order

    # both sides of phi(r, j*chi) = phi(j*r, chi) read from the table
    index = {r: i for i, r in enumerate(pts)}
    states = list(ids)
    at_base = states[state_of[base]]
    transport_ok = all(
        states[k][i] == at_base[index[torsion_class(j * r.rep)]]
        for j, k in zip(reps, moved) for i, r in enumerate(pts))

    all_ok = (counts_match and orbits_align and transitive and free
              and transport_ok)
    return {
        "field": ctx.tag,
        "level": cc,
        "group_order": order,
        "extreme_classes": extreme_classes,
        "counts_match": counts_match,
        "orbits_align": orbits_align,
        "transitive": transitive,
        "free": free,
        "transport_ok": transport_ok,
        "all_ok": all_ok,
    }
