"""Checks for K/O classes against brute-force searches."""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from hecke import torsion
from hecke.numberfield import FieldElem, divide_exact, make_ctx
from hecke.torsion import (_orbit_of, denominator_element, orbit_canonical,
                           reduce01, stabilizer, stabilizer_index,
                           torsion_class, torsion_points, unit_orbit)


def test_reduce01_is_a_transversal():
    ctx = make_ctx(3)
    x = ctx.elem(Fraction(7, 3), Fraction(-5, 4))
    r = reduce01(x)
    assert (x - r).is_integral
    assert 0 <= r.c0 < 1 and 0 <= r.c1 < 1
    assert reduce01(r) == r
    assert reduce01(x + ctx.elem(9, -13)) == r


def test_class_arithmetic():
    ctx = make_ctx(1)
    a = torsion_class(ctx.elem(Fraction(1, 2)))
    b = torsion_class(ctx.elem(Fraction(1, 2), Fraction(1, 2)))
    assert (a + a).is_zero
    assert a + b == torsion_class(ctx.elem(0, Fraction(1, 2)))
    assert -b + b == torsion_class(ctx.zero)
    assert b.scaled(ctx.elem(1, 1)) == torsion_class(ctx.elem(0, 1))
    with pytest.raises(ValueError):
        b.scaled(ctx.elem(Fraction(1, 2)))


def test_denominator_element_definition():
    # oracle: q*r is integral and every z in a box with z*r integral
    # is a multiple of q
    for d, coords in [(0, [(Fraction(3, 4), 0), (Fraction(5, 6), 0)]),
                      (1, [(Fraction(1, 2), Fraction(1, 2)),
                           (Fraction(1, 5), 0),
                           (Fraction(1, 3), Fraction(2, 3))]),
                      (7, [(Fraction(1, 2), Fraction(1, 2))])]:
        ctx = make_ctx(d)
        for c0, c1 in coords:
            r = torsion_class(ctx.elem(c0, c1))
            q = denominator_element(r)
            assert (r.rep * q).is_integral
            box = range(-6, 7)
            for z0 in box:
                for z1 in (box if not ctx.is_rational else (0,)):
                    z = ctx.elem(z0, z1)
                    if (r.rep * z).is_integral:
                        assert divide_exact(z, q) is not None


def test_denominator_examples():
    q = make_ctx(0)
    assert denominator_element(torsion_class(q.elem(Fraction(3, 4)))) == 4
    assert denominator_element(torsion_class(q.zero)) == 1
    ctx = make_ctx(1)
    half = torsion_class(ctx.elem(Fraction(1, 2), Fraction(1, 2)))
    # (1+i)/2 has denominator ideal (1-i), of norm 2
    assert denominator_element(half).norm() == 2


def test_stabilizers():
    q = make_ctx(0)
    assert stabilizer_index(torsion_class(q.elem(Fraction(1, 2)))) == 1
    assert stabilizer_index(torsion_class(q.elem(Fraction(1, 3)))) == 2
    ctx = make_ctx(1)
    assert stabilizer_index(torsion_class(ctx.elem(Fraction(1, 2)))) == 2
    assert stabilizer_index(
        torsion_class(ctx.elem(Fraction(1, 2), Fraction(1, 2)))) == 1
    assert stabilizer_index(torsion_class(ctx.elem(Fraction(1, 5)))) == 4
    # stabilizers are subgroups containing 1
    r = torsion_class(ctx.elem(Fraction(1, 3), Fraction(1, 3)))
    stab = stabilizer(r)
    assert ctx.one in stab
    assert len(stab) * stabilizer_index(r) == len(ctx.units)


def test_unit_orbits():
    ctx = make_ctx(3)
    r = torsion_class(ctx.elem(Fraction(1, 2)))
    orb = unit_orbit(r)
    assert len(orb) == stabilizer_index(r)
    can = orbit_canonical(r)
    assert can in orb
    for s in orb:
        assert orbit_canonical(s) == can
    assert orbit_canonical(can) == can


def test_torsion_points_counts():
    q = make_ctx(0)
    assert len(torsion_points(q.elem(6))) == 6
    ctx = make_ctx(1)
    pts = torsion_points(ctx.elem(1, 1))
    assert len(pts) == 2
    pts4 = torsion_points(ctx.elem(2))
    assert len(pts4) == 4
    half = ctx.elem(2)
    for p in pts4:
        assert p.scaled(half).is_zero
    with pytest.raises(ValueError):
        torsion_points(ctx.elem(Fraction(1, 2)))


def test_zero_class_conventions():
    ctx = make_ctx(2)
    z = torsion_class(ctx.zero)
    assert stabilizer_index(z) == 1
    assert orbit_canonical(z) == z
    assert denominator_element(z) == 1


def test_orbit_of_reads_the_orbit_table(monkeypatch):
    # the engine asks for orbits by reduced integer triple; it must get
    # the very object orbit_canonical gives for the class, on a miss or
    # a hit, whichever is asked first, and that is the least of the orbit
    monkeypatch.setattr(torsion, "_orbit_cache", {})
    rng = random.Random(25)
    for d in (0, 1, 3, 7):
        ctx = make_ctx(d)
        for k in range(150):
            q = rng.randint(1, 30)
            e0, e1 = rng.randrange(q), rng.randrange(q) if d else 0
            g = gcd(e0, e1, q)
            e0, e1, q = e0 // g, e1 // g, q // g
            r = torsion_class(FieldElem(ctx, e0, e1, q))
            if k % 2:
                got = _orbit_of(ctx, e0, e1, q)
                assert got is orbit_canonical(r)
            else:
                got = orbit_canonical(r)
                assert got is _orbit_of(ctx, e0, e1, q)
            assert got == min(unit_orbit(r)), (d, e0, e1, q)
