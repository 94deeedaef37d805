"""Duality pairing at finite level, against hand-derived exponents.

Key independent facts frozen here:
  * over Q (delta = 1, w = 1) the pairing of a/b is just exp(2*pi*i*a/b);
  * over Q(i) (delta = 2i) the trace kills 1/2 but not i/2, so
    <i/2, chi_1> = -1 while <1/2, chi_1> = 1;
  * |(Z[i]/5)*| = 16 with unit image {1, i, -1, -i} of order 4;
  * |(Z/8)*| = 4 with unit image {1, 7} of order 2;
  * for d = 3 the residue field at 2 is F_4, whose multiplicative group
    of order 3 is exactly covered by the six units, killing the quotient.
"""
from fractions import Fraction
from math import floor

import pytest

from hecke.cyclotomic import CycloNum
from hecke.numberfield import (SUPPORTED_D, divide_exact, factor,
                               format_element, ideals_up_to, make_ctx,
                               reduce_mod, residues)
from hecke.pairing import (CharacterPoint, _trace_numerators,
                           _unit_trace_numerators,
                           character_laws, pair, pair_exponent)
from hecke.symmetry import level_group
from hecke.torsion import (denominator_element, stabilizer_index,
                           torsion_class, torsion_points)

Q = make_ctx(0)
GAUSS = make_ctx(1)
EISEN = make_ctx(3)


def test_construction_validates():
    chi = CharacterPoint.make(Q, 4, 1)
    assert chi.level_norm == 4
    with pytest.raises(ValueError):
        CharacterPoint.make(Q, 4, 2)  # 2 shares a factor with 4
    with pytest.raises(ValueError):
        CharacterPoint.make(Q, 0, 1)
    with pytest.raises(ValueError):
        CharacterPoint.make(Q, 4, Q.elem(Fraction(1, 2)))
    # the stored residue is reduced; level is canonicalized
    assert CharacterPoint.make(Q, -4, 5) == CharacterPoint.make(Q, 4, 1)


def test_rational_pairing_is_plain_exponential():
    chi = CharacterPoint.make(Q, 12, 1)
    for a in range(12):
        r = torsion_class(Q.elem(Fraction(a, 12)))
        assert pair_exponent(r, chi) == Fraction(a % 12, 12)
    assert pair(torsion_class(Q.elem(Fraction(1, 2))),
                CharacterPoint.make(Q, 2, 1)) == CycloNum(1, [-1])


def test_gauss_pairing_hand_values():
    # delta = 2i: Tr(i/(2*2i)) = Tr(1/4) = 1/2, Tr(1/(4i)) = 0
    chi = CharacterPoint.make(GAUSS, 2, 1)
    half = torsion_class(GAUSS.elem(Fraction(1, 2)))
    ihalf = torsion_class(GAUSS.omega / 2)
    assert pair(ihalf, chi) == CycloNum(1, [-1])
    assert pair(half, chi) == CycloNum(1, [1])
    assert pair_exponent(half, chi) == 0
    assert pair_exponent(ihalf, chi) == Fraction(1, 2)


def test_pair_rejects_too_small_level():
    chi = CharacterPoint.make(Q, 2, 1)
    r = torsion_class(Q.elem(Fraction(1, 3)))
    with pytest.raises(ValueError):
        pair_exponent(r, chi)


def test_lift_independence():
    # replacing w by w + c*z never changes the pairing
    for ctx, cval in [(Q, 5), (GAUSS, 2), (GAUSS, 5), (EISEN, 4)]:
        c = ctx.elem(cval)
        chi = CharacterPoint.make(ctx, c, 1)
        for z in list(residues(c))[:6]:
            lifted = CharacterPoint(ctx, chi.c, chi.w + c * z)
            for r in torsion_points(c):
                assert pair_exponent(r, lifted) == pair_exponent(r, chi)


def test_pairing_value_is_root_of_unity_of_bounded_order():
    for ctx in (Q, GAUSS, EISEN):
        disc = abs(ctx.discriminant)
        for cval in (2, 3, 5):
            c = ctx.elem(cval)
            chi = CharacterPoint.make(ctx, c, 1)
            bound = int(c.norm()) * disc
            for r in torsion_points(c):
                q = pair_exponent(r, chi)
                assert bound % q.denominator == 0


def test_unit_image_orders():
    # |image(O* -> (O/c)*)| equals the unit-orbit size of the class 1/c
    for ctx, cval in [(Q, 8), (GAUSS, 5), (GAUSS, 2), (EISEN, 2),
                      (EISEN, 3), (EISEN, 5)]:
        c = ctx.elem(cval)
        img = level_group(c).image
        orbit = stabilizer_index(torsion_class(1 / c))
        assert len(img) == orbit


def test_frozen_group_orders():
    # Z[i]/5: 16 units, image {1,i,-1,-i}, quotient of order 4
    c5 = GAUSS.elem(5)
    assert len(level_group(c5).units) == 16
    assert len(level_group(c5).image) == 4
    assert len(level_group(c5).reps) == 4
    # Z/8: 4 units, image {1,7}, quotient of order 2
    c8 = Q.elem(8)
    assert len(level_group(c8).units) == 4
    assert len(level_group(c8).image) == 2
    assert len(level_group(c8).reps) == 2
    # d=3 at 2: (O/2)* = F_4* has order 3 = |unit image|, trivial quotient
    c2 = EISEN.elem(2)
    assert len(level_group(c2).units) == 3
    assert len(level_group(c2).image) == 3
    assert len(level_group(c2).reps) == 1
    # trivial level
    assert len(level_group(Q.one).reps) == 1


def test_quotient_order_formula():
    # |(O/c)*| = N(c) prod_(p | c) (1 - 1/N(p)), and the unit image has
    # order |O*| / #{u in O* : u = 1 mod c}
    cases = [(Q, [1, 2, 3, 4, 5, 6, 8, 12]), (GAUSS, [1, 2, 3, 5]),
             (EISEN, [2, 3, 4, 5])]
    cases += [(make_ctx(d), [2, 3, make_ctx(d).omega])
              for d in (2, 7, 11, 43, 67, 163)]
    for ctx, cvals in cases:
        for cval in cvals:
            c = ctx.elem(cval) if isinstance(cval, int) else cval
            grp = level_group(c)
            phi = Fraction(int(c.norm()))
            for p, _ in factor(c):
                phi *= 1 - Fraction(1, p.norm())
            fixed = sum(1 for u in ctx.units
                        if divide_exact(u - 1, c) is not None)
            assert len(grp.units) == phi
            assert len(grp.image) == len(ctx.units) // fixed
            assert len(grp.units) == len(grp.image) * len(grp.reps)


def test_projective_system_coherence():
    # reduction mod a maps the unit image at level b onto the one at level a
    for ctx, a, b in [(Q, 4, 8), (Q, 3, 12), (GAUSS, 2, 4),
                      (EISEN, 2, 4)]:
        small, big = ctx.elem(a), ctx.elem(b)
        img_small = set(level_group(small).image)
        pushed = {reduce_mod(w, small) for w in level_group(big).image}
        assert pushed == img_small


def test_character_laws_trivial_level():
    rep = character_laws(CharacterPoint.make(Q, 1, 1))
    assert rep["all_ok"]


def test_character_laws_exhaustive_small_levels():
    for ctx, cvals in [(Q, [2, 3, 4, 5, 8]), (GAUSS, [2, 5]),
                       (EISEN, [2, 3])]:
        for cval in cvals:
            c = ctx.elem(cval)
            for w in level_group(c).units[:4]:
                rep = character_laws(CharacterPoint.make(ctx, c, w))
                assert rep["all_ok"], rep


def test_gauss_level5_additivity():
    rep = character_laws(CharacterPoint.make(GAUSS, 5, 1))
    assert rep["additive"] and rep["all_ok"]


def test_unit_multiple_of_delta_relabels_w():
    # replacing delta by u*delta is the same as twisting the datum by 1/u
    for ctx in (GAUSS, EISEN):
        c = ctx.elem(5)
        for u in ctx.units:
            uinv = next(v for v in ctx.units if u * v == 1)
            for w in level_group(c).units[:3]:
                chi = CharacterPoint.make(ctx, c, w)
                twisted = chi.twisted(uinv)
                for r in torsion_points(c)[:8]:
                    e = (r.rep * w / (u * ctx.delta)).trace()
                    assert e - floor(e) == pair_exponent(r, twisted)


def test_restriction_matches_lower_level():
    chi = CharacterPoint.make(Q, 12, 5)
    sub = chi.restricted(4)
    assert sub == CharacterPoint.make(Q, 4, 1)
    for r in torsion_points(Q.elem(4)):
        assert pair_exponent(r, sub) == pair_exponent(r, chi)


def test_denominator_gate_matches_denominator_element():
    chi = CharacterPoint.make(GAUSS, GAUSS.elem(1) + GAUSS.omega, 1)  # norm 2
    r_ok = torsion_class((GAUSS.elem(1)) / (GAUSS.elem(1) + GAUSS.omega))
    assert denominator_element(r_ok).norm() == 2
    pair_exponent(r_ok, chi)  # no error
    r_bad = torsion_class(GAUSS.elem(Fraction(1, 2)))
    with pytest.raises(ValueError):
        pair_exponent(r_bad, chi)
    # every field, levels and denominators of norm <= 30: the gate (one
    # product c*r) refuses exactly when the denominator ideal does not
    # contain c, and otherwise the exponent is frac(Tr(r*w/delta))
    refused = 0
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        ideals = ideals_up_to(ctx, 30)
        pts = {torsion_class(x / e) for e in ideals
               for x in (ctx.one, ctx.one + 2 * ctx.omega)}
        for c in ideals:
            for w in {ctx.one, level_group(c).units[-1]}:
                chi = CharacterPoint.make(ctx, c, w)
                for r in pts:
                    den = denominator_element(r)
                    if divide_exact(c, den) is None:
                        with pytest.raises(ValueError) as err:
                            pair_exponent(r, chi)
                        assert (f"denominator {format_element(den)} " in
                                str(err.value)), (d, c, r)
                        assert str(err.value).endswith(
                            f"level {format_element(c)}"), (d, c, r)
                        refused += 1
                    else:
                        e = (r.rep * chi.w / ctx.delta).trace()
                        assert pair_exponent(r, chi) == e - floor(e), \
                            (d, c, w, r)
    assert refused > 10_000


def test_unit_trace_numerators_against_field_traces():
    # every field, every level of norm <= 30, every unit residue w and
    # every torsion point of the level: the integer numerators, computed
    # with no field element and no division by delta, are the Fraction
    # traces of the field product z = r*w/delta
    checked = 0
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        assert ctx.units[0] == 1  # so want[0] is the pair of u = 1
        for c in ideals_up_to(ctx, 30):
            pts = torsion_points(c)
            for w in level_group(c).units:
                chi = CharacterPoint.make(ctx, c, w)
                for r in pts:
                    z = r.rep * chi.w / ctx.delta
                    want = [((u * z).trace(), (ctx.omega * u * z).trace())
                            for u in ctx.units]
                    q, t0, t1 = _trace_numerators(r, chi)
                    assert (Fraction(t0, q), Fraction(t1, q)) == want[0], \
                        (d, c, w, r)
                    q, traces = _unit_trace_numerators(r, chi)
                    assert [(Fraction(a0, q), Fraction(a1, q))
                            for a0, a1 in traces] == want, (d, c, w, r)
                    checked += 1
    assert checked == 46_126
