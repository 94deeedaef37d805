"""Group structure of the level-c symmetries and the two actions.

The geometric action moves the character; the arithmetic action raises
roots of unity to the norm of a lift.  Over the rationals the norm is
the identity on residues, so the two always agree; over an imaginary
quadratic field the norm is quadratic in the residue and the actions
already part ways at level 5.  These tests pin the group laws, both
actions, the transport identity, and the regularity report.
"""
import math
from fractions import Fraction

import pytest

from hecke import symmetry
from hecke.cyclotomic import CycloNum, from_exponent, root_of_unity
from hecke.kms import phi_extreme_infty
from hecke.numberfield import ideals_up_to, make_ctx, reduce_mod
from hecke.pairing import CharacterPoint, pair
from hecke.symmetry import (SymmetryElem, act_arithmetic, act_geometric,
                            compare_actions, group_elements, level_group,
                            regularity_check)
from hecke.torsion import torsion_class, torsion_points

Q = make_ctx(0)
GAUSS = make_ctx(1)
EISEN = make_ctx(3)


def test_construction_and_class_equality():
    g = SymmetryElem.make(GAUSS, 5, 1)
    h = SymmetryElem.make(GAUSS, 5, GAUSS.omega)  # differs by a unit
    assert g == h and hash(g) == hash(h)
    assert g.is_identity()
    k = SymmetryElem.make(GAUSS, 5, 2)
    assert k != g
    # negative level canonicalizes to the same group
    m = SymmetryElem.make(Q, -5, 2)
    assert m == SymmetryElem.make(Q, 5, 2)
    with pytest.raises(ValueError):
        SymmetryElem.make(Q, 6, 3)  # not invertible
    with pytest.raises(ValueError):
        SymmetryElem.make(Q, 5, Q.elem(Fraction(1, 2)))


def test_group_laws_exhaustive():
    levels = [(Q, 8), (Q, 12), (GAUSS, 5),
              (GAUSS, GAUSS.elem(1) + GAUSS.omega), (EISEN, 7)]
    for ctx, c in levels:
        els = group_elements(ctx.elem(c) if isinstance(c, int) else c)
        ident = [e for e in els if e.is_identity()]
        assert len(ident) == 1
        for a in els:
            assert (a * ident[0]) == a == (ident[0] * a)
            assert (a * a.inverse()).is_identity()
            for b in els:
                assert (a * b) in els
                for d in els:
                    assert ((a * b) * d) == (a * (b * d))


def test_element_against_level_group_table():
    # an element holds its residue alone; its inverse, equality, hash
    # and identity test must agree with the table of the whole group
    for ctx in (Q, GAUSS, EISEN):
        for c in ideals_up_to(ctx, 30):
            grp = level_group(c)
            one = reduce_mod(ctx.one, c)
            els = [SymmetryElem.make(ctx, c, w) for w in grp.units]
            for g in els:
                brute = [z for z in grp.units
                         if reduce_mod(g.j * z, c) == one]
                assert [g.inverse().j] == brute, (ctx.tag, c, g)
                assert g.is_identity() == (grp.rep_of[g.j]
                                           == grp.rep_of[one])
                for h in els:
                    same = grp.rep_of[g.j] == grp.rep_of[h.j]
                    assert (g == h) == same, (ctx.tag, c, g, h)
                    if same:
                        assert hash(g) == hash(h)


def test_compare_actions_builds_no_level_group(monkeypatch):
    # (O/cO)* has 320,000 residues at this level, and one element needs
    # none of the others: no table of size N(c) is built
    monkeypatch.setattr(symmetry, "_level_cache", {})
    c = GAUSS.elem(1000)
    chi = CharacterPoint.make(GAUSS, c, 1)
    g = SymmetryElem.make(GAUSS, c, 3)
    rep = compare_actions(torsion_class(GAUSS.elem(Fraction(1, 1000))),
                          chi, g)
    assert (g * g.inverse()).is_identity()
    assert rep["j"] == 3 and rep["equal"] is False
    assert symmetry._level_cache == {}


def test_level_mismatch_errors():
    a = SymmetryElem.make(Q, 5, 2)
    b = SymmetryElem.make(Q, 7, 2)
    with pytest.raises(ValueError):
        a * b
    chi = CharacterPoint.make(Q, 7, 1)
    with pytest.raises(ValueError):
        act_geometric(a, chi)


def test_geometric_action_basics():
    chi = CharacterPoint.make(Q, 5, 1)
    assert act_geometric(SymmetryElem.make(Q, 5, 1), chi) == chi
    moved = act_geometric(SymmetryElem.make(Q, 5, 2), chi)
    r = torsion_class(Q.elem(Fraction(1, 5)))
    assert pair(r, moved) == from_exponent(Fraction(2, 5))


def test_geometric_action_composes_and_is_transitive():
    c = GAUSS.elem(5)
    els = group_elements(c)
    chi = CharacterPoint.make(GAUSS, 5, 1)
    for a in els:
        for b in els:
            assert act_geometric(a * b, chi) == \
                act_geometric(a, act_geometric(b, chi))
    # the orbit of chi_1 meets every symmetry class exactly once
    moved = [act_geometric(g, chi).w for g in els]
    assert len(set((w.c0, w.c1) for w in moved)) == len(els)
    reps = level_group(c).reps
    img = level_group(c).image
    classes = set()
    for w in moved:
        orbit = [reduce_mod(w * u, c) for u in img]
        classes.add(min((z.c0, z.c1) for z in orbit))
    assert classes == set((z.c0, z.c1) for z in reps)


def test_arithmetic_action_norm_examples():
    z5 = root_of_unity(5)
    assert act_arithmetic(SymmetryElem.make(Q, 5, 3), z5) == \
        root_of_unity(5, 3)
    # diagonal 3 in the Gaussians has norm 9
    assert act_arithmetic(SymmetryElem.make(GAUSS, 5, 3), z5) == \
        root_of_unity(5, 4)
    assert act_arithmetic(SymmetryElem.make(GAUSS, 5, 1), z5) == z5
    # rational values never move
    v = CycloNum(1, [7], 3)
    assert act_arithmetic(SymmetryElem.make(GAUSS, 5, 2), v) == v


def test_arithmetic_action_depends_on_the_value_alone():
    # zeta_10^2 and zeta_5 are one value, so every symmetry moves them
    # alike; read at modulus 10 the lift search could pick another norm
    c = GAUSS.elem(1) + 4 * GAUSS.omega
    for g in group_elements(c):
        assert act_arithmetic(g, root_of_unity(10, 2)) == \
            act_arithmetic(g, root_of_unity(5))


def test_arithmetic_action_lift_independence_at_rational_level():
    # at a rational level c with m | c every admissible lift has the
    # same norm mod m, so the exponent cannot depend on the search
    for t in (3, -2, GAUSS.elem(3) + 5 * GAUSS.omega,
              GAUSS.elem(3) - 10 * GAUSS.omega):
        te = t if not isinstance(t, int) else GAUSS.elem(t)
        assert int(te.norm()) % 5 == 4


def test_compare_actions_always_equal_over_q():
    for cval in (4, 5, 8):
        c = Q.elem(cval)
        els = group_elements(c)
        for g in els:
            for w in level_group(c).reps:
                chi = CharacterPoint.make(Q, c, w)
                for r in torsion_points(c):
                    rep = compare_actions(r, chi, g)
                    assert rep["equal"], (cval, g, w, r)


def test_compare_actions_gaussian_witness():
    chi = CharacterPoint.make(GAUSS, 5, 1)
    r = torsion_class(GAUSS.elem(Fraction(1, 5)))
    g = SymmetryElem.make(GAUSS, 5, 3)
    rep = compare_actions(r, chi, g)
    assert not rep["equal"]
    geo = CycloNum(5, [2, 0, 1, 1, 0], 4)  # (2 + zeta_5^2 + zeta_5^3)/4
    ari = CycloNum(5, [2, 1, 0, 0, 1], 4)  # (2 + zeta_5 + zeta_5^4)/4
    assert rep["geometric_value"] == geo
    assert rep["arithmetic_value"] == ari
    assert abs(rep["geometric_value"].numeric()
               - (2 + 2 * math.cos(6 * math.pi / 5)) / 4) < 1e-12
    assert abs(rep["arithmetic_value"].numeric()
               - (2 + 2 * math.cos(8 * math.pi / 5)) / 4) < 1e-12


def test_compare_actions_identity_always_equal():
    chi = CharacterPoint.make(GAUSS, 5, 2)
    r = torsion_class(GAUSS.elem(Fraction(2, 5)))
    g = SymmetryElem.make(GAUSS, 5, 1)
    assert compare_actions(r, chi, g)["equal"]


def test_disagreement_exists_for_each_quadratic_field():
    for ctx, cval in [(GAUSS, 5), (EISEN, 7)]:
        c = ctx.elem(cval)
        found = False
        for g in group_elements(c):
            chi = CharacterPoint.make(ctx, c, 1)
            for r in torsion_points(c):
                if not compare_actions(r, chi, g)["equal"]:
                    found = True
                    break
            if found:
                break
        assert found, ctx.tag


def test_state_transport_identity():
    c = GAUSS.elem(5)
    chi = CharacterPoint.make(GAUSS, 5, 1)
    for g in group_elements(c):
        for r in torsion_points(c):
            lhs = phi_extreme_infty(r, act_geometric(g, chi))
            rhs = phi_extreme_infty(torsion_class(g.j * r.rep), chi)
            assert lhs == rhs


def test_regularity_small_levels_all_fields():
    for ctx in (Q, GAUSS, EISEN):
        for c in ideals_up_to(ctx, 12):
            rep = regularity_check(c)
            assert rep["all_ok"], (ctx.tag, c)
            assert rep["group_order"] == rep["extreme_classes"]


def test_regularity_frozen_orders():
    assert regularity_check(GAUSS.elem(5))["group_order"] == 4
    assert regularity_check(EISEN.elem(2))["group_order"] == 1
    assert regularity_check(Q.elem(5))["group_order"] == 2
    assert regularity_check(Q.elem(8))["group_order"] == 2
    assert regularity_check(Q.elem(1))["group_order"] == 1
    inert3 = regularity_check(GAUSS.elem(3))
    assert inert3["group_order"] == 2 and inert3["all_ok"]


def test_regularity_reads_the_ground_states(monkeypatch):
    # with every ground state equal, the group cannot act freely on them
    monkeypatch.setattr(symmetry, "phi_extreme_infty",
                        lambda r, chi: CycloNum(1, [1]))
    rep = regularity_check(GAUSS.elem(5))
    assert rep["group_order"] == 4 and rep["extreme_classes"] == 1
    assert rep["transitive"] and not rep["free"] and not rep["all_ok"]


def test_restriction_to_divisor_level_is_group_hom():
    for ctx, bval, aval in [(Q, 10, 5), (GAUSS, 5, 5),
                            (GAUSS, GAUSS.elem(3) * (GAUSS.elem(1)
                                                     + GAUSS.omega),
                             GAUSS.elem(1) + GAUSS.omega)]:
        b = ctx.elem(bval) if isinstance(bval, int) else bval
        a = ctx.elem(aval) if isinstance(aval, int) else aval
        els = group_elements(b)

        def down(g):
            return SymmetryElem.make(ctx, a, g.j)

        for g1 in els:
            for g2 in els:
                assert down(g1 * g2) == down(g1) * down(g2)
        images = {down(g) for g in els}
        assert images == set(group_elements(a))
