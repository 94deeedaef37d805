"""Acceptance gate: one test per headline guarantee, at stated tolerances.

Each test prints as a single pass/fail line under pytest -v.  Exact
checks use rational/cyclotomic arithmetic with zero tolerance; numeric
checks state their bound next to the assertion.  Oracles are spelled
out inline so every criterion is verified through two independent
routes where one exists.
"""
import math
import random
from fractions import Fraction

import numpy as np

from hecke.cyclotomic import CycloNum
from hecke.hecke_algebra import (HeckeElement, Monomial, adjoint, alpha,
                                 identity, mu, mul_hecke, theta)
from hecke.kms import (KmsParams, eigenvalue_list, kms_identity_check,
                       phi_extreme_beta, phi_extreme_infty, phi_symmetric,
                       phi_symmetric_element, zeta_k)
from hecke.numberfield import (canonical_generator, gcd_gen, ideals_up_to,
                               is_coprime, kronecker_symbol, make_ctx,
                               residues)
from hecke.oracle import GroupElem, count_R, verify_equivalence
from hecke.pairing import CharacterPoint
from hecke.symmetry import (SymmetryElem, compare_actions, group_elements,
                            level_group, regularity_check)
from hecke.torsion import torsion_class, torsion_points, unit_orbit

Q = make_ctx(0)
GAUSS = make_ctx(1)
EISEN = make_ctx(3)


def test_criterion_1_engine_matches_convolution_oracle():
    """Every monomial product at norms <= 8 equals the brute-force
    group-algebra convolution, in Q and Q(i); zero tolerance."""
    for ctx in (Q, GAUSS):
        report = verify_equivalence(ctx, 8)
        assert report["failed"] == 0, report["failures"][:3]
        assert report["checked"] == report["monomials"] ** 2
        assert report["checked"] > 0


def test_criterion_1_in_more_fields():
    """The same pairwise sweep over Q(sqrt(-2)), Q(sqrt(-7)) and
    Q(sqrt(-19)) at norms <= 6, over Q(sqrt(-3)), with six units, at norms
    <= 8, and over Q(sqrt(-11)) at norms <= 4 (48 monomials; at 5, where
    5 splits, there are 220)."""
    for d, bound in ((2, 6), (7, 6), (19, 6), (3, 8), (11, 4)):
        report = verify_equivalence(make_ctx(d), bound)
        assert report["failed"] == 0, report["failures"][:3]
        assert report["checked"] == report["monomials"] ** 2
        assert report["checked"] > 0


def test_criterion_2_coset_count_formula_vs_enumeration():
    """The index formula for right-coset counts agrees with explicit
    enumeration for all group elements with parameter norms <= 12, and
    R((0, a)) = N_a up to norm 100."""
    for ctx in (Q, GAUSS):
        gens = ideals_up_to(ctx, 12)
        dens = [(m, list(residues(m))) for m in gens]
        for p in gens:
            for q in gens:
                x = p / q
                for m, res in dens:
                    for t in res:
                        count_R(GroupElem(t / m, x))  # asserts both routes
    for ctx in (Q, GAUSS):
        for g in ideals_up_to(ctx, 100):
            assert count_R(GroupElem(ctx.zero, g)) == g.norm()


def test_criterion_3_presentation_relations():
    """Generator relations, the derived slide rule theta_r mu_a =
    mu_a theta_(ar), the lcm identity, and coprime commutation, all
    exact under the engine for exhaustive small parameters."""
    for ctx in (Q, GAUSS, EISEN):
        one = identity(ctx)
        gens = ideals_up_to(ctx, 6)
        rs = [r for m in gens for r in torsion_points(m)]

        for u in ctx.units:
            assert mu(u) == one
        assert theta(ctx.zero) == one

        for a in gens:
            assert mul_hecke(adjoint(mu(a)), mu(a)) == one
            for b in gens:
                assert mul_hecke(mu(a), mu(b)) == mu(a * b)

        for r in rs:
            assert adjoint(theta(r.rep)) == theta(-r.rep)
            for s in rs:
                lhs = mul_hecke(theta(r.rep), theta(s.rep))
                orb_r = sorted(unit_orbit(r))
                orb_s = sorted(unit_orbit(s))
                rhs = HeckeElement(ctx)
                for zr in orb_r:
                    for zs in orb_s:
                        rhs = rhs + theta(zr.rep + zs.rep)
                rhs = rhs * Fraction(1, len(orb_r) * len(orb_s))
                assert lhs == rhs, (ctx.tag, r, s)

        small = [g for g in gens if int(g.norm()) <= 5]
        for a in small:
            na = int(a.norm())
            for r in [z for m in gens if int(m.norm()) <= 4
                      for z in torsion_points(m)]:
                expanded = HeckeElement(ctx)
                for b in residues(a):
                    expanded = expanded + theta((r.rep + b) / a)
                expanded = expanded * Fraction(1, na)
                assert alpha(a, theta(r.rep)) == expanded
                assert mul_hecke(theta(r.rep), mu(a)) == \
                    mul_hecke(mu(a), theta(a * r.rep))

        for a in small:
            for b in small:
                g = gcd_gen(a, b)
                lc = canonical_generator(a * b / g)
                assert mul_hecke(alpha(a, one), alpha(b, one)) == \
                    alpha(lc, one)
                if is_coprime(a, b):
                    assert mul_hecke(adjoint(mu(b)), mu(a)) == \
                        mul_hecke(mu(a), adjoint(mu(b)))


def test_criterion_4_kms_identity_and_rescaling():
    """phi_beta(xy) = phi_beta(y sigma_(i beta)(x)) for beta in {2, 3},
    100 random small monomial pairs in Q and Q(i), plus the exact
    rescaling law phi_beta(alpha_a(x)) = N_a^(-beta) phi_beta(x)."""
    rng = random.Random(41)
    for ctx in (Q, GAUSS):
        gens = ideals_up_to(ctx, 5)
        pool = []
        for a in gens:
            for b in gens:
                for f in gens:
                    if int(f.norm()) > 4:
                        continue
                    pool.append(HeckeElement.from_monomial(
                        Monomial.make(ctx, a, ctx.one / f, b)))
        for beta in (2, 3):
            for _ in range(100):
                x = rng.choice(pool)
                y = rng.choice(pool)
                assert kms_identity_check(x, y, beta)
    for ctx, avals in [(Q, (2, 3)), (GAUSS, (2, GAUSS.elem(1, 1)))]:
        for a in avals:
            a = a if not isinstance(a, int) else ctx.elem(a)
            x = theta(ctx.one / ctx.elem(3)) + 2 * identity(ctx)
            for beta in (2, 3):
                assert phi_symmetric_element(alpha(a, x), beta) == \
                    Fraction(1, int(a.norm()) ** beta) \
                    * phi_symmetric_element(x, beta)


def test_criterion_5_closed_form_state_values():
    """phi_2(theta_(1/2)) = -1/2 over Q and -1/8 over Q(i); the ground
    state at w = 1 sends theta_(1/2) to 0 over Q(i) and -1 over Q."""
    assert phi_symmetric(torsion_class(Q.elem(Fraction(1, 2))), 2) \
        == Fraction(-1, 2)
    assert phi_symmetric(torsion_class(GAUSS.elem(Fraction(1, 2))), 2) \
        == Fraction(-1, 8)
    half_g = torsion_class(GAUSS.elem(Fraction(1, 2)))
    assert phi_extreme_infty(half_g, CharacterPoint.make(GAUSS, 2, 1)) \
        .is_zero
    half_q = torsion_class(Q.elem(Fraction(1, 2)))
    assert phi_extreme_infty(half_q, CharacterPoint.make(Q, 2, 1)) \
        == CycloNum(1, [-1])


def test_criterion_6_partition_function_and_spectrum():
    """zeta values against classical constants and an independent
    lattice double sum (both to 1e-6); the eigenvalue list matches
    ideal enumeration exactly."""
    vq, eq = zeta_k(Q, 2, tol=1e-7)
    assert abs(vq - 1.6449341) < 1e-6
    assert abs(vq - math.pi ** 2 / 6) < 1e-6

    vg, eg = zeta_k(GAUSS, 2, tol=1e-7)
    assert abs(vg - 1.5067030) < 1e-6
    L = 2000
    m = np.arange(1, L + 1, dtype=np.float64)
    n = np.arange(0, L + 1, dtype=np.float64)
    norm = np.add.outer(m * m, n * n)
    mask = norm <= L * L
    lattice = float(np.sum(norm[mask] ** -2.0))
    tail = (math.pi / 2) / (L * L) * 1.5
    assert abs(vg - lattice) <= tail + eg < 1e-6

    # the spectrum: log n with multiplicity a_K(n) = sum_(m | n) chi_D(m)
    for ctx, bound in [(Q, 12), (GAUSS, 12), (GAUSS, 6)]:
        want = []
        for n in range(1, bound + 1):
            count = 1 if ctx.is_rational else sum(
                kronecker_symbol(ctx.discriminant, m)
                for m in range(1, n + 1) if n % m == 0)
            want += [math.log(n)] * count
        assert eigenvalue_list(ctx, bound) == want


def test_criterion_7_extreme_state_structure():
    """At every level of norm <= 30 in Q, Q(i), Q(sqrt(-3)): the
    symmetry group order equals the number of extreme classes and the
    action is free and transitive (exact); the symmetry-group average
    of the finite-beta extreme states returns the symmetric state
    within the certified truncation bound at B = 1e5, beta = 2, and
    within 1e-6 on every class with a nontrivial denominator.  (The
    zero class carries the raw series tail, about 5e-6 at this cutoff,
    which no averaging can cancel; the certified bound covers it.)"""
    params = KmsParams(beta=2, bound=100_000, tol=1e-7)
    for ctx in (Q, GAUSS, EISEN):
        for c in ideals_up_to(ctx, 30):
            report = regularity_check(c)
            assert report["all_ok"], (ctx.tag, c)
            assert report["group_order"] == report["extreme_classes"]

            reps = level_group(c).reps
            for r in torsion_points(c):
                vals, errs = [], []
                for w in reps:
                    chi = CharacterPoint.make(ctx, c, w)
                    v, e = phi_extreme_beta(r, chi, params)
                    vals.append(v)
                    errs.append(e)
                mean = sum(vals) / len(vals)
                want = float(phi_symmetric(r, 2))
                certified = sum(errs) / len(errs)
                diff = abs(mean - want)
                assert diff <= certified, (ctx.tag, c, r, diff, certified)
                if not r.rep.is_zero:
                    assert diff <= 1e-6, (ctx.tag, c, r, diff)


def test_criterion_8_galois_comparison():
    """The moved-character value equals the norm-twisted value for
    every tested triple over Q; over Q(i) at r = 1/5, w = 1, j = 3 the
    two differ, with exact values (2 + 2cos(6pi/5))/4 versus
    (2 + 2cos(8pi/5))/4 in canonical cyclotomic form."""
    for cval in (4, 5, 8):
        c = Q.elem(cval)
        for g in group_elements(c):
            for w in level_group(c).reps:
                chi = CharacterPoint.make(Q, c, w)
                for r in torsion_points(c):
                    assert compare_actions(r, chi, g)["equal"]

    chi = CharacterPoint.make(GAUSS, 5, 1)
    r = torsion_class(GAUSS.elem(Fraction(1, 5)))
    g = SymmetryElem.make(GAUSS, 5, 3)
    rep = compare_actions(r, chi, g)
    assert rep["equal"] is False
    geo = CycloNum(5, [2, 0, 1, 1, 0], 4)  # (2 + zeta_5^2 + zeta_5^3)/4
    ari = CycloNum(5, [2, 1, 0, 0, 1], 4)  # (2 + zeta_5 + zeta_5^4)/4
    assert rep["geometric_value"] == geo != ari == rep["arithmetic_value"]
    assert abs(rep["geometric_value"].numeric()
               - (2 + 2 * math.cos(6 * math.pi / 5)) / 4) < 1e-12
    assert abs(rep["arithmetic_value"].numeric()
               - (2 + 2 * math.cos(8 * math.pi / 5)) / 4) < 1e-12


# (d, level, w, j, r) in coordinates on 1, w: for each imaginary field the
# first triple, by level norm, whose two actions give different values
_WITNESSES = (
    (1, (3, 0), (0, 1), (1, 1), (0, "1/3")),
    (2, (2, 0), (1, 0), (1, 1), ("1/2", 0)),
    (3, (1, 3), (-2, 3), (-2, 5), ("1/13", "9/13")),
    (7, (1, -2), (1, -1), (1, -1), ("1/7", "5/7")),
    *((d, (2, 0), (0, 1), (0, 1), (0, "1/2")) for d in (11, 19, 43, 67, 163)),
)


def test_criterion_8_if_and_only_if():
    """The two actions agree on every ground-state triple if and only if
    K = Q: every triple over Q at levels of norm <= 30 is equal, and each
    of the nine imaginary fields has an exact witness of inequality at a
    level of norm <= 13."""
    for k in range(1, 31):
        c = Q.elem(k)
        pts = torsion_points(c)
        for w in level_group(c).reps:
            chi = CharacterPoint.make(Q, c, w)
            for g in group_elements(c):
                for r in pts:
                    assert compare_actions(r, chi, g)["equal"], (k, w, g, r)
    assert len({d for d, *_ in _WITNESSES}) == 9
    for d, level, w, j, r in _WITNESSES:
        ctx = make_ctx(d)
        el = lambda xy: ctx.elem(Fraction(xy[0]), Fraction(xy[1]))
        c = el(level)
        assert int(c.norm()) <= 13
        rep = compare_actions(torsion_class(el(r)),
                              CharacterPoint.make(ctx, c, el(w)),
                              SymmetryElem.make(ctx, c, el(j)))
        assert rep["equal"] is False, d
        # unequal as complex numbers too, not only as stored forms
        assert abs(rep["geometric_value"].numeric()
                   - rep["arithmetic_value"].numeric()) > 1e-6, d


def test_criterion_9_ground_state_limit():
    """|phi_(chi, beta) - phi_(chi, inf)| on theta_r decreases over
    beta in {5, 10, 20} (up to 1e-12 float noise) and is below 1e-4 at
    beta = 20, for every level-5 class r in Q(i)."""
    chi = CharacterPoint.make(GAUSS, 5, 1)
    for r in torsion_points(GAUSS.elem(5)):
        target = phi_extreme_infty(r, chi).numeric()
        gaps = []
        for beta in (5, 10, 20):
            val, _ = phi_extreme_beta(
                r, chi, KmsParams(beta=beta, bound=2000, tol=1e-10))
            gaps.append(abs(val - target))
        assert gaps[1] <= gaps[0] + 1e-12, (r, gaps)
        assert gaps[2] <= gaps[1] + 1e-12, (r, gaps)
        assert gaps[2] < 1e-4, (r, gaps)
