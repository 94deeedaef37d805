"""Relation checks for the monomial algebra.

Frozen expansions below were computed by hand from the defining
relations; the engine results are compared against them and against
the direct one-relation formulas, never against themselves.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import hecke.hecke_algebra as ha
import hecke.torsion as torsion
from hecke.hecke_algebra import (HeckeElement, Monomial, _alpha_dict,
                                 _canonical_label, _mul_monomials,
                                 _range_projection, _slot_plan,
                                 _theta_dict_mul, alpha, beta_endo,
                                 dynamics_weight, identity, mu, sigma_i_beta,
                                 theta, theta_product)
from hecke.numberfield import (SUPPORTED_D, canonical_generator, divide_exact,
                               gcd_gen, ideals_up_to, make_ctx, residues)
from hecke.oracle import enumerate_monomials
from hecke.torsion import orbit_canonical, torsion_class


def q0():
    return make_ctx(0)


def gauss():
    return make_ctx(1)


def test_identity_and_trivial_generators():
    ctx = q0()
    one = identity(ctx)
    assert theta(ctx.zero) == one
    assert mu(ctx.one) == one
    for u in gauss().units:
        assert mu(u) == identity(gauss())
    assert one * one == one


def test_theta_depends_only_on_unit_orbit():
    ctx = gauss()
    r = ctx.elem(Fraction(1, 2), Fraction(1, 2))
    for u in ctx.units:
        assert theta(r * u) == theta(r)
    assert theta(r).adjoint() == theta(r)


def test_isometry_relations():
    # mu_a^* mu_a = 1 and mu_a mu_b = mu_{ab}
    for d in (0, 1, 3):
        ctx = make_ctx(d)
        elems = [ctx.elem(2), ctx.elem(3)]
        if not ctx.is_rational:
            elems.append(ctx.elem(1, 1))
        for a in elems:
            assert mu(a).adjoint() * mu(a) == identity(ctx)
            for b in elems:
                assert mu(a) * mu(b) == mu(a * b)


def test_monomial_canonicalization():
    ctx = q0()
    half = ctx.elem(Fraction(1, 2))
    m = Monomial.make(ctx, 1, ctx.elem(Fraction(1, 4)), 2)
    # shifting the label by the level lattice (1/2)O gives the same monomial
    assert Monomial.make(ctx, 1, ctx.elem(Fraction(3, 4)), 2) == m
    # unit scaling of the label too
    assert Monomial.make(ctx, 1, ctx.elem(Fraction(-1, 4)), 2) == m
    assert Monomial.make(ctx, 1, ctx.elem(Fraction(1, 8)), 2) != m
    # common factors fold into the label
    assert (Monomial.make(ctx, 2, half, 2)
            == Monomial.make(ctx, 1, ctx.elem(1), 1))
    assert (Monomial.make(ctx, 2, ctx.elem(Fraction(1, 4)), 2)
            == Monomial.make(ctx, 1, half, 1))
    # negative slots are absorbed
    assert mu(ctx.elem(-2)) == mu(ctx.elem(2))
    # idempotence
    m2 = Monomial.make(ctx, m.a, m.r, m.b)
    assert m2 == m and m2.r == m.r

    # redundant labels in every field: through the label memo and through
    # the uncached builder they give one monomial with one stored label
    build = _canonical_label.__wrapped__
    rng = random.Random(5)
    maxsize = _canonical_label.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        gens = ideals_up_to(ctx, 5)
        shifts = [ctx.zero, ctx.one] + ([] if d == 0 else [ctx.omega])
        for _ in range(12):
            a, b, c, f = (rng.choice(gens) for _ in range(4))
            r = rng.choice(residues(f)) / f
            base = Monomial.make(ctx, a, r, b)
            for _ in range(4):
                u, v, w = (rng.choice(ctx.units) for _ in range(3))
                # the factor c of both slots folds back into the label
                label = (c * a * u, (r / c + rng.choice(shifts)) * w,
                         c * b * v)
                got = Monomial.make(ctx, *label)
                t = torsion_class(label[1]).rep
                a1, r1, b1 = build(d, label[0].e0, label[0].e1,
                                   label[2].e0, label[2].e1, t.e0, t.e1, t.q)
                assert got == base, (d, label)
                assert (got.a, got.b, got.r.rep) == (a1, b1, r1.rep)
                assert (got.a, got.b, got.r.rep) == (base.a, base.b,
                                                     base.r.rep)
                assert hash(got) == hash(base)


def test_theta_product_frozen_rational():
    ctx = q0()
    half = ctx.elem(Fraction(1, 2))
    assert theta_product(half, half) == identity(ctx)
    third = ctx.elem(Fraction(1, 3))
    # (1/2)(theta_{2/3} + theta_0) with theta_{2/3} = theta_{1/3}
    got = theta_product(third, third)
    assert got == theta(third) * Fraction(1, 2) + identity(ctx) * Fraction(1, 2)


def test_theta_product_frozen_gauss():
    ctx = gauss()
    half = ctx.elem(Fraction(1, 2))
    halfw = ctx.elem(Fraction(1, 2), Fraction(1, 2))
    got = theta_product(half, half)
    want = identity(ctx) * Fraction(1, 2) + theta(halfw) * Fraction(1, 2)
    assert got == want


def test_theta_product_agrees_with_engine():
    # direct unit-average relation vs the full rewrite engine
    for d in (0, 1, 3):
        ctx = make_ctx(d)
        dens = [ctx.elem(2), ctx.elem(3)]
        if d == 1:
            dens.append(ctx.elem(1, 1))
        labels = [ctx.zero]
        for den in dens:
            labels.append(ctx.one / den)
            if not ctx.is_rational:
                labels.append(ctx.omega / den)
        for r in labels:
            for s in labels:
                assert theta_product(r, s) == theta(r) * theta(s)
                assert theta_product(r, s) == theta_product(s, r)


def test_corner_endomorphism_frozen():
    ctx = q0()
    two = ctx.elem(2)
    half = ctx.elem(Fraction(1, 2))
    got = alpha(two, identity(ctx))
    assert got == identity(ctx) * Fraction(1, 2) + theta(half) * Fraction(1, 2)
    g = gauss()
    got1 = alpha(g.elem(2), identity(g))
    want1 = (identity(g) * Fraction(1, 4)
             + theta(g.elem(Fraction(1, 2))) * Fraction(1, 2)
             + theta(g.elem(Fraction(1, 2), Fraction(1, 2))) * Fraction(1, 4))
    assert got1 == want1


def test_corner_endomorphism_vs_engine():
    # alpha_a(x) must equal mu_a x mu_a^*
    cases = [(q0(), [2, 3]), (gauss(), [2])]
    for ctx, norms in cases:
        mults = [ctx.elem(n) for n in norms]
        if ctx is cases[1][0]:
            mults.append(ctx.elem(1, 1))
        rs = [ctx.zero, ctx.one / ctx.elem(2)]
        for a in mults:
            for r in rs:
                x = theta(r)
                assert alpha(a, x) == mu(a) * x * mu(a).adjoint()
    assert alpha(q0().one, theta(q0().elem(Fraction(1, 3)))) == theta(
        q0().elem(Fraction(1, 3)))


def test_alpha_composition_and_lcm():
    ctx = q0()
    x = theta(ctx.elem(Fraction(1, 2)))
    a, b = ctx.elem(2), ctx.elem(3)
    assert alpha(a, alpha(b, x)) == alpha(a * b, x)
    # projections multiply to the lcm projection
    p2 = alpha(a, identity(ctx))
    p3 = alpha(b, identity(ctx))
    assert p2 * p3 == alpha(ctx.elem(6), identity(ctx))
    assert p2 * p2 == p2
    g = gauss()
    # (1+i) divides 2, so the lcm of the two ideals is (2)
    q2 = alpha(g.elem(2), identity(g))
    q11 = alpha(g.elem(1, 1), identity(g))
    assert q11 * q2 == q2


def test_transport_endomorphism():
    ctx = q0()
    quarter = ctx.elem(Fraction(1, 4))
    assert beta_endo(ctx.elem(2), theta(quarter)) == theta(
        ctx.elem(Fraction(1, 2)))
    assert beta_endo(ctx.elem(2), identity(ctx)) == identity(ctx)
    # beta_a is a left inverse of alpha_a
    for d in (0, 1):
        c = make_ctx(d)
        for a in (c.elem(2), c.elem(3)):
            for r in (c.zero, c.one / c.elem(2), c.one / c.elem(5)):
                x = theta(r)
                assert beta_endo(a, alpha(a, x)) == x
                # and alpha_a(beta_a(x)) = alpha_a(1) x
                assert alpha(a, beta_endo(a, x)) == alpha(
                    a, identity(c)) * x


def test_push_relation():
    # theta_r mu_a = mu_a theta_{ar}
    for d in (0, 1, 3):
        ctx = make_ctx(d)
        mults = [ctx.elem(2), ctx.elem(5)]
        if not ctx.is_rational:
            mults.append(ctx.omega + 1)
        rs = [ctx.one / ctx.elem(2), ctx.one / ctx.elem(3)]
        for a in mults:
            for r in rs:
                assert theta(r) * mu(a) == mu(a) * theta(r * a)
                assert mu(a).adjoint() * theta(r) == theta(
                    r * a) * mu(a).adjoint()


def test_range_projection_and_coprime_commutation():
    ctx = q0()
    two, three = ctx.elem(2), ctx.elem(3)
    assert mu(two) * mu(two).adjoint() == alpha(two, identity(ctx))
    left = mu(three).adjoint() * mu(two)
    right = mu(two) * mu(three).adjoint()
    assert left == right
    # with a common factor the order matters
    assert mu(two).adjoint() * mu(two * three) == mu(three)


def _ref_theta_mul(ctx, F, G):
    # relation (II.3) on {orbit class: Fraction}
    out = {}
    for t1, q1 in F.items():
        for t2, q2 in G.items():
            for w in ctx.units:
                k = orbit_canonical(t1 + t2.scaled(w))
                out[k] = out.get(k, 0) + q1 * q2 / len(ctx.units)
    return {k: v for k, v in out.items() if v}


def _ref_alpha(ctx, a, F):
    # relation (III) on {orbit class: Fraction}
    out = {}
    for t, q in F.items():
        for x in residues(a):
            k = orbit_canonical(torsion_class((t.rep + x) / a))
            out[k] = out.get(k, 0) + q / a.norm()
    return {k: v for k, v in out.items() if v}


def _fractions(part):
    den, nums = part
    return {k: Fraction(n, den) for k, n in nums.items()}


def test_integer_theta_part_matches_fraction_reference():
    rng = random.Random(23)
    for d in (0, 1, 3):
        ctx = make_ctx(d)
        gens = ideals_up_to(ctx, 12)
        non_units = [g for g in gens if not g.is_unit]

        def rand_part(size):
            # numerators of both signs, so that some sums cancel
            nums = {}
            for _ in range(size):
                f = rng.choice(gens)
                t = torsion_class(rng.choice(residues(f)) / f)
                nums[orbit_canonical(t)] = rng.choice((-3, -2, -1, 1, 2, 3))
            return rng.randint(1, 6), nums

        for _ in range(25):
            F, G = rand_part(3), rand_part(2)
            assert (_fractions(_theta_dict_mul(ctx, F, G))
                    == _ref_theta_mul(ctx, _fractions(F), _fractions(G)))
            g = rng.choice(non_units)
            assert (_fractions(_alpha_dict(ctx, g, F))
                    == _ref_alpha(ctx, g, _fractions(F)))
        zero = {orbit_canonical(torsion_class(ctx.zero)): Fraction(1)}
        for g in non_units:
            got = _range_projection(ctx.d, g.e0, g.e1)
            assert _fractions(got) == _ref_alpha(ctx, g, zero)
            assert _range_projection(ctx.d, g.e0, g.e1) is got
    assert _range_projection.cache_info().maxsize is not None


def _random_monomial(rng, ctx):
    if ctx.is_rational:
        pool = [ctx.elem(k) for k in (1, 1, 2, 3)]
        dens = [ctx.elem(k) for k in (1, 2, 3, 4)]
    else:
        pool = [ctx.one, ctx.one, ctx.elem(1, 1), ctx.elem(2)]
        dens = [ctx.one, ctx.elem(1, 1), ctx.elem(2), ctx.elem(2, 1)]
    a, b = rng.choice(pool), rng.choice(pool)
    den = rng.choice(dens)
    num = rng.randrange(3)
    r = ctx.elem(num) / den if ctx.is_rational else \
        (ctx.elem(num) + ctx.omega * rng.randrange(2)) / den
    return HeckeElement.from_monomial(
        Monomial.make(ctx, a, r, b), Fraction(rng.randint(1, 3), 2))


def test_associativity_random():
    rng = random.Random(991)
    for d, count in ((0, 30), (1, 18), (3, 10)):
        ctx = make_ctx(d)
        for _ in range(count):
            x = _random_monomial(rng, ctx)
            y = _random_monomial(rng, ctx)
            z = _random_monomial(rng, ctx)
            assert (x * y) * z == x * (y * z)


def test_adjoint_antihomomorphism():
    rng = random.Random(177)
    for d in (0, 1):
        ctx = make_ctx(d)
        for _ in range(12):
            x = _random_monomial(rng, ctx)
            y = _random_monomial(rng, ctx)
            assert (x * y).adjoint() == y.adjoint() * x.adjoint()
            assert x.adjoint().adjoint() == x


def test_theta_part_is_closed():
    rng = random.Random(5)
    ctx = gauss()
    for _ in range(10):
        r = ctx.elem(rng.randrange(4)) / ctx.elem(2, 1)
        s = ctx.omega * rng.randrange(3) / ctx.elem(2)
        prod = theta(r) * theta(s)
        assert prod.is_theta_type


def test_linearity_of_product():
    ctx = q0()
    x = theta(ctx.elem(Fraction(1, 2)))
    y = mu(ctx.elem(2))
    z = mu(ctx.elem(3)).adjoint()
    lhs = (x + y * 2) * z
    rhs = x * z + (y * z) * 2
    assert lhs == rhs


def test_dynamics_weight_values():
    ctx = q0()
    m_theta = Monomial.make(ctx, 1, ctx.elem(Fraction(1, 5)), 1)
    assert dynamics_weight(m_theta) == 1
    (m_mu,) = mu(ctx.elem(2)).terms
    assert dynamics_weight(m_mu) == 2
    (m_star,) = mu(ctx.elem(2)).adjoint().terms
    assert dynamics_weight(m_star) == Fraction(1, 2)
    g = gauss()
    (m_g,) = mu(g.elem(1, 1)).terms
    assert dynamics_weight(m_g) == 2


def test_sigma_scaling():
    ctx = q0()
    x = mu(ctx.elem(2))
    assert sigma_i_beta(x, 2) == x * Fraction(1, 4)
    assert sigma_i_beta(x.adjoint(), 2) == x.adjoint() * 4
    assert sigma_i_beta(identity(ctx), 5) == identity(ctx)
    # sigma is an algebra homomorphism
    rng = random.Random(31)
    for _ in range(8):
        a = _random_monomial(rng, ctx)
        b = _random_monomial(rng, ctx)
        assert sigma_i_beta(a * b, 3) == sigma_i_beta(a, 3) * sigma_i_beta(b, 3)


def test_alpha_rejects_outside_theta_part():
    ctx = q0()
    with pytest.raises(ValueError):
        alpha(ctx.elem(2), mu(ctx.elem(2)))
    with pytest.raises(ValueError):
        alpha(ctx.zero, identity(ctx))


def test_monomial_slot_validation():
    ctx = q0()
    with pytest.raises(ValueError):
        Monomial.make(ctx, 0, ctx.zero, 2)
    with pytest.raises(ValueError):
        Monomial.make(ctx, ctx.elem(Fraction(1, 2)), ctx.zero, 1)


# ---------------------------------------------------------------------------
# the integer kernels of the engine against the object-based rewriting
# they replaced: sums and rotations of TorsionClass objects, slot algebra
# on FieldElem objects and labels through Monomial.make


def _ref_theta_dict_mul(ctx, F, G):
    # relation (II.3) collapsed along the overall unit scaling, with the
    # same iteration order as the engine
    units = ctx.units
    rotated = [([t2.scaled(w) for w in units], n2) for t2, n2 in G[1].items()]
    out = {}
    for t1, n1 in F[1].items():
        for ts, n2 in rotated:
            for t2 in ts:
                k = orbit_canonical(t1 + t2)
                out[k] = out.get(k, 0) + n1 * n2
    return F[0] * G[0] * len(units), {k: v for k, v in out.items() if v}


def _ref_div(x, g):
    q = divide_exact(x, g)
    assert q is not None
    return canonical_generator(q)


def _ref_mul_monomials(m1, m2):
    ctx = m1.ctx
    a, r, b = m1.a, m1.r, m1.b
    c, s, d = m2.a, m2.r, m2.b
    g = gcd_gen(b, c)
    b1, c1 = _ref_div(b, g), _ref_div(c, g)
    H = 1, {orbit_canonical(r.scaled(b1)): 1}
    if not g.is_unit:
        H = _ref_theta_dict_mul(ctx, H, _range_projection(ctx.d, g.e0, g.e1))
    den, H = _ref_theta_dict_mul(ctx, H, (1, {orbit_canonical(s.scaled(c1)): 1}))
    E = canonical_generator(a * c1)
    h = gcd_gen(E, d)
    Q, d1 = _ref_div(E, h), _ref_div(d, h)
    P = canonical_generator(b1 * d1)
    assert gcd_gen(P, Q).is_unit
    mult = a * d1
    PQ = canonical_generator(P * Q)
    out = {}
    for t, n in H.items():
        m = Monomial.make(ctx, Q, torsion_class(t.scaled(mult).rep / PQ), P)
        out[m] = out.get(m, 0) + n
    return {k: Fraction(v, den) for k, v in out.items() if v}


@lru_cache(maxsize=len(SUPPORTED_D))
def _kernel_pool(d):
    ctx = make_ctx(d)
    dens = ideals_up_to(ctx, 40)
    return ctx, [(f, residues(f)) for f in dens], ideals_up_to(ctx, 5)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(SUPPORTED_D), st.randoms(use_true_random=False))
def test_integer_kernels_match_object_references(d, rng):
    # classes with denominators of norm <= 40 in all ten fields; the
    # product slots share a factor p, so that g = gcd(b, c) is not a unit
    # and a range projection enters the theta product
    ctx, dens, slots = _kernel_pool(d)

    def rand_class():
        f, xs = rng.choice(dens)
        return torsion_class(rng.choice(xs) / f)

    def rand_part(size):
        return rng.randint(1, 6), {orbit_canonical(rand_class()):
                                   rng.choice((-3, -2, -1, 1, 2, 3))
                                   for _ in range(size)}

    # dict order is part of a result: the oracle interns cosets in it
    F, G = rand_part(rng.randint(1, 3)), rand_part(rng.randint(1, 3))
    (den, got), (want_den, want) = (_theta_dict_mul(ctx, F, G),
                                    _ref_theta_dict_mul(ctx, F, G))
    assert den == want_den and list(got.items()) == list(want.items())

    def coprime_to(x):
        return rng.choice([y for y in slots if gcd_gen(x, y).is_unit])

    p = rng.choice(slots[1:])
    b, c = p * rng.choice(slots), p * rng.choice(slots)
    m1 = Monomial.make(ctx, coprime_to(b), rand_class(), b)
    m2 = Monomial.make(ctx, c, rand_class(), coprime_to(c))
    assert not gcd_gen(m1.b, m2.a).is_unit
    for x, y in ((m1, m2), (m2, m1), (m1, m1)):
        got, want = _mul_monomials(x, y), _ref_mul_monomials(x, y)
        assert list(got.items()) == list(want.items()), (x, y)


def test_mul_monomials_in_fields_without_euclid():
    # criterion 1 sweeps no field past d19; here random canonical pairs of
    # Q(sqrt(-43)), Q(sqrt(-67)) and Q(sqrt(-163)), whose least split
    # primes are 11, 17 and 41: slots up to norm 50 reach them
    rng = random.Random(163)
    for d in (43, 67, 163):
        ctx = make_ctx(d)
        gens = ideals_up_to(ctx, 50)
        slots = gens[:6] + [g for g in gens if g.e1]
        dens = [(f, residues(f)) for f in gens]

        def rand_monomial():
            f, xs = rng.choice(dens)
            return Monomial.make(ctx, rng.choice(slots), rng.choice(xs) / f,
                                 rng.choice(slots))

        for _ in range(150):
            m1, m2 = rand_monomial(), rand_monomial()
            got, want = _mul_monomials(m1, m2), _ref_mul_monomials(m1, m2)
            assert list(got.items()) == list(want.items()), (m1, m2)


def test_warm_products_build_no_classes(monkeypatch):
    # a product met before reads every orbit from the orbit table of
    # hecke.torsion by its integer key, and every slot plan and label from
    # its memo: no torsion class is built, in the engine or in torsion,
    # where an orbit miss builds its class; 100 pairs have at most 100
    # slot quadruples, within the plan memo
    rng = random.Random(7)
    pairs = []
    for d in (0, 1, 3, 7):
        mons = enumerate_monomials(make_ctx(d), 4)
        pairs += [(rng.choice(mons), rng.choice(mons)) for _ in range(25)]
    cold = [_mul_monomials(m1, m2) for m1, m2 in pairs]

    def built(*args):
        raise AssertionError(f"class built from {args!r}")

    def constructed(self, ctx, rep):
        raise AssertionError(f"class of {rep!r} built")

    monkeypatch.setattr(ha, "orbit_canonical", built)
    monkeypatch.setattr(torsion.TorsionClass, "__init__", constructed)
    misses = _slot_plan.cache_info().misses
    assert [_mul_monomials(m1, m2) for m1, m2 in pairs] == cold
    assert _slot_plan.cache_info().misses == misses
    maxsize = _slot_plan.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
