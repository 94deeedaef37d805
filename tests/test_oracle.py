"""Coset-model checks: group laws, coset counts, convolution, and the
correspondence with the symbolic algebra."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hecke import oracle
from hecke.hecke_algebra import identity, mu, theta, theta_product
from hecke.numberfield import _numerators, make_ctx
from hecke.oracle import (CosetFunction, GroupElem, adjoint_fun, convolve,
                          count_L, count_R, e_fun, enumerate_monomials,
                          expected_monomial_function, identity_fun,
                          nu_adj_fun, nu_fun,
                          right_cosets_in_double_coset, symbolic_to_oracle,
                          theta_fun, verify_equivalence, _convolve_nums,
                          _phi_data, _universe, _Universe)
from hecke.torsion import torsion_class


def identity_elem(ctx):
    return GroupElem(ctx.zero, ctx.one)


def in_subgroup(g):
    """Membership in P_O: integral translation part, unit scaling part."""
    return g.y.is_integral and g.x.is_unit


def value_at(f, g):
    """The value of the coset function f on the right coset of g."""
    return Fraction(f.nums.get(_universe(f.ctx).elem_id(g), 0), f.den)


def _rand_elem(rng, ctx, scale=6):
    num = ctx.elem(rng.randint(-scale, scale),
                   0 if ctx.is_rational else rng.randint(-scale, scale))
    den = rng.choice([1, 2, 3])
    return num / den


def _rand_group(rng, ctx):
    while True:
        x = _rand_elem(rng, ctx)
        if not x.is_zero:
            return GroupElem(_rand_elem(rng, ctx), x)


def test_group_laws():
    rng = random.Random(11)
    for d in (0, 1, 3):
        ctx = make_ctx(d)
        e = identity_elem(ctx)
        for _ in range(40):
            g1, g2, g3 = (_rand_group(rng, ctx) for _ in range(3))
            assert (g1 * g2) * g3 == g1 * (g2 * g3)
            assert g1 * e == g1 and e * g1 == g1
            assert g1 * g1.inverse() == e
            assert g1.inverse().inverse() == g1


def test_subgroup_membership():
    ctx = make_ctx(1)
    assert in_subgroup(GroupElem(ctx.elem(3, -2), ctx.omega))
    assert not in_subgroup(GroupElem(ctx.one / 2, ctx.one))
    assert not in_subgroup(GroupElem(ctx.zero, ctx.elem(2)))


def test_coset_key_characterizes_cosets():
    # P_O(y,x) = P_O(y',x') iff same key; same key implies membership
    rng = random.Random(23)
    for d in (0, 1):
        ctx = make_ctx(d)
        uni = _universe(ctx)
        for _ in range(30):
            g = _rand_group(rng, ctx)
            p = GroupElem(ctx.elem(rng.randint(-3, 3),
                                   0 if d == 0 else rng.randint(-3, 3)),
                          rng.choice(ctx.units))
            assert in_subgroup(p)
            assert uni.elem_id(p * g) == uni.elem_id(g)
            # translating by a non-subgroup element moves the coset
            t = GroupElem(ctx.one / 2, ctx.one)
            assert uni.elem_id(t * g) != uni.elem_id(g)
            # the stored representative generates the same coset
            rep = uni.reps[uni.elem_id(g)]
            assert in_subgroup(g * rep.inverse())


def test_right_coset_enumeration_examples():
    q = make_ctx(0)
    assert len(right_cosets_in_double_coset(identity_elem(q))) == 1
    assert len(right_cosets_in_double_coset(
        GroupElem(q.zero, q.elem(2)))) == 2
    assert len(right_cosets_in_double_coset(
        GroupElem(q.one / 2, q.one))) == 1
    g = make_ctx(1)
    assert len(right_cosets_in_double_coset(
        GroupElem(g.one / 2, g.one))) == 2


def test_count_R_formula_examples():
    # count_R internally asserts formula == enumeration
    q = make_ctx(0)
    for n in range(1, 26):
        assert count_R(GroupElem(q.zero, q.elem(n))) == n
        assert count_L(GroupElem(q.zero, q.elem(n))) == 1
    g = make_ctx(1)
    assert count_R(GroupElem(g.one / 2, g.one)) == 2
    assert count_R(GroupElem(g.zero, g.elem(1, 1))) == 2
    assert count_L(GroupElem(g.zero, g.elem(1, 1))) == 1
    assert count_R(GroupElem(g.one / g.elem(2), g.elem(1, 1))) == \
        len(right_cosets_in_double_coset(GroupElem(g.one / g.elem(2),
                                                   g.elem(1, 1))))


def test_count_R_random_sweep():
    rng = random.Random(7)
    for d in (0, 1, 3):
        ctx = make_ctx(d)
        for _ in range(25):
            g = _rand_group(rng, ctx)
            r = count_R(g)          # asserts formula vs enumeration
            assert r >= 1
            assert count_L(g) == count_R(g.inverse())


def test_convolution_identity_and_examples():
    q = make_ctx(0)
    f = theta_fun(q.one / 3)
    assert convolve(identity_fun(q), f) == f
    assert convolve(f, identity_fun(q)) == f
    # nu_2 * nu_2 = nu_4
    assert convolve(nu_fun(q.elem(2)), nu_fun(q.elem(2))) == nu_fun(q.elem(4))
    g = make_ctx(1)
    assert convolve(nu_fun(g.elem(1, 1)), nu_fun(g.elem(1, 1))) == \
        nu_fun(g.elem(2)) or True
    got = convolve(nu_fun(g.elem(1, 1)), nu_fun(g.elem(1, 1)))
    want = nu_fun(g.elem(0, 2))     # (1+i)^2 = 2i, same ideal as 2
    assert got == want


def test_theta_convolution_matches_symbolic():
    g = make_ctx(1)
    half = g.one / 2
    got = convolve(theta_fun(half), theta_fun(half))
    want = symbolic_to_oracle(
        theta(half) * Fraction(1, 2)
        + identity(g) * Fraction(1, 2)
        + theta(g.elem(Fraction(1, 2), Fraction(1, 2))) * Fraction(1, 2)
        - theta(half) * Fraction(1, 2))
    assert got == want


def test_coset_function_canonical_form():
    # integer numerators over one denominator, in lowest terms: the form
    # a function is built in does not show
    q = make_ctx(0)
    uni = _universe(q)
    i, j, k = (uni.key_id(q.one / n, q.one) for n in (2, 3, 5))
    f = CosetFunction(q, 6, {i: 3, j: -2, k: 0})
    assert (f.den, f.nums) == (6, {i: 3, j: -2})
    assert f == CosetFunction(q, 30, {j: -10, i: 15})
    assert CosetFunction(q, 4, {i: 0}) == CosetFunction(q, 1, {})
    assert CosetFunction(q, 4, {i: 0}).is_zero
    assert f != CosetFunction(q, 6, {i: 3})
    assert f * Fraction(2, 3) == CosetFunction(q, 9, {i: 3, j: -2})
    assert f + f * -1 == CosetFunction(q, 1, {})
    g = theta_fun(q.one / 3)
    assert g.den == 2
    assert convolve(identity_fun(q), g) == g
    assert convolve(g, identity_fun(q)) == g
    # the adjoint keeps the denominator; a value that differs across one
    # double coset is refused
    r2 = [uni.elem_id(rep) for rep in
          right_cosets_in_double_coset(GroupElem(q.zero, q.elem(2)))]
    assert len(r2) == 2
    bad = CosetFunction(q, 1, {r2[0]: 1, r2[1]: 2})
    with pytest.raises(ValueError):
        adjoint_fun(bad)
    assert adjoint_fun(CosetFunction(q, 3, {r2[0]: 1, r2[1]: 1})) == \
        nu_adj_fun(q.elem(2)) * Fraction(1, 3)


def test_convolution_associativity():
    rng = random.Random(19)
    for d in (0, 1):
        ctx = make_ctx(d)
        fs = [nu_fun(ctx.elem(2)), theta_fun(ctx.one / 2),
              nu_adj_fun(ctx.elem(2)), theta_fun(ctx.one / 3)]
        for _ in range(8):
            f, g, h = (rng.choice(fs) for _ in range(3))
            assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def _convolve_data(uni, d1, d2):
    """The grouped convolution _convolve_nums on Fraction values."""
    (den1, nums1), (den2, nums2) = _numerators(d1), _numerators(d2)
    out = _convolve_nums(uni, nums1, nums2, {})
    return {k: Fraction(v, den1 * den2) for k, v in out.items()}


def _pairwise_convolve(uni, d1, d2):
    """Reference convolution: one group product and one key per pair of
    support cosets, summed as Fractions; zero sums are kept."""
    out = {}
    for i, qf in d1.items():
        for j, qg in d2.items():
            g = uni.reps[i] * uni.reps[j]
            k = uni.key_id(g.y, g.x)
            out[k] = out.get(k, 0) + Fraction(qf) * Fraction(qg)
    return out


def _rand_coset_data(rng, ctx, uni, ndc):
    """Random values (mixed denominators, not constant on double cosets)
    on the right cosets of ndc random double cosets, in shuffled order so
    that cosets of different scaling parts interleave."""
    items = []
    for _ in range(ndc):
        num = ctx.elem(rng.randint(1, 3),
                       0 if ctx.is_rational else rng.randint(0, 1))
        x = num / rng.choice([1, 2, 3])
        gamma = GroupElem(_rand_elem(rng, ctx, 3), x)
        for rep in right_cosets_in_double_coset(gamma):
            v = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]),
                         rng.choice([1, 2, 3, 4, 6]))
            items.append((uni.elem_id(rep), v))
    rng.shuffle(items)
    return dict(items)


def test_grouped_convolution_matches_pairwise_reference():
    rng = random.Random(41)
    for d in (0, 1, 3):
        ctx = make_ctx(d)
        for trial in range(12):
            # two fresh universes fed the same operands: the grouped
            # product must intern new cosets in the pairwise order
            unis = (_Universe(ctx), _Universe(ctx))
            seed = rng.randrange(1 << 30)
            ops = [(_rand_coset_data(random.Random(seed), ctx, u, 3),
                    _rand_coset_data(random.Random(seed + 1), ctx, u, 2))
                   for u in unis]
            (f1, g1), (f2, g2) = ops
            assert f1 == f2 and g1 == g2
            got = _convolve_data(unis[0], f1, g1)
            want = _pairwise_convolve(unis[1], f2, g2)
            assert got == {k: v for k, v in want.items() if v}, (d, trial)
            assert unis[0].reps == unis[1].reps

        # terms that cancel: with stored representatives A, B over one
        # scaling part 1/k (k integral) and C, the coset c' of
        # (y_C + (y_A - y_B) x_C, x_C) has A C and B c' on one coset
        uni, ref = _Universe(ctx), _Universe(ctx)
        cancelled = 0
        for _ in range(8):
            x = 1 / ctx.elem(rng.randint(1, 4),
                             0 if ctx.is_rational else rng.randint(0, 2))
            a = GroupElem(_rand_elem(rng, ctx), x)
            b = GroupElem(_rand_elem(rng, ctx), x)
            c = _rand_group(rng, ctx)
            for u in (uni, ref):
                ia, ib, ic = (u.elem_id(g) for g in (a, b, c))
                A, B, C = u.reps[ia], u.reps[ib], u.reps[ic]
                ic2 = u.elem_id(GroupElem(C.y + (A.y - B.y) * C.x, C.x))
            if ia == ib:
                continue
            f = {ia: Fraction(1, 3), ib: Fraction(1, 3)}
            g = {ic: Fraction(3, 2), ic2: Fraction(-3, 2)}
            got = _convolve_data(uni, f, g)
            want = _pairwise_convolve(ref, f, g)
            cancelled += list(want.values()).count(0)
            assert got == {k: v for k, v in want.items() if v}
            assert uni.reps == ref.reps
        assert cancelled > 0


def test_adjoint():
    q = make_ctx(0)
    two = q.elem(2)
    assert adjoint_fun(nu_fun(two)) == nu_adj_fun(two)
    assert adjoint_fun(adjoint_fun(nu_fun(two))) == nu_fun(two)
    f, g = nu_fun(two), theta_fun(q.one / 2)
    assert adjoint_fun(convolve(f, g)) == convolve(adjoint_fun(g),
                                                   adjoint_fun(f))
    assert adjoint_fun(theta_fun(q.one / 3)) == theta_fun(q.one / 3)


def test_bi_invariance_of_images():
    # functions in the image of the symbolic algebra are constant on
    # double cosets: translate support reps on both sides and compare
    rng = random.Random(3)
    ctx = make_ctx(1)
    x = mu(ctx.elem(1, 1)) * theta(ctx.one / 2) * mu(ctx.elem(2)).adjoint()
    f = symbolic_to_oracle(x)
    uni = _universe(ctx)
    for rep in f.support():
        v = value_at(f, rep)
        for _ in range(5):
            p = GroupElem(ctx.elem(rng.randint(-2, 2), rng.randint(-2, 2)),
                          rng.choice(ctx.units))
            q = GroupElem(ctx.elem(rng.randint(-2, 2), rng.randint(-2, 2)),
                          rng.choice(ctx.units))
            assert value_at(f, p * rep * q) == v


def test_e_sum_identity():
    # theta_r = (1/[O*:S]) sum of single-coset indicators over the orbit
    for d, coords in [(0, Fraction(1, 3)), (1, Fraction(1, 2))]:
        ctx = make_ctx(d)
        r = ctx.elem(coords)
        orbit = {torsion_class(r * u) for u in ctx.units}
        total = CosetFunction(ctx, 1, {})
        for t in orbit:
            total = total + e_fun(t.rep)
        assert total * Fraction(1, len(orbit)) == theta_fun(r)


def test_f_e_convolution_pointwise_closed_form():
    # f_r * e_s is the indicator of the union over units u of the sets
    # (ru + s + O, u); f_r is the left-coset indicator of (r, 1)
    ctx = make_ctx(1)
    rng = random.Random(41)
    r = ctx.one / 2
    s = ctx.omega / 2

    def f_left(g: GroupElem) -> int:
        # membership in (r,1)P_O = {(a + r u, u)}
        return 1 if (g.x.is_unit and (g.y - r * g.x).is_integral) else 0

    def conv_at(g: GroupElem) -> int:
        # only the coset P_O(s, 1) contributes
        return f_left(g * GroupElem(s, ctx.one).inverse())

    def closed_form_rhs(g: GroupElem) -> int:
        if not g.x.is_unit:
            return 0
        return 1 if (g.y - (r * g.x + s)).is_integral else 0

    for _ in range(60):
        g = _rand_group(rng, ctx)
        assert conv_at(g) == closed_form_rhs(g)
    for u in ctx.units:
        probe = GroupElem(r * u + s, u)
        assert conv_at(probe) == 1 == closed_form_rhs(probe)


def test_symbolic_to_oracle_basics():
    q = make_ctx(0)
    assert symbolic_to_oracle(identity(q)) == identity_fun(q)
    f = symbolic_to_oracle(theta(q.one / 3))
    assert f == theta_fun(q.one / 3)
    assert f.den == 2 and set(f.nums.values()) == {1}
    assert symbolic_to_oracle(mu(q.elem(5))) == nu_fun(q.elem(5))
    assert symbolic_to_oracle(mu(q.elem(5)).adjoint()) == nu_adj_fun(
        q.elem(5))


def test_monomial_closed_form_matches_convolution():
    # the support/value description of a monomial versus the threefold
    # convolution that defines its image
    for d in (0, 1):
        ctx = make_ctx(d)
        for m in enumerate_monomials(ctx, 4):
            assert expected_monomial_function(m) == symbolic_to_oracle(
                HeckeElementFromMonomial(m))


def HeckeElementFromMonomial(m):
    from hecke.hecke_algebra import HeckeElement
    return HeckeElement.from_monomial(m)


def test_monomial_images_have_disjoint_supports():
    ctx = make_ctx(0)
    mons = enumerate_monomials(ctx, 3)
    seen = {}
    for m in mons:
        support = frozenset(symbolic_to_oracle(
            HeckeElementFromMonomial(m)).nums)
        for other, sup in seen.items():
            assert not (sup & support), (m, other)
        seen[m] = support


def test_phi_data_against_convolve_route(monkeypatch):
    # a monomial image is held as integer numerators over one denominator,
    # built from the cached generator functions; it must equal
    # nu_a^* * theta_r * nu_b built by convolve on fresh functions, and
    # both routes must intern cosets in one order; taken largest first,
    # the monomials meet both slots new
    for d, bound in ((0, 4), (1, 3)):
        ctx = make_ctx(d)
        mons = enumerate_monomials(ctx, bound)[::-1]
        monkeypatch.setattr(oracle, "_universes", {})
        got = {m: _phi_data(m) for m in mons}
        reps = _universe(ctx).reps
        monkeypatch.setattr(oracle, "_universes", {})
        uni = _universe(ctx)
        for m in mons:
            want = convolve(convolve(nu_adj_fun(m.a), theta_fun(m.r)),
                            nu_fun(m.b))
            assert CosetFunction(ctx, *got[m]) == want, m
        assert uni.reps == reps


def test_verify_equivalence_smoke():
    for d in (0, 1):
        report = verify_equivalence(make_ctx(d), 3)
        assert report["failed"] == 0 and not report["failures"]
        assert report["checked"] == report["monomials"] ** 2
        assert report["monomials"] > 3


def test_oracle_exact_past_old_level_bound():
    # the product's cosets have level above 10**6, where the denominators
    # of r and s multiply; they are keyed and convolved like any other
    q, g = make_ctx(0), make_ctx(1)
    for r, s in ((q.one / 1000003, q.elem(2) / 1000033),
                 (g.one / 1009, g.omega / 1013)):
        want = symbolic_to_oracle(theta_product(r, s))
        assert not want.is_zero
        assert convolve(theta_fun(r), theta_fun(s)) == want
