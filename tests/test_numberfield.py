"""Checks for exact arithmetic in the supported fields.

Expected values here are frozen from independent brute-force searches
(unit enumeration in a coordinate box, pairwise congruence tests for
residue systems, exhaustive divisor checks for gcds).
"""
from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd as int_gcd, isqrt, sqrt

import pytest
from hypothesis import given, settings, strategies as st

import hecke.numberfield as nf
from hecke.errors import UnsupportedFieldError
from hecke.numberfield import (
    FieldElem, SUPPORTED_D, _assoc_key, _conj_numerators, _ideal_key,
    _lift_norms, _mul_numerators, _norm_numerators, canonical_generator,
    ctx_from_tag, divide_exact,
    factor, factor_int, format_element, frac_ideal_parts, gcd_gen,
    ideals_up_to, is_coprime, kronecker_symbol, make_ctx, parse_element,
    prime_elements_above, reduce_mod, residues, splitting_type)
from hecke.torsion import reduce01


def lattice_index(gens):
    """Oracle: the index [O : L] of the lattice L spanned over Z by
    integral gens, as the gcd of the 2x2 minors of their coordinates in
    the basis (1, omega)."""
    cols = [(g.e0, g.e1) for g in gens]
    return int_gcd(*(x1 * y2 - x2 * y1 for i, (x1, y1) in enumerate(cols)
                     for x2, y2 in cols[i + 1:]))


def elements_of_norm(ctx, m):
    """Oracle: all integral elements x + y*omega of absolute norm m > 0,
    by increasing y, the larger x first: x^2 + t*x*y + n*y^2 = m solved
    row by row through its discriminant 4m - |D|*y^2."""
    if ctx.is_rational:
        return [ctx.elem(m), ctx.elem(-m)]
    t, disc = ctx.t, -ctx.discriminant
    out = []
    ymax = isqrt(4 * m // disc)
    for y in range(-ymax, ymax + 1):
        dd = 4 * m - disc * y * y
        r = isqrt(dd)
        if r * r != dd:
            continue
        for s in ((r, -r) if r else (0,)):
            x, odd = divmod(s - t * y, 2)
            if not odd:
                out.append(ctx.elem(x, y))
    return out


def brute_units(ctx):
    """Oracle: exhaustive search for norm-1 integral points in a box."""
    if ctx.is_rational:
        return {ctx.elem(1), ctx.elem(-1)}
    out = set()
    for x in range(-2, 3):
        for y in range(-2, 3):
            e = ctx.elem(x, y)
            if e.norm() == 1:
                out.add(e)
    return out


def test_unit_groups_match_exhaustive_search():
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        assert set(ctx.units) == brute_units(ctx)
    assert len(make_ctx(1).units) == 4
    assert len(make_ctx(3).units) == 6
    assert len(make_ctx(7).units) == 2


def test_unit_group_closure():
    for d in (0, 1, 2, 3, 19):
        ctx = make_ctx(d)
        units = set(ctx.units)
        for u in units:
            for v in units:
                assert u * v in units
            assert 1 / u in units


def test_discriminant_and_different():
    # delta^2 = discriminant, and Tr(x/delta) is integral on O
    for d in SUPPORTED_D[1:]:
        ctx = make_ctx(d)
        assert ctx.delta * ctx.delta == ctx.discriminant
        for e in (ctx.one, ctx.omega, ctx.elem(3, 2)):
            tr = (e / ctx.delta).trace()
            assert tr.denominator == 1
    assert make_ctx(1).discriminant == -4
    assert make_ctx(2).discriminant == -8
    assert make_ctx(3).discriminant == -3
    assert make_ctx(163).discriminant == -163


def test_unsupported_field_rejected():
    with pytest.raises(UnsupportedFieldError):
        make_ctx(5)
    with pytest.raises(UnsupportedFieldError):
        ctx_from_tag("d6")


def test_norm_examples():
    ctx = make_ctx(1)
    assert ctx.elem(2).norm() == 4
    assert ctx.elem(1, 1).norm() == 2
    assert ctx.one.norm() == 1
    assert make_ctx(0).elem(-7).norm() == 7


def test_norm_multiplicative_random():
    rng = random.Random(20240817)
    for d in (0, 1, 2, 3, 7, 11, 19, 43, 67, 163):
        ctx = make_ctx(d)
        for _ in range(20):
            x = ctx.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                         0 if ctx.is_rational
                         else Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            y = ctx.elem(rng.randint(-9, 9),
                         0 if ctx.is_rational else rng.randint(-9, 9))
            assert (x * y).norm() == x.norm() * y.norm()
            if not y.is_zero:
                assert ((x / y) * y) == x


def test_conj_and_trace():
    ctx = make_ctx(7)
    x = ctx.elem(3, -2)
    assert x * x.conj() == x.field_norm()
    assert x + x.conj() == x.trace()
    assert x.conj().conj() == x


def _embed(ctx, e0, e1, q):
    """(e0 + e1*omega)/q in C, with omega = i*sqrt(d) or (1 + i*sqrt(d))/2."""
    if ctx.is_rational:
        omega = 0
    elif ctx.t == 0:
        omega = 1j * sqrt(ctx.d)
    else:
        omega = (1 + 1j * sqrt(ctx.d)) / 2
    return (e0 + e1 * omega) / q


def _close(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


_triple = st.tuples(st.integers(-60, 60), st.integers(-60, 60),
                    st.integers(-36, 36).filter(bool))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.sampled_from(SUPPORTED_D), _triple, _triple, _triple)
def test_core_against_complex_embedding(d, tx, ty, ta):
    # the integer-triple core against plain int/complex arithmetic, on
    # random triples that the constructor has to bring to lowest terms
    ctx = make_ctx(d)

    def build(t):
        e0, e1, q = t
        if ctx.is_rational:
            e1 = 0
        x = FieldElem(ctx, e0, e1, q)
        assert _close(_embed(ctx, x.e0, x.e1, x.q), _embed(ctx, e0, e1, q))
        return x

    def canonical(x):
        assert x.q >= 1 and int_gcd(x.e0, x.e1, x.q) == 1
        assert not (ctx.is_rational and x.e1)
        if not x.e1:
            assert x == x.c0 and hash(x) == hash(x.c0)
        return x

    def value(x):
        return _embed(ctx, x.e0, x.e1, x.q)

    x, y = canonical(build(tx)), canonical(build(ty))
    a = canonical(ctx.elem(ta[0], 0 if ctx.is_rational else ta[1]))
    assert _close(value(canonical(x + y)), value(x) + value(y))
    assert _close(value(canonical(x - y)), value(x) - value(y))
    assert _close(value(canonical(x * y)), value(x) * value(y))
    assert _close(value(canonical(-x)), -value(x))
    if not ctx.is_rational:
        assert _close(float(x.field_norm()), abs(value(x)) ** 2)
        assert _close(float(x.trace()), 2 * value(x).real)
    # exact identities
    assert (x * y).field_norm() == x.field_norm() * y.field_norm()
    assert canonical(x.conj()).conj() == x
    if not ctx.is_rational:
        assert canonical(x * x.conj()) == x.field_norm()
        assert canonical(x + x.conj()) == x.trace()
    if not y.is_zero:
        q = canonical(x / y)
        assert _close(value(q), value(x) / value(y))
        assert canonical(q * y) == x
    # K/O representatives and reduction modulo aO
    r = canonical(reduce01(x))
    assert 0 <= r.c0 < 1 and 0 <= r.c1 < 1
    assert (x - r).is_integral
    if not a.is_zero:
        m = canonical(reduce_mod(x, a))
        assert divide_exact(x - m, a) is not None
        f = m / a
        assert 0 <= f.c0 < 1 and 0 <= f.c1 < 1
        assert reduce_mod(m, a) == m
    # integral elements have int norms, others Fraction norms
    z, w = FieldElem(ctx, x.e0, x.e1, 1), FieldElem(ctx, y.e0, y.e1, 1)
    for v in (z, w, a):
        assert type(v.norm()) is int and v.norm() == abs(v.field_norm())
    if x.q != 1:
        assert type(x.norm()) is Fraction and x.norm() == abs(x.field_norm())
    # a memo hit returns the generator computed fresh, of the right norm
    if not (z.is_zero or w.is_zero):
        g = gcd_gen(z, w)
        assert gcd_gen(z, w) is g
        assert g == gcd_gen.__wrapped__(z, w) == canonical_generator(g)
        if not ctx.is_rational:
            omega = ctx.omega
            assert g.norm() == lattice_index([z, z * omega, w, w * omega])


def congruent(x, y, a):
    return divide_exact(x - y, a) is not None


def test_residues_are_a_transversal():
    # size, pairwise incongruence, and reduction membership, several fields
    cases = [(0, (1, 2, 7)), (1, (2, 5)), (3, (2, 3)), (19, (3,)),
             (2, (2, 3)), (7, (2, 4)), (11, (3, 4)), (43, (4, 11)),
             (67, (4, 17)), (163, (4, 41))]
    for d, norms_src in cases:
        ctx = make_ctx(d)
        elems = [ctx.elem(2), ctx.elem(3)] if ctx.is_rational else \
            [e for n in norms_src for e in elements_of_norm(ctx, n)[:4]]
        for a in elems:
            reps = residues(a)
            assert len(reps) == a.norm()
            for i, r in enumerate(reps):
                assert r.is_integral
                for s in reps[i + 1:]:
                    assert not congruent(r, s, a)
            # a few arbitrary elements land on exactly one representative
            for probe in (ctx.zero, ctx.one, ctx.elem(5, 0 if ctx.is_rational else 3)):
                hits = [r for r in reps if congruent(probe, r, a)]
                assert len(hits) == 1


def test_residues_special_cases():
    ctx = make_ctx(1)
    assert len(residues(ctx.elem(1, 1))) == 2
    assert len(residues(ctx.elem(2))) == 4
    assert len(residues(ctx.one)) == 1
    with pytest.raises(ValueError):
        residues(ctx.elem(Fraction(1, 2)))


def test_reduce_mod_is_canonical():
    ctx = make_ctx(3)
    a = ctx.elem(2, 1)
    x = ctx.elem(11, -7)
    r = reduce_mod(x, a)
    assert congruent(x, r, a)
    assert reduce_mod(r, a) == r
    assert reduce_mod(x + a * ctx.elem(4, 9), a) == r


def test_reduce_mod_against_division_form():
    # reduce_mod takes the numerators of x/a over an unreduced
    # denominator; the division form below reduces x/a first, and both
    # must give one canonical triple, for integral and non-integral a
    rng = random.Random(24)

    def rand_elem(ctx):
        c1 = Fraction(rng.randint(-40, 40), rng.randint(1, 9)) if ctx.d else 0
        return ctx.elem(Fraction(rng.randint(-40, 40), rng.randint(1, 9)), c1)

    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        for _ in range(400):
            x, a = rand_elem(ctx), rand_elem(ctx)
            if a.is_zero:
                continue
            y = x / a
            want = a * FieldElem(ctx, y.e0 % y.q, y.e1 % y.q, y.q)
            got = reduce_mod(x, a)
            assert (got.e0, got.e1, got.q) == (want.e0, want.e1, want.q), \
                (d, x, a)


def _by_discriminant(ctx, a0, a1, b0, b1):
    """(a0 + a1*omega)*(b0 + b1*omega) and N(a0 + a1*omega) by way of
    2*omega = t + sqrt(D), D the discriminant and t = D mod 2, with no
    use of omega^2 = t*omega - n: x = (u + v*sqrt(D))/2 has u = 2*x0 +
    t*x1, v = x1 and 4N(x) = u^2 - D*v^2."""
    disc = ctx.discriminant
    t = disc % 2
    u1, v1, u2, v2 = 2 * a0 + t * a1, a1, 2 * b0 + t * b1, b1
    # the product is (P + R*sqrt(D))/4
    p, r = u1 * u2 + disc * v1 * v2, u1 * v2 + u2 * v1
    c1 = r // 2
    return ((p // 2 - t * c1) // 2, c1), (u1 * u1 - disc * v1 * v1) // 4


def test_numerator_helpers_against_field_arithmetic():
    # _mul_numerators, _conj_numerators and _norm_numerators carry the
    # omega^2 rule, the conjugation and the norm form, for FieldElem and
    # for loops that build no FieldElem, and _lift_norms reads norms from
    # them: all must agree with FieldElem products, trace(), norm() and
    # field_norm(), and in the imaginary fields with the discriminant
    # form, which does not use the omega^2 rule
    rng = random.Random(25)
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        for _ in range(200):
            a0, b0 = rng.randint(-50, 50), rng.randint(-50, 50)
            a1, b1 = (rng.randint(-50, 50), rng.randint(-50, 50)) if d \
                else (0, 0)
            x = ctx.elem(a0, a1)
            want = x * ctx.elem(b0, b1)
            got = _mul_numerators(ctx, a0, a1, b0, b1)
            assert got == (want.e0, want.e1)
            norm = _norm_numerators(ctx, a0, a1)
            assert norm == (x * x.conj()).e0
            c0, c1 = _conj_numerators(ctx, a0, a1)
            assert (x.conj().e0, x.conj().e1) == (c0, c1)
            if d:
                assert x + ctx.elem(c0, c1) == x.trace()
                assert norm == x.norm() == x.field_norm()
                assert (got, norm) == _by_discriminant(ctx, a0, a1, b0, b1)
                # (u + v*sqrt(D))/2 has the conjugate (u - v*sqrt(D))/2
                t = ctx.discriminant % 2
                assert (2 * c0 + t * c1, c1) == (2 * a0 + t * a1, -a1)
            else:
                assert norm == x.norm() ** 2 == x.field_norm() ** 2
                assert got == (a0 * b0, 0)
        if not d:
            continue
        for _ in range(40):
            j = ctx.elem(rng.randint(-30, 30), rng.randint(-30, 30))
            c = ctx.elem(rng.randint(-30, 30), rng.randint(-30, 30))
            points = [(rng.randint(-9, 9), rng.randint(-9, 9))
                      for _ in range(10)]
            want = [(j + c * ctx.elem(x, y)).norm() for x, y in points]
            assert list(_lift_norms(j, c, points)) == want, (d, j, c)


def test_gcd_examples():
    ctx = make_ctx(1)
    g = gcd_gen(ctx.elem(1, 1), ctx.elem(2))
    assert g.norm() == 2
    assert canonical_generator(g) == canonical_generator(ctx.elem(1, 1))
    q = make_ctx(0)
    assert gcd_gen(q.elem(2), q.elem(3)) == 1
    assert gcd_gen(q.elem(12), q.elem(18)) == 6
    assert gcd_gen(ctx.elem(3), ctx.zero) == canonical_generator(ctx.elem(3))


def test_gcd_divisibility_properties():
    # g | a, g | b, and every common divisor divides g (via the index)
    for d in (1, 2, 3, 7, 19, 43):
        ctx = make_ctx(d)
        pts = [ctx.elem(x, y) for x in range(-3, 4) for y in range(-2, 3)
               if not (x == 0 and y == 0)]
        rng = random.Random(d)
        for _ in range(25):
            a, b = rng.choice(pts), rng.choice(pts)
            g = gcd_gen(a, b)
            assert divide_exact(a, g) is not None
            assert divide_exact(b, g) is not None
            # the index of the lattice aO + bO equals norm(g)
            gens = [a, a * ctx.omega, b, b * ctx.omega]
            assert lattice_index(gens) == g.norm()


def test_gcd_against_norm_reference():
    # reference: the index I of aO + bO is the norm of its generator, and
    # the elements of norm I dividing a and b are exactly its generators
    rng = random.Random(14)
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        gbox = isqrt(10 ** 4 // max(ctx.n, 1))

        def rand(box):
            return ctx.elem(rng.randint(-box, box),
                            0 if ctx.is_rational else rng.randint(-box, box))

        for _ in range(60):
            g = x = y = ctx.zero
            while g.is_zero or x.is_zero or y.is_zero:
                g, x, y = rand(gbox), rand(30), rand(30)
            a, b = g * x, g * y
            index = (int_gcd(a.e0, b.e0) if ctx.is_rational else
                     lattice_index([a, a * ctx.omega, b, b * ctx.omega]))
            ref = {canonical_generator(h) for h in elements_of_norm(ctx, index)
                   if divide_exact(a, h) is not None
                   and divide_exact(b, h) is not None}
            assert ref == {gcd_gen.__wrapped__(a, b)}, (d, a, b)


def test_gcd_at_a_large_split_prime_is_fast():
    # a shortest-vector search is logarithmic in the norm; a norm-form
    # search over the lattice would take about sqrt(p) steps
    ctx = make_ctx(1)
    p = 10 ** 12 + 61
    z = next(z for z in (pow(c, (p - 1) // 4, p) for c in range(2, 100))
             if z * z % p == p - 1)
    start = time.perf_counter()
    g = gcd_gen.__wrapped__(ctx.elem(p), ctx.elem(z, 1))
    assert time.perf_counter() - start < 0.1
    assert g.norm() == p
    assert divide_exact(ctx.elem(z, 1), g) is not None


def test_gcd_in_non_euclidean_field():
    # d=19 has no Euclidean algorithm; lattice reduction must still work
    ctx = make_ctx(19)
    w = ctx.omega
    a = w * ctx.elem(2) + 3          # some composite element
    b = w * w - 1
    g = gcd_gen(a, b)
    assert divide_exact(a, g) is not None
    assert divide_exact(b, g) is not None
    assert gcd_gen(ctx.elem(10), ctx.elem(4)) == 2


def test_canonical_generator_rules():
    q = make_ctx(0)
    assert canonical_generator(q.elem(-3)) == 3
    ctx = make_ctx(1)
    i = ctx.omega
    z = ctx.elem(1, 1)
    assert canonical_generator(i * z) == canonical_generator(z)
    for d in (0, 1, 3):
        c = make_ctx(d)
        for u in c.units:
            assert canonical_generator(u) == 1
    # multiplicative up to canonicalization
    x, y = ctx.elem(2, 1), ctx.elem(1, -3)
    cx, cy = canonical_generator(x), canonical_generator(y)
    assert canonical_generator(x * y) == canonical_generator(cx * cy)


def test_factor_examples():
    ctx = make_ctx(1)
    f2 = factor(ctx.elem(2))
    assert len(f2) == 1 and f2[0][1] == 2 and f2[0][0].norm() == 2
    f5 = factor(ctx.elem(5))
    assert sorted(p.norm() for p, _ in f5) == [5, 5]
    assert all(e == 1 for _, e in f5)
    assert factor(ctx.omega) == []


def test_factor_reconstruction_random():
    rng = random.Random(7)
    for d in (0, 1, 2, 3, 7, 11, 19, 163):
        ctx = make_ctx(d)
        for _ in range(12):
            x = ctx.elem(rng.randint(-20, 20),
                         0 if ctx.is_rational else rng.randint(-20, 20))
            if x.is_zero:
                continue
            prod = ctx.one
            for p, e in factor(x):
                for _ in range(e):
                    prod = prod * p
            u = divide_exact(x, prod)
            assert u is not None and u.is_unit


def test_splitting_matches_kronecker_and_legendre():
    for d in (1, 2, 3, 7, 11, 19, 163):
        ctx = make_ctx(d)
        disc = ctx.discriminant
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 163):
            chi = kronecker_symbol(disc, p)
            if p != 2:
                legendre = pow(disc % p, (p - 1) // 2, p)
                expected = 0 if legendre == 0 else (1 if legendre == 1 else -1)
                assert chi == expected
            kind = splitting_type(ctx, p)
            prs = prime_elements_above(ctx, p)
            if kind == "split":
                assert len(prs) == 2 and all(q.norm() == p for q in prs)
            elif kind == "ramified":
                assert len(prs) == 1 and prs[0].norm() == p
            else:
                assert prs == (ctx.elem(p),)


def primes_above_by_search(ctx, p):
    """Oracle: the canonical generators of the elements of norm p (one
    class above a ramified p, two above a split one), or p itself when
    it is inert or the field is Q."""
    kind = splitting_type(ctx, p)
    if kind in ("rational", "inert"):
        return (ctx.elem(p),)
    reps = sorted({canonical_generator(x) for x in elements_of_norm(ctx, p)},
                  key=_assoc_key)
    assert len(reps) == (2 if kind == "split" else 1)
    return tuple(reps)


def test_prime_elements_above_against_norm_search():
    primes = [p for p in range(2, 3000) if factor_int(p) == {p: 1}]
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        for p in primes:
            assert prime_elements_above(ctx, p) == \
                primes_above_by_search(ctx, p), (d, p)


def test_primes_above_a_large_split_prime_are_fast():
    # 10^18 + 9 is prime and 1 mod 4, so it splits in Q(i); a search of
    # the elements of that norm would take about 10^9 steps
    ctx = make_ctx(1)
    p = 10 ** 18 + 9
    start = time.perf_counter()
    fac = factor(ctx.elem(p))
    assert time.perf_counter() - start < 0.5
    assert [e for _, e in fac] == [1, 1]
    assert all(g.norm() == p for g, _ in fac)
    assert divide_exact(ctx.elem(p), fac[0][0] * fac[1][0]).is_unit


def test_residues_keep_no_table():
    # each call builds its transversal and keeps none of it: calls over
    # many moduli peak at about the size of the largest transversal
    ctx = make_ctx(163)
    mods = [ctx.elem(x, y) for x in range(-3, 4) for y in range(-3, 4)
            if x or y]
    tracemalloc.start()
    try:
        for a in mods:
            assert len(residues(a)) == a.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8232 residues in all, the largest transversal 387 of them
    assert peak < 256 * 1024, peak


def test_kronecker_basic_identities():
    assert kronecker_symbol(-4, 2) == 0
    assert kronecker_symbol(-4, 5) == 1
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(-3, 2) == -1
    # multiplicativity in the lower argument
    for a in (-19, -8, -3, 5):
        for m in range(1, 40):
            for n in range(1, 40):
                assert (kronecker_symbol(a, m * n)
                        == kronecker_symbol(a, m) * kronecker_symbol(a, n))


def test_factor_int(monkeypatch):
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert factor_int(-17) == {17: 1}
    big = 1000003 * 998117
    assert factor_int(big) == {1000003: 1, 998117: 1}
    # products of primes above the witness primes go to Pollard rho
    rho, rho_calls = nf._pollard_rho, []
    monkeypatch.setattr(nf, "_pollard_rho",
                        lambda n: rho_calls.append(n) or rho(n))
    p, q, s = 10 ** 6 + 3, 10 ** 6 + 33, 10 ** 6 + 37
    assert factor_int(p * q) == {p: 1, q: 1}
    assert factor_int(p * q * s) == {p: 1, q: 1, s: 1}
    assert factor_int(p * p * q) == {p: 2, q: 1}
    assert len(rho_calls) >= 3
    with pytest.raises(ValueError):
        factor_int(0)
    # the norm of an inert prime p is p*p, which rho splits only slowly
    p = 10 ** 14 + 31
    start = time.perf_counter()
    assert factor_int(p * p) == {p: 2}
    assert time.perf_counter() - start < 0.5


def test_factor_int_splits_prime_powers(monkeypatch):
    # an inert prime p of Q(i) at exponent 3 has norm p^6; rho would need
    # about sqrt(p) steps on p^3, p^5 or p^6, the k-th root needs none
    rho, rho_calls = nf._pollard_rho, []
    monkeypatch.setattr(nf, "_pollard_rho",
                        lambda n: rho_calls.append(n) or rho(n))
    p, q = 10 ** 14 + 31, 10 ** 14 + 67
    for n, want in [(p ** 3, {p: 3}), (p ** 5, {p: 5}), (p ** 6, {p: 6}),
                    (q ** 3, {q: 3}), (p ** 12, {p: 12})]:
        start = time.perf_counter()
        assert factor_int(n) == want
        assert time.perf_counter() - start < 1
    assert rho_calls == []
    # rho splits off the small prime, the root finishes the cofactor p^2;
    # p^2 * q^3 for q near p is no perfect power, and rho on it would
    # need about sqrt(p) steps
    for n, want in [(43 ** 7 * p ** 2, {43: 7, p: 2}),
                    (10007 ** 3 * p ** 2, {10007: 3, p: 2})]:
        start = time.perf_counter()
        assert factor_int(n) == want
        assert time.perf_counter() - start < 1


def test_factor_int_against_trial_division():
    def trial(n):
        out, p = {}, 2
        while p * p <= n:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            p += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    for n in range(1, 50000):
        got = factor_int(n)
        assert got == trial(n) and list(got) == sorted(got), n


def test_factor_int_work_is_bounded(monkeypatch):
    # rho needs about 10^7 steps on a product of two primes near 10^14,
    # over the budget of 2^22 for one call: the call fails after 2-3 s on
    # a 2-core VM, whose speed swings too widely for a tight time bound;
    # rho without a budget took 12.5 s to split this product there
    n = (10 ** 14 + 31) * (10 ** 14 + 67)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"could not factor {n} within "
                                         f"{nf._RHO_BUDGET} steps"):
        factor_int(n)
    assert time.perf_counter() - start < 10
    # the budget bounds the whole call: p*s splits in 1790 steps and p*q*s
    # first splits off q in 1022 steps, then p*s overruns 2100 in total,
    # 56 steps into the advance of y by 512 steps
    p, q, s = 10 ** 6 + 3, 10 ** 6 + 33, 10 ** 6 + 37
    monkeypatch.setattr(nf, "_RHO_BUDGET", 2100)
    assert factor_int(p * s) == {p: 1, s: 1}
    # rho reports its work in batches, so the call stops within one batch
    # of the budget
    rho, spent = nf._pollard_rho, []

    def counted(m):
        run = rho(m)
        while True:
            try:
                steps = next(run)
            except StopIteration as stop:
                return stop.value
            spent.append(steps)
            yield steps

    monkeypatch.setattr(nf, "_pollard_rho", counted)
    with pytest.raises(ValueError, match=f"could not factor {p * s} within "
                                         "2100 steps"):
        factor_int(p * q * s)
    assert 2100 < sum(spent) <= 2100 + nf._RHO_BATCH


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13
# prime bases (Sorenson and Webster, Math. Comp. 86 (2017))
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


def test_factor_int_certified_by_witnesses():
    # psi_12 passes Miller-Rabin to the bases 2..37 and fails at 41
    assert PSI12 == 399165290221 * 798330580441
    assert factor_int(PSI12) == {399165290221: 1, 798330580441: 1}
    assert factor_int(PSI12 ** 2) == {399165290221: 2, 798330580441: 2}
    # psi_13 passes all 13 witnesses, so no prime is reported for it
    with pytest.raises(ValueError, match=str(PSI13)):
        factor_int(PSI13)
    with pytest.raises(ValueError, match=str(PSI13)):
        factor_int(2 * 3 * PSI13)


def test_ideals_up_to_counts():
    # frozen from the divisor-sum count sum_{d | n} chi(d) for each norm
    ideals = ideals_up_to(make_ctx(1), 6)
    assert [g.norm() for g in ideals] == [1, 2, 4, 5, 5]
    ideals3 = ideals_up_to(make_ctx(3), 7)
    assert [g.norm() for g in ideals3] == [1, 3, 4, 7, 7]
    q = ideals_up_to(make_ctx(0), 4)
    assert q == [1, 2, 3, 4]
    # canonical generators, pairwise distinct as ideals
    assert all(canonical_generator(g) == g for g in ideals)
    assert len(set(ideals)) == len(ideals)


def test_ideals_up_to_against_norm_equation():
    # the sector walk against the elements of every norm m <= bound, one
    # canonical generator per associate class
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        ref = sorted({canonical_generator(x) for m in range(1, 1001)
                      for x in elements_of_norm(ctx, m)}, key=_ideal_key)
        for bound in (1, 2, 3, 4, 10, 57, 120, 299, 300, 1000):
            want = [g for g in ref if g.norm() <= bound]
            assert ideals_up_to(ctx, bound) == want, (d, bound)
        assert ideals_up_to(ctx, 0) == ideals_up_to(ctx, -1) == []


def test_frac_ideal_parts():
    ctx = make_ctx(1)
    num, den = frac_ideal_parts(ctx.elem(Fraction(1, 2), Fraction(1, 2)))
    assert num.is_unit
    assert den.norm() == 2
    q = make_ctx(0)
    num, den = frac_ideal_parts(q.elem(Fraction(6, 4)))
    assert num == 3 and den == 2


def test_is_coprime():
    ctx = make_ctx(1)
    assert is_coprime(ctx.elem(1, 1), ctx.elem(2, 1))
    assert not is_coprime(ctx.elem(2), ctx.elem(1, 1))


def test_element_text_roundtrip():
    ctx = make_ctx(3)
    for s in ("0", "1", "-2", "3/2", "w", "-w", "2*w", "3/2 + 5*w",
              "1/2 - 7/3*w"):
        e = parse_element(s, ctx)
        assert parse_element(format_element(e), ctx) == e
    q = make_ctx(0)
    assert parse_element("-5/3", q) == Fraction(-5, 3)
    # elements equal to numbers hash like them, so dict lookups agree
    for d in (0, 1):
        c = make_ctx(d)
        table = {c.elem(3): "three", c.elem(Fraction(1, 2)): "half"}
        assert table.get(3) == "three"
        assert table.get(Fraction(1, 2)) == "half"
        assert {3: "three", Fraction(1, 2): "half"}[c.elem(Fraction(1, 2))] \
            == "half"
    with pytest.raises(ValueError):
        parse_element("1 + w", q)
    with pytest.raises(ValueError):
        parse_element("", q)


def test_principal_ideals_by_canonical_generator():
    # an ideal is its canonical generator: associates share it, and
    # divisibility of ideals is exact division of generators
    ctx = make_ctx(1)
    a = canonical_generator(ctx.elem(0, 2))
    assert a == canonical_generator(ctx.elem(2)) and a.norm() == 4
    c = canonical_generator(ctx.elem(1, 1))
    assert divide_exact(a, c) is not None
    assert divide_exact(c, a) is None
    assert canonical_generator(c * c).norm() == 4
