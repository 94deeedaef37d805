"""Equilibrium state values against independent derivations.

Oracles used here, none of which call the closed forms under test:
  * the symmetric state is pinned down by the partition property
    sum over x mod b of phi(theta_(x/b)) = N_b^(1-beta); solving that
    triangular system recursively over divisors gives every value;
  * the Dedekind zeta values are checked against classical constants
    (pi^2/6, pi^2/6 times Catalan) and inline lattice double sums;
  * ideal counts come independently from divisor sums of the Kronecker
    character;
  * the finite-temperature extreme state is re-computed as a raw sum
    over lattice points with explicit trace phases;
  * the ideal arrays of the series are checked against a numpy grid
    masked down to a fundamental sector of the unit rotation.
"""
import cmath
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import hecke.kms as kms
from hecke.cyclotomic import CycloNum
from hecke.hecke_algebra import (HeckeElement, Monomial, adjoint, alpha,
                                 identity, mu, mul_hecke, theta)
from hecke.kms import (KmsParams, eigenvalue_list, ideal_norms_up_to,
                       kms_identity_check, partial_zeta, phi_extreme_beta,
                       phi_extreme_infty, phi_symmetric,
                       phi_symmetric_element, phi_symmetric_monomial, zeta_k)
from hecke.numberfield import (SUPPORTED_D, _hermite,
                               canonical_generator, factor, ideals_up_to,
                               kronecker_symbol, make_ctx)
from hecke.pairing import CharacterPoint, pair_exponent
from hecke.symmetry import level_group
from hecke.torsion import torsion_class, torsion_points, unit_orbit

Q = make_ctx(0)
GAUSS = make_ctx(1)
EISEN = make_ctx(3)

CATALAN = 0.9159655941772190150546035149324


def divisors_of(c):
    out = [c.ctx.one]
    for q, mult in factor(c):
        powers = [c.ctx.one]
        for _ in range(mult):
            powers.append(powers[-1] * q)
        out = [canonical_generator(x * p) for x in out for p in powers]
    return sorted(set(out), key=lambda x: (x.norm(), x.c0, x.c1))


def phi_oracle(b, beta: int) -> Fraction:
    """Independent route to the symmetric value on a class of exact
    denominator b: solve the partition system over divisors of b."""
    memo = {}

    def solve(e):
        key = (e.c0, e.c1)
        if key in memo:
            return memo[key]
        ne = int(e.norm())
        total = Fraction(1, ne ** (beta - 1))
        for f in divisors_of(e):
            if (f.c0, f.c1) == key:
                continue
            total -= len(level_group(f).units) * solve(f)
        memo[key] = total / len(level_group(e).units)
        return memo[key]

    return solve(canonical_generator(b))


def test_symmetric_state_matches_partition_oracle():
    for ctx, dens in [(Q, [1, 2, 3, 4, 5, 6, 8, 12]),
                      (GAUSS, [1, 2, 3, 5]),
                      (EISEN, [2, 3, 4])]:
        for beta in (2, 3):
            for dval in dens:
                b = ctx.elem(dval)
                want = phi_oracle(b, beta)
                # every class of exact denominator b gives the same value
                for y in level_group(b).units[:3]:
                    r = torsion_class(y / b)
                    assert phi_symmetric(r, beta) == want
    # quadratic prime elements too
    onei = GAUSS.elem(1) + GAUSS.omega
    r = torsion_class(1 / onei)
    assert phi_symmetric(r, 2) == phi_oracle(onei, 2)


def test_symmetric_state_frozen_values():
    half_q = torsion_class(Q.elem(Fraction(1, 2)))
    assert phi_symmetric(half_q, 2) == Fraction(-1, 2)
    half_g = torsion_class(GAUSS.elem(Fraction(1, 2)))
    assert phi_symmetric(half_g, 2) == Fraction(-1, 8)
    zero = torsion_class(Q.zero)
    assert phi_symmetric(zero, 2) == 1
    assert phi_symmetric(torsion_class(Q.elem(Fraction(1, 3))), 2) \
        == Fraction(-1, 3)
    # beta = 1 kills every nonintegral class
    assert phi_symmetric(half_q, 1) == 0
    # float branch agrees with the exact one
    assert phi_symmetric(half_q, 2.0) == pytest.approx(-0.5)
    # large beta: 2^(1-beta) - 1 without overflow, and an exact value
    # only while it can be printed
    assert phi_symmetric(half_q, 2000.5) == pytest.approx(-1.0)
    assert phi_symmetric(half_q, 400) == Fraction(1 - 2 ** 399, 2 ** 399)
    with pytest.raises(ValueError, match="digits"):
        phi_symmetric(half_q, 20000)
    for bad in (0, -3, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            phi_symmetric(half_q, bad)


def test_symmetric_state_near_beta_one_against_mpmath():
    # the float closed form against mpmath at 50 digits, at the same float
    # beta; N^(-e beta) - N^((1-e) beta - 1) cancels near beta = 1, which
    # cost 4.6e-5 relative at r = 1/2, beta = 1 + 2^-40
    def want(b, beta):
        with mpmath.workdps(50):
            beta, val = mpmath.mpf(beta), mpmath.mpf(1)
            for p in (2, 3):
                e = 0
                while b % p == 0:
                    b, e = b // p, e + 1
                if e:
                    n = mpmath.mpf(p)
                    val *= ((n ** (-e * beta) - n ** ((1 - e) * beta - 1))
                            / (1 - 1 / n))
            return val

    for b, beta in [(2, 1 + 2.0 ** -40), (2, 1 + 1e-12), (6, 1 + 1e-9),
                    (12, 1.5), (12, 1 + 1e-15), (6, 1 - 1e-10)]:
        got = phi_symmetric(torsion_class(Q.elem(Fraction(1, b))), beta)
        ref = want(b, beta)
        assert abs((got - ref) / ref) <= 1e-12, (b, beta, got)


def test_monomial_state_vanishes_off_diagonal():
    m = next(iter(mul_hecke(mu(Q.elem(2)), adjoint(mu(Q.elem(3)))).terms))
    assert phi_symmetric_monomial(m, 2) == 0
    m2 = next(iter(mul_hecke(mu(GAUSS.elem(2)),
                             adjoint(mu(GAUSS.omega + 1))).terms))
    assert phi_symmetric_monomial(m2, 2) == 0


def test_integral_fraction_beta_is_exact_on_every_route():
    # Fraction(2) is as exact as 2 on theta_r, on a monomial off the
    # diagonal and on an element; a float beta stays float on all three
    x = theta(Q.elem(Fraction(1, 6)))
    off = next(iter(mul_hecke(mu(Q.elem(2)), adjoint(mu(Q.elem(3)))).terms))
    for beta in (2, Fraction(2)):
        assert type(phi_symmetric_element(x, beta)) is Fraction
        assert phi_symmetric_element(x, beta) == Fraction(1, 6)
        assert type(phi_symmetric_monomial(off, beta)) is Fraction
        assert phi_symmetric_monomial(off, beta) == 0
    for beta in (2.0, Fraction(3, 2)):
        assert type(phi_symmetric_element(x, beta)) is float
        assert type(phi_symmetric_monomial(off, beta)) is float
    assert phi_symmetric_element(x, 2.0) == pytest.approx(1 / 6)


def test_monomial_state_rescaling_law():
    # phi(alpha_a(1)) = N_a^(-beta), evaluated through the monomial route
    for ctx, gens in [(Q, [2, 3, 6]), (GAUSS, [2, 5]), (EISEN, [2, 3])]:
        for beta in (2, 3):
            for g in gens:
                a = ctx.elem(g)
                val = phi_symmetric_element(alpha(a, identity(ctx)), beta)
                assert val == Fraction(1, int(a.norm()) ** beta)
    onei = GAUSS.elem(1) + GAUSS.omega
    assert phi_symmetric_element(alpha(onei, identity(GAUSS)), 2) \
        == Fraction(1, 4)


def test_rescaling_on_general_elements():
    # phi(alpha_a(x)) = N_a^(-beta) phi(x) for theta-type x
    for ctx, aval, rden in [(Q, 2, 3), (Q, 3, 4), (GAUSS, 2, 5)]:
        a = ctx.elem(aval)
        x = theta(ctx.one / ctx.elem(rden)) + 2 * identity(ctx)
        for beta in (2, 3):
            lhs = phi_symmetric_element(alpha(a, x), beta)
            rhs = Fraction(1, int(a.norm()) ** beta) \
                * phi_symmetric_element(x, beta)
            assert lhs == rhs


def test_mu_star_mu_normalization():
    for ctx in (Q, GAUSS):
        a = ctx.elem(2)
        val = phi_symmetric_element(
            mul_hecke(adjoint(mu(a)), mu(a)), 2)
        assert val == 1


def test_kms_identity_frozen_example():
    x, y = mu(Q.elem(2)), adjoint(mu(Q.elem(2)))
    assert kms_identity_check(x, y, 2)
    lhs = phi_symmetric_element(mul_hecke(x, y), 2)
    assert lhs == Fraction(1, 4)


def test_kms_identity_random_monomials():
    import random

    rng = random.Random(20260825)
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
            for _ in range(25):
                x = rng.choice(pool)
                y = rng.choice(pool)
                assert kms_identity_check(x, y, beta)


def test_kms_identity_rejects_bad_beta():
    with pytest.raises(ValueError):
        kms_identity_check(identity(Q), identity(Q), 1.5)


def test_ideal_counts_against_divisor_sums():
    # a_K(n) = sum of the Kronecker character over divisors of n, for the
    # norm arrays and for the exact ideal list
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        bound = 120
        counts = np.bincount(ideal_norms_up_to(ctx, bound),
                             minlength=bound + 1)
        ideals = ideals_up_to(ctx, bound)
        assert len(set(ideals)) == len(ideals)
        exact = np.bincount([g.norm() for g in ideals], minlength=bound + 1)
        for n in range(1, bound + 1):
            if ctx.is_rational:
                want = 1
            else:
                want = sum(kronecker_symbol(ctx.discriminant, m)
                           for m in range(1, n + 1) if n % m == 0)
            assert counts[n] == exact[n] == want, (d, n)


def grid_ideal_arrays(d, bound):
    """Reference: the arrays (norms, x, y) masked out of a numpy grid
    over a box around the fundamental sector of the unit rotation (x >= 1,
    y >= 0 for d in {1, 3}; otherwise y >= 1, or y = 0 and x >= 1),
    stably sorted by norm from the x-major order of the grid."""
    if d == 0:
        n = np.arange(1, bound + 1, dtype=np.int64)
        return n, n.copy(), np.zeros_like(n)
    ctx = make_ctx(d)
    t, nn = ctx.t, ctx.n
    ymax = int((bound / (nn - 0.25 * t)) ** 0.5) + 2
    xmax = int(bound ** 0.5) + 2
    xmin = -(xmax + (ymax if t else 0)) - 2
    xs = np.arange(xmin, xmax + 1, dtype=np.int64)
    ys = np.arange(0, ymax + 1, dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    norm = gx * gx + t * gx * gy + nn * gy * gy
    if len(ctx.units) > 2:
        sector = (gx >= 1) & (gy >= 0)
    else:
        sector = (gy >= 1) | ((gy == 0) & (gx >= 1))
    keep = sector & (norm >= 1) & (norm <= bound)
    norms = norm[keep]
    order = np.argsort(norms, kind="stable")
    return norms[order], gx[keep][order], gy[keep][order]


def test_ideal_arrays_match_grid_reference():
    # values, dtype and order: the order fixes how _residue_sums adds up
    # its floats, so the series values stay bit for bit; 100000 is the
    # bound of the README and the thermal benchmark
    cases = [(d, bound) for d in SUPPORTED_D
             for bound in (0, 1, 2, 3, 4, 10, 57, 120, 299, 300, 1000)]
    cases += [(d, 100_000) for d in (0, 1, 3)]
    for d, bound in cases:
        got = kms._ideal_arrays.__wrapped__(d, bound)
        for g, w in zip(got, grid_ideal_arrays(d, bound)):
            assert g.dtype == w.dtype and np.array_equal(g, w), (d, bound)


def test_ideal_arrays_memory_peak():
    # three arrays of the ideals, not a grid over a box around the sector
    tracemalloc.start()
    try:
        kms._ideal_arrays.__wrapped__(3, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak


def test_eigenvalue_list_frozen():
    want = [0.0, math.log(2), math.log(4), math.log(5), math.log(5)]
    assert eigenvalue_list(GAUSS, 6) == pytest.approx(want)
    assert eigenvalue_list(Q, 4) == pytest.approx(
        [0.0, math.log(2), math.log(3), math.log(4)])


def test_zeta_q_against_basel():
    val, err = zeta_k(Q, 2, tol=1e-8)
    assert err < 1e-6
    assert abs(val - math.pi ** 2 / 6) < max(err, 1e-7)


def test_zeta_gauss_against_catalan_and_lattice():
    val, err = zeta_k(GAUSS, 2, tol=1e-7)
    want = (math.pi ** 2 / 6) * CATALAN
    assert abs(val - want) < 1e-6
    assert abs(val - 1.5067030) < 1e-6
    # independent lattice double sum over the quarter plane m>=1, n>=0
    L = 2000
    m = np.arange(1, L + 1, dtype=np.float64)
    n = np.arange(0, L + 1, dtype=np.float64)
    norm = np.add.outer(m * m, n * n)
    mask = norm <= L * L
    partial = float(np.sum(norm[mask] ** -2.0))
    tail = (math.pi / 2) / (L * L) * 1.5
    assert abs(val - partial) <= tail + err


def test_zeta_monotone_in_beta_and_errors():
    v2, e2 = zeta_k(GAUSS, 2, tol=1e-6)
    v3, e3 = zeta_k(GAUSS, 3, tol=1e-6)
    v5, e5 = zeta_k(GAUSS, 5, tol=1e-6)
    assert v2 > v3 > v5 > 1
    assert e5 < e3 < 1e-6
    with pytest.raises(ValueError):
        zeta_k(Q, 1)
    with pytest.raises(ValueError):
        zeta_k(Q, 1.0000001)  # the prime-bound formula overflows
    # no prime cutoff serves beta = inf, and NaN fails every comparison
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="1 < beta < inf"):
            zeta_k(Q, beta)
        chi = CharacterPoint.make(GAUSS, 5, 1)
        with pytest.raises(ValueError, match="1 < beta < inf"):
            phi_extreme_beta(torsion_class(GAUSS.elem(Fraction(1, 5))), chi,
                             KmsParams(beta=beta, bound=10))
    for tol in (0.0, -1e-7):
        with pytest.raises(ValueError):
            zeta_k(Q, 2, tol=tol)


def _by_trial_division(n):
    return [p for p in range(2, n + 1)
            if all(p % q for q in range(2, math.isqrt(p) + 1))]


def test_sieve_matches_trial_division(monkeypatch):
    want = _by_trial_division(2000)
    # one segment for all of these, then segments of 7 odd numbers, so
    # that most cutoffs cross many segment edges
    for segment in (kms._SEGMENT, 7):
        monkeypatch.setattr(kms, "_SEGMENT", segment)
        for n in range(2001):
            got = kms._sieve(n)
            assert got.dtype == np.int32 and not got.flags.writeable
            assert got.tolist() == [p for p in want if p <= n], (segment, n)


def test_sieve_at_the_cap():
    primes = kms._sieve(3 * 10 ** 7)
    assert primes.dtype == np.int32
    assert len(primes) == 1_857_859  # pi(3e7)
    assert primes[-1] == 29_999_999


def _empty_prime_table(monkeypatch):
    # a fresh table for this test; monkeypatch puts the shared one back
    monkeypatch.setattr(kms, "_prime_table", (1, kms._sieve(1)))


def test_prime_table_slices_match_trial_division(monkeypatch):
    increasing = list(range(201))
    shuffled = increasing[:]
    random.Random(4).shuffle(shuffled)
    for order in (increasing, increasing[::-1], shuffled):
        _empty_prime_table(monkeypatch)
        largest = 0
        for n in order:
            got = kms._primes_up_to(n)
            assert got.dtype == np.int32
            assert got.tolist() == _by_trial_division(n), n
            assert not got.flags.writeable
            largest = max(largest, n)
            assert kms._prime_table[0] == max(largest, 1)  # sieved exactly


def test_prime_table_never_kept_above_cap(monkeypatch):
    _empty_prime_table(monkeypatch)
    monkeypatch.setattr(kms, "_PRIME_BOUND_MAX", 50)
    assert kms._primes_up_to(40).tolist()[-1] == 37
    assert kms._prime_table[0] == 40
    assert kms._primes_up_to(41).tolist()[-1] == 41
    assert kms._prime_table[0] == 41
    # zeta_k asks for far more primes at this tol and gets the cap,
    # which is kept; past the lru_cache, so nothing stale is cached
    zeta_k.__wrapped__(Q, 2.0, tol=1e-7)
    assert kms._prime_table[0] == 50 and kms._prime_table[1][-1] == 47


def test_zeta_identical_cold_and_after_table_grown():
    points = [(0, 3.0), (0, 2.5), (1, 3.0), (7, 2.0)]
    # cold: every point from a table sieved to exactly its own cutoff
    code = (
        "import hecke.kms as kms\n"
        "from hecke.numberfield import make_ctx\n"
        f"for d, beta in {points!r}:\n"
        "    kms._prime_table = (1, kms._sieve(1))\n"
        "    v, e = kms.zeta_k.__wrapped__(make_ctx(d), beta, tol=3e-7)\n"
        "    print(v.hex(), e.hex())\n")
    src = os.path.dirname(os.path.dirname(kms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    # warm: past the lru_cache, from slices of a table grown to the cap
    zeta_k.__wrapped__(GAUSS, 1.5, tol=2e-7)
    assert kms._prime_table[0] == kms._PRIME_BOUND_MAX
    warm = []
    for d, beta in points:
        v, e = zeta_k.__wrapped__(make_ctx(d), beta, tol=3e-7)
        warm.append(f"{v.hex()} {e.hex()}")
    assert res.stdout.splitlines() == warm


def _euler_reference(disc, primes, beta):
    """The Euler product over the given primes, term by term in Python:
    the Kronecker symbol of each prime, and one correctly rounded fsum."""
    terms = []
    for p in primes:
        x = float(p) ** -beta
        terms.append(-math.log1p(-x))
        if disc != 1:
            chi = kronecker_symbol(disc, p)
            if chi:
                terms.append(-math.log1p(-chi * x))
    return math.exp(math.fsum(terms))


def test_zeta_blocks_and_buckets_against_fsum(monkeypatch):
    # tolerances that put the cutoff at a few hundred for each beta
    tols = {1.5: 1.0, 2.0: 0.03, 3.0: 1e-5}
    seen = []
    sliced = kms._primes_up_to
    monkeypatch.setattr(kms, "_primes_up_to",
                        lambda limit: seen.append(sliced(limit)) or seen[-1])
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        for beta, tol in tols.items():
            # several blocks of 7 primes, the last one partial
            monkeypatch.setattr(kms, "_BLOCK", 7)
            v, _ = zeta_k.__wrapped__(ctx, beta, tol=tol)
            primes = seen[-1].tolist()
            assert 200 < primes[-1] < 1000 and len(primes) % 7, (d, beta)
            want = _euler_reference(ctx.discriminant, primes, beta)
            assert abs(v - want) <= 1e-13 * want, (d, beta, v, want)
            # one block holding the whole table
            monkeypatch.setattr(kms, "_BLOCK", len(primes))
            whole, _ = zeta_k.__wrapped__(ctx, beta, tol=tol)
            assert abs(v - whole) <= 1e-14 * whole, (d, beta, v, whole)


def test_zeta_within_err_of_mpmath():
    # zeta(beta) * L(beta, chi_D), L by Hurwitz zeta over the residues
    for d in SUPPORTED_D:
        ctx = make_ctx(d)
        disc = ctx.discriminant
        q = abs(disc)
        for beta in (2, 3):
            v, err = zeta_k(ctx, beta, tol=1e-7)
            with mpmath.workdps(30):
                want = mpmath.zeta(beta)
                if disc != 1:
                    want *= sum(kronecker_symbol(disc, a)
                                * mpmath.zeta(beta, mpmath.mpf(a) / q)
                                for a in range(1, q + 1)) / mpmath.mpf(q) ** beta
                assert abs(v - want) <= err, (d, beta, v, want, err)


def test_zeta_and_sieve_memory_peaks():
    # the table stays warm at the cap, so zeta_k sieves nothing here;
    # its temporaries are a block long, not the table's 1.86e6 primes
    kms._primes_up_to(kms._PRIME_BOUND_MAX)
    tracemalloc.start()
    try:
        zeta_k.__wrapped__(GAUSS, 2.0)
        zeta_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # the int32 table sized by the bound on pi (8.7 MB allocated,
        # 7.4 MB written) and one segment's temporaries, nothing more
        kms._sieve(kms._PRIME_BOUND_MAX)
        sieve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zeta_peak < 4e6, zeta_peak
    assert sieve_peak < 10e6, sieve_peak


def test_warm_prime_table_sliced_without_a_copy():
    # a slice is a view: the search key is int32, so numpy does not widen
    # the whole table to int64 to compare it (15 MB at the cap)
    kms._primes_up_to(kms._PRIME_BOUND_MAX)
    tracemalloc.start()
    try:
        for limit in (kms._PRIME_BOUND_MAX, 10 ** 6):
            tracemalloc.reset_peak()
            kms._primes_up_to(limit)
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < 1e6, (limit, peak)
    finally:
        tracemalloc.stop()


def test_partial_zeta_exact_and_float():
    exact = partial_zeta(Q, 10, 2)
    assert exact == sum(Fraction(1, k * k) for k in range(1, 11))
    approx = partial_zeta(GAUSS, 5000, 2)
    val, err = zeta_k(GAUSS, 2, tol=1e-7)
    assert 0 < val - approx < 2e-3  # tail at 5000 is about 1e-3 * kappa


def test_extreme_infty_frozen_values():
    chi_q = CharacterPoint.make(Q, 2, 1)
    half_q = torsion_class(Q.elem(Fraction(1, 2)))
    assert phi_extreme_infty(half_q, chi_q) == CycloNum(1, [-1])

    chi_g = CharacterPoint.make(GAUSS, 2, 1)
    half_g = torsion_class(GAUSS.elem(Fraction(1, 2)))
    assert phi_extreme_infty(half_g, chi_g).is_zero

    zero = torsion_class(Q.zero)
    assert phi_extreme_infty(zero, CharacterPoint.make(Q, 1, 1)) \
        == CycloNum(1, [1])

    # Q(i), r = 1/5, w = 1: (2 + zeta_5 + zeta_5^4)/4
    chi5 = CharacterPoint.make(GAUSS, 5, 1)
    fifth = torsion_class(GAUSS.elem(Fraction(1, 5)))
    got = phi_extreme_infty(fifth, chi5)
    assert got == CycloNum(5, [2, 1, 0, 0, 1], 4)
    assert abs(got.numeric() - (2 + 2 * math.cos(2 * math.pi / 5)) / 4) < 1e-12


def test_extreme_infty_against_orbit_average():
    # reference: the mean of the roots of unity exp(2*pi*i*Tr(s*w/delta))
    # over the classes s of the unit orbit of r, written as one count
    # vector on the powers of zeta_L for the lcm L of the exponents'
    # denominators, with no use of the pairing module; the mean depends
    # only on the multiset of exponents, so it is built once per multiset
    means = {}
    checked = 0
    for d in (0, 1, 2, 3, 7, 163):
        ctx = make_ctx(d)
        for c in ideals_up_to(ctx, 25):
            pts = torsion_points(c)
            for w in level_group(c).units:
                chi = CharacterPoint.make(ctx, c, w)
                for r in pts:
                    exps = tuple(sorted((s.rep * chi.w / ctx.delta).trace() % 1
                                        for s in unit_orbit(r)))
                    if exps not in means:
                        big = math.lcm(*(e.denominator for e in exps))
                        counts = [0] * big
                        for e in exps:
                            counts[int(e * big)] += 1
                        means[exps] = CycloNum(big, counts, len(exps))
                    assert phi_extreme_infty(r, chi) == means[exps], \
                        (d, c, w, r)
                    checked += 1
    assert checked == 17_354
    assert len(means) > 100


def test_extreme_beta_normalizes_at_zero():
    params = KmsParams(beta=2, bound=50_000, tol=1e-7)
    for ctx in (Q, GAUSS):
        chi = CharacterPoint.make(ctx, 1, 1)
        zero = torsion_class(ctx.zero)
        val, err = phi_extreme_beta(zero, chi, params)
        zval, zerr = zeta_k(ctx, 2, tol=1e-7)
        want = partial_zeta(ctx, 50_000, 2.0) / zval
        assert abs(val - want) < 1e-12 + err
        assert abs(val - 1) < err + 1e-4  # tail-sized gap to 1
        assert abs(val.imag) < 1e-12


def test_extreme_beta_against_raw_lattice_sum():
    # re-derive the Q(i) value at r = 1/5, w = 1 from scratch
    B = 100_000
    params = KmsParams(beta=2, bound=B, tol=1e-8)
    chi = CharacterPoint.make(GAUSS, 5, 1)
    r = torsion_class(GAUSS.elem(Fraction(1, 5)))
    val, err = phi_extreme_beta(r, chi, params)

    L = int(B ** 0.5) + 1
    xs = np.arange(-L, L + 1, dtype=np.float64)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    norm = gx * gx + gy * gy
    mask = (norm >= 1) & (norm <= B)
    # phase of z = x + yi against w = 1: exponent Tr(z/(5 * 2i)), and
    # (x + yi)/(10i) = y/10 - (x/10)i has trace y/5
    phase = np.exp(2j * math.pi * (gy[mask] / 5.0))
    raw = np.sum(phase * norm[mask] ** -2.0)
    zval, _ = zeta_k(GAUSS, 2, tol=1e-8)
    want = raw / (4 * zval)
    assert abs(val - want) < 1e-9 + err
    # more levels, each summed ideal by ideal with the phase of every unit
    # multiple from pair_exponent: Q at 12, Q(i) at 2 + i, whose Hermite
    # basis (5, 2 + omega) has B != 0, and non-rational levels in
    # Q(sqrt(-3)) (basis (6, 2 + 2*omega)) and Q(sqrt(-7)) ((14, 3 + omega))
    bound = 3000
    params = KmsParams(beta=2, bound=bound, tol=1e-8)
    for ctx, level, rnum, w in [(Q, (12,), (5,), (7,)),
                                (GAUSS, (2, 1), (1,), (2,)),
                                (EISEN, (2, 2), (1, 1), (5,)),
                                (make_ctx(7), (3, 1), (2,), (3,))]:
        c = ctx.elem(*level)
        chi = CharacterPoint.make(ctx, c, ctx.elem(*w))
        r = torsion_class(ctx.elem(*rnum) / c)
        val, err = phi_extreme_beta(r, chi, params)
        raw = 0j
        for g in ideals_up_to(ctx, bound):
            phases = sum(cmath.exp(2j * math.pi * float(
                pair_exponent(torsion_class(u * g * r.rep), chi)))
                for u in ctx.units)
            raw += phases / len(ctx.units) * float(g.norm()) ** -2.0
        zval, _ = zeta_k(ctx, 2, tol=1e-8)
        assert abs(val - raw / zval) < 1e-9 + err, (ctx, level)


def test_residue_sums_are_one_vector_over_o_mod_c():
    # one bucket per class of O/cO, and every ideal in exactly one bucket
    for ctx, level in [(Q, (12,)), (GAUSS, (2, 1)), (GAUSS, (3,)),
                       (EISEN, (2, 2)), (make_ctx(7), (3, 1))]:
        c = ctx.elem(*level)
        basis = ((c.norm(), 0, 1) if ctx.is_rational
                 else _hermite((c, c * ctx.omega)))
        sums = kms._residue_sums(ctx.d, 5000, 2.0, basis)
        assert sums.shape == (c.norm(),), (ctx, level)
        assert math.isclose(sums.sum(), partial_zeta(ctx, 5000, 2.0),
                            rel_tol=1e-13)


def test_extreme_average_recovers_symmetric_state():
    # mean over all characters at the level = symmetric state value
    params = KmsParams(beta=2, bound=40_000, tol=1e-7)
    for ctx, cval, rnum in [(Q, 5, 1), (GAUSS, 3, 1)]:
        c = ctx.elem(cval)
        r = torsion_class(ctx.elem(rnum) / c)
        vals = []
        for w in level_group(c).units:
            chi = CharacterPoint.make(ctx, c, w)
            v, err = phi_extreme_beta(r, chi, params)
            vals.append(v)
        mean = sum(vals) / len(vals)
        want = float(phi_symmetric(r, 2))
        assert abs(mean.imag) < 1e-9
        assert abs(mean.real - want) < 1e-5


def test_beta_limit_approaches_ground_state():
    chi = CharacterPoint.make(GAUSS, 5, 1)
    r = torsion_class(GAUSS.elem(Fraction(2, 5)))
    target = phi_extreme_infty(r, chi).numeric()
    gaps = []
    for beta in (5, 10, 20):
        params = KmsParams(beta=beta, bound=2000, tol=1e-10)
        val, err = phi_extreme_beta(r, chi, params)
        gaps.append(abs(val - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_extreme_beta_validates_inputs():
    chi = CharacterPoint.make(Q, 2, 1)
    r = torsion_class(Q.elem(Fraction(1, 2)))
    with pytest.raises(ValueError):
        phi_extreme_beta(r, chi, KmsParams(beta=1))
    with pytest.raises(ValueError):
        KmsParams(beta=2, bound=1)
    bad_r = torsion_class(Q.elem(Fraction(1, 3)))
    with pytest.raises(ValueError):
        phi_extreme_beta(bad_r, chi, KmsParams(beta=2))


def test_state_tuples_distinguish_symmetry_classes():
    # the ground-state value tuples separate character classes
    for ctx, cval in [(Q, 5), (Q, 8), (GAUSS, 5), (EISEN, 7)]:
        c = ctx.elem(cval)
        pts = torsion_points(c)
        tuples = []
        for w in level_group(c).reps:
            chi = CharacterPoint.make(ctx, c, w)
            tuples.append([phi_extreme_infty(r, chi) for r in pts])
        for i in range(len(tuples)):
            for j in range(i + 1, len(tuples)):
                assert any(a != b for a, b in zip(tuples[i], tuples[j]))
