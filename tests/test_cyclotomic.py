"""Exact cyclotomic values against the complex embedding.

The independent oracle throughout is direct floating evaluation at
zeta_m = exp(2*pi*i/m): every stored form asserted exactly is also
confirmed numerically, and vice versa classic closed forms (golden ratio
cosines, vanishing root sums) pin the implementation.  Expected values
are written as constructor calls: CycloNum(5, [2, 1, 0, 0, 1], 4) is
(2 + zeta_5 + zeta_5^4)/4.
"""
import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import hecke.cyclotomic
from hecke.cyclotomic import (CycloNum, _normal_form, _reduction_tail,
                              from_exponent, root_of_unity)


def embed(v: CycloNum) -> complex:
    """Independent numeric route: evaluate the stored polynomial at
    exp(2*pi*i/m) with no help from the class under test."""
    z = cmath.exp(2j * cmath.pi / v.m)
    return sum(float(c) * z ** j for j, c in enumerate(v.coeffs))


def as_rational(v: CycloNum):
    """The value as a Fraction if it is rational, else None."""
    return Fraction(v.nums[0], v.den) if v.m == 1 else None


def test_roots_of_unity_have_exact_order():
    one = CycloNum(1, [1])
    for m in range(1, 31):
        powers = [root_of_unity(m, k) for k in range(m)]
        assert powers[0] == one and root_of_unity(m, m) == one
        assert len(set(powers)) == m
        assert all(root_of_unity(m, k + m) == powers[k] for k in range(m))


def test_numeric_embedding_matches_cmath():
    for m in range(1, 31):
        for k in range(m):
            v = root_of_unity(m, k)
            want = cmath.exp(2j * cmath.pi * k / m)
            assert abs(v.numeric() - want) < 1e-12
            assert abs(embed(v) - want) < 1e-12


def test_root_sums_vanish():
    # sum of all m-th roots of unity is 0 for m > 1
    for m in range(2, 25):
        total = CycloNum(m, [1] * m)
        assert total.is_zero and total == CycloNum(1, [0])
        assert total.numeric() == 0


def test_quadratic_subfield_identities():
    # zeta_4^2 = -1
    assert CycloNum(4, [0, 0, 1]) == CycloNum(1, [-1])
    # zeta_3 satisfies z^2 + z + 1 = 0
    assert CycloNum(3, [1, 1, 1]).is_zero
    # zeta_6 = -zeta_3^2 (both are exp(i*pi/3))
    assert root_of_unity(6) == CycloNum(3, [0, 0, -1])
    # 2*cos(2*pi/5) = zeta_5 + zeta_5^4 = (sqrt(5)-1)/2
    golden = CycloNum(5, [0, 1, 0, 0, 1])
    assert golden == CycloNum(5, [-1, 0, -1, -1])
    val = golden.numeric()
    assert abs(val.imag) < 1e-12
    assert abs(val.real - (math.sqrt(5) - 1) / 2) < 1e-12


def test_cross_modulus_equality():
    assert root_of_unity(2, 1) == CycloNum(1, [-1])
    assert root_of_unity(6, 3) == CycloNum(1, [-1])
    assert root_of_unity(12, 2) == root_of_unity(6, 1)
    assert root_of_unity(10, 2) == root_of_unity(5, 1)
    assert not root_of_unity(5, 1) == root_of_unity(7, 1)
    assert CycloNum(8, [0, 0, 1, 0, 0, 0, 1]) == CycloNum(1, [0])  # i + (-i)
    assert root_of_unity(5) != 1 and CycloNum(1, [1]) != 1


def test_arithmetic_matches_embedding_on_random_values():
    # the stored form against the input vector evaluated directly
    import random

    rng = random.Random(7)
    for _ in range(40):
        m = rng.choice([3, 4, 5, 6, 8, 12, 15, 20])
        vec = [rng.randint(-3, 3) for _ in range(rng.randint(0, 2 * m))]
        den = rng.choice([-4, -1, 1, 2, 3, 12])
        v = CycloNum(m, vec, den)
        want = sum(c * cmath.exp(2j * cmath.pi * j / m)
                   for j, c in enumerate(vec)) / den
        assert abs(v.numeric() - want) < 1e-10
        assert abs(embed(v) - want) < 1e-10


def _primes_of(m):
    return [p for p in range(2, m + 1)
            if m % p == 0 and all(p % q for q in range(2, p))]


def _triple(v):
    return v.m, v.nums, v.den


@st.composite
def _values(draw):
    # a level M <= 420 and integer numerators of zeta_m^k for a few m | M,
    # written at M; a value from few divisors often lies in a subfield
    big = draw(st.integers(1, 420))
    divs = [m for m in range(1, big + 1) if big % m == 0]
    vec = [0] * big
    for m, k, c in draw(st.lists(st.tuples(st.sampled_from(divs),
                                           st.integers(0, 419),
                                           st.integers(-6, 6).filter(bool)),
                                 min_size=1, max_size=4)):
        vec[k % m * (big // m)] += c
    return big, vec, draw(st.integers(1, 6))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_values(), st.integers(2, 4), st.randoms(use_true_random=False))
def test_core_against_complex_embedding(value, t, rng):
    # the normal form: one stored triple per value, at its conductor
    big, vec, den = value
    v = CycloNum(big, vec, den)
    want = sum(c * cmath.exp(2j * cmath.pi * j / big)
               for j, c in enumerate(vec)) / den
    m = v.m
    assert m % 4 != 2 and len(v.nums) == len(_reduction_tail(m))
    for p in _primes_of(m):
        # some automorphism fixing the field of (m/p)-th roots moves v
        ks = [1 + s * (m // p) for s in range(p)]
        assert any(v.galois(k) != v for k in ks if gcd(k, m) == 1), (v, p)
    assert v.den > 0 and gcd(v.den, *v.nums) == 1
    assert abs(v.numeric() - want) <= 1e-9 and abs(embed(v) - want) <= 1e-9
    # the memo is keyed by the sparse input and returns what the function
    # computes on it
    terms = tuple((j, c) for j, c in enumerate(vec) if c)
    assert _triple(v) == _normal_form.__wrapped__(big, terms, den)
    # the same value written at t*M, plus zero sums, or negated
    lifted = [0] * (t * big)
    lifted[::t] = vec
    noisy = list(vec)
    for p in _primes_of(big):
        for k in range(big // p):
            c = rng.randint(-3, 3)
            for j in range(p):
                noisy[k + j * big // p] += c
    for same in (CycloNum(t * big, lifted, den), CycloNum(big, noisy, den),
                 CycloNum(big, [-c for c in vec], -den)):
        assert _triple(same) == _triple(v) and hash(same) == hash(v)
    # the twist commutes with the descent to the conductor
    for k in range(1, big + 1):
        if gcd(k, big) == 1:
            moved = [0] * big
            for j, c in enumerate(vec):
                moved[j * k % big] += c
            assert v.galois(k) == CycloNum(big, moved, den), k


def test_normal_form_memo_is_bounded_and_shared():
    assert _normal_form.cache_info().maxsize is not None
    # a value built twice, from a list, a dict or a Galois twist, shares
    # one stored tuple of numerators
    v = CycloNum(60, [3, 0, 1, 0, 0, 0, 0, 2], 4)
    assert CycloNum(60, [3, 0, 1, 0, 0, 0, 0, 2], 4).nums is v.nums
    assert CycloNum(60, {0: 3, 62: 1, 7: 2}, 4).nums is v.nums
    assert v.galois(7).nums is v.galois(7).nums


def test_galois_action():
    # zeta -> zeta^k is evaluation at the k-th power root
    for m in [5, 7, 8, 12]:
        v = CycloNum(m, [0, 2, 1], 2)  # zeta + zeta^2 / 2
        for k in range(1, m):
            if math.gcd(k, m) != 1:
                with pytest.raises(ValueError):
                    v.galois(k)
                continue
            got = v.galois(k)
            zk = cmath.exp(2j * cmath.pi * k / m)
            want = zk + 0.5 * zk ** 2
            assert abs(got.numeric() - want) < 1e-12
    assert CycloNum(1, [5], 7).galois(3) == CycloNum(20, [5], 7)


def test_rational_detection_and_scalars():
    v = CycloNum(5, [0] * 5)
    assert v.is_zero and as_rational(v) == 0
    w = CycloNum(6, [3, 0], 4)
    assert as_rational(w) == Fraction(3, 4) and w.coeffs == (Fraction(3, 4),)
    assert as_rational(CycloNum(5, [0, -3, -3, -3, -3], 2)) == Fraction(3, 2)
    assert as_rational(root_of_unity(5)) is None
    assert CycloNum(4, [0, 1], 2).numeric() == pytest.approx(0.5j)


def test_from_exponent_reduces_mod_one():
    assert from_exponent(Fraction(1, 2)) == CycloNum(1, [-1])
    assert from_exponent(Fraction(7, 2)) == CycloNum(1, [-1])
    assert from_exponent(Fraction(-1, 4)) == root_of_unity(4, 3)
    assert from_exponent(0) == CycloNum(1, [1])
    assert from_exponent(Fraction(2, 6)) == root_of_unity(3, 1)


def test_minimal_polynomial_vanishes():
    # P = x^D + sum tail[i] x^i is Phi_m exactly when it is monic with
    # integer coefficients, D = phi(m), and |P(zeta)| < 1 at every
    # primitive m-th root zeta: otherwise P - Phi_m is a nonzero integer
    # polynomial of degree below phi(m), so (P - Phi_m)(zeta) is a
    # nonzero algebraic integer whose norm, the product of |P| over all
    # primitive roots, is at least 1
    for m in range(1, 301):
        tail = _reduction_tail(m)
        assert all(type(c) is int for c in tail)
        assert len(tail) == sum(1 for k in range(m) if gcd(k, m) == 1)
        coeffs = (*tail, 1)
        for k in range(m):
            if gcd(k, m) == 1:
                z = cmath.exp(2j * cmath.pi * k / m)
                value = 0j
                for c in reversed(coeffs):
                    value = value * z + c
                assert abs(value) < 1e-6, (m, k)
        # and the exact reduction sends the root itself to zero
        assert CycloNum(m, coeffs).is_zero, m


def test_reduction_tail_against_division_construction():
    # reference: Phi_m as x^m - 1 divided by Phi_d for every proper
    # divisor d of m, by long division of integer polynomials
    phis = {}

    def phi(m):
        if m not in phis:
            poly = [-1] + [0] * (m - 1) + [1]  # lowest degree first
            for d in range(1, m):
                if m % d:
                    continue
                div = phi(d)
                k = len(div) - 1
                quot = [0] * (len(poly) - k)
                for i in range(len(quot) - 1, -1, -1):
                    c = quot[i] = poly[i + k]
                    for j, t in enumerate(div):
                        poly[i + j] -= c * t
                assert not any(poly), (m, d)
                poly = quot
            phis[m] = poly
        return phis[m]

    for m in [*range(1, 301), 2310]:
        assert _reduction_tail(m) == tuple(phi(m)[:-1]), m
        assert phi(m)[-1] == 1


def test_library_runs_without_sympy():
    # sympy is no dependency at all: the CLI and a ground-state value
    # must not import it
    code = (
        "import sys\n"
        "import hecke.cli\n"
        "from hecke.kms import phi_extreme_infty\n"
        "from hecke.numberfield import make_ctx\n"
        "from hecke.pairing import CharacterPoint\n"
        "from hecke.torsion import torsion_points\n"
        "ctx = make_ctx(1)\n"
        "chi = CharacterPoint.make(ctx, 5, 1)\n"
        "phi_extreme_infty(torsion_points(ctx.elem(5))[1], chi)\n"
        "assert 'sympy' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(hecke.cyclotomic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_exact_paths_run_without_numpy():
    # numpy sums the float series alone: the CLI import and every exact
    # computation leave it unloaded, and zeta_k loads it on first use
    code = (
        "import sys\n"
        "import hecke.cli\n"
        "from hecke.hecke_algebra import mu, theta\n"
        "from hecke.kms import phi_extreme_infty, phi_symmetric, zeta_k\n"
        "from hecke.numberfield import make_ctx\n"
        "from hecke.oracle import verify_equivalence\n"
        "from hecke.pairing import CharacterPoint\n"
        "from hecke.symmetry import (SymmetryElem, compare_actions,\n"
        "                            regularity_check)\n"
        "from hecke.torsion import torsion_points\n"
        "q, ctx = make_ctx(0), make_ctx(1)\n"
        "assert not verify_equivalence(q, 3)['failed']\n"
        "assert regularity_check(ctx.elem(5))['all_ok']\n"
        "chi = CharacterPoint.make(ctx, 5, 1)\n"
        "r = torsion_points(ctx.elem(5))[1]\n"
        "compare_actions(r, chi, SymmetryElem.make(ctx, 5, 2))\n"
        "phi_extreme_infty(r, chi)\n"
        "phi_symmetric(r, 2)\n"
        "phi_symmetric(r, 2.5)\n"
        "mu(ctx.elem(1, 1)) * theta(ctx.one / 2)\n"
        "assert 'numpy' not in sys.modules\n"
        "value, err = zeta_k(ctx, 2.0)\n"
        "assert 'numpy' in sys.modules\n"
        "print(value.hex(), err.hex())\n")
    src = os.path.dirname(os.path.dirname(hecke.cyclotomic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    from hecke.kms import zeta_k
    from hecke.numberfield import make_ctx
    value, err = zeta_k(make_ctx(1), 2.0)
    assert res.stdout.split() == [value.hex(), err.hex()]


def test_stored_at_the_conductor():
    # a rational value built at modulus 6 is stored at 1, so it prints
    # like the rational it is
    half = CycloNum(6, [1, 0], 2)
    assert (half.m, half.coeffs) == (1, (Fraction(1, 2),))
    assert {root_of_unity(10, 2): 0}[root_of_unity(5)] == 0
    assert root_of_unity(12, 3).m == 4 and root_of_unity(6).m == 3


def test_promotion_validation():
    with pytest.raises(ValueError):
        CycloNum(0, [1])
    with pytest.raises(ZeroDivisionError):
        CycloNum(5, [1], 0)
