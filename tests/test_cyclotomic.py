"""Exact cyclotomic arithmetic against the complex embedding.

The independent oracle throughout is direct floating evaluation at
zeta_m = exp(2*pi*i/m): every symbolic identity asserted exactly is
also confirmed numerically, and vice versa classic closed forms
(golden ratio cosines, vanishing root sums) pin the implementation.
"""
import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import hecke.cyclotomic
from hecke.cyclotomic import (CycloNum, _reduction_tail, from_exponent,
                              root_of_unity)


def embed(v: CycloNum) -> complex:
    """Independent numeric route: evaluate the stored polynomial at
    exp(2*pi*i/m) with no help from the class under test."""
    z = cmath.exp(2j * cmath.pi / v.m)
    return sum(float(c) * z ** j for j, c in enumerate(v.coeffs))


def as_rational(v: CycloNum):
    """The value as a Fraction if it is rational, else None."""
    return Fraction(v.nums[0], v.den) if v.m == 1 else None


def test_roots_of_unity_have_exact_order():
    for m in range(1, 31):
        z = root_of_unity(m)
        acc = CycloNum.one()
        for k in range(1, m):
            acc = acc * z
            assert acc == root_of_unity(m, k)
            assert not acc == CycloNum.one() or m == 1
        assert acc * z == CycloNum.one()


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
        total = CycloNum.zero()
        for k in range(m):
            total = total + root_of_unity(m, k)
        assert total.is_zero
        assert abs(total.numeric()) < 1e-12


def test_quadratic_subfield_identities():
    # zeta_4^2 = -1
    i4 = root_of_unity(4)
    assert i4 * i4 == CycloNum.rational(-1)
    # zeta_3 satisfies z^2 + z + 1 = 0
    z3 = root_of_unity(3)
    assert z3 * z3 + z3 + 1 == CycloNum.zero()
    # zeta_6 = -zeta_3^2 (both are exp(i*pi/3))
    z6 = root_of_unity(6)
    assert z6 == -(z3 * z3)
    # 2*cos(2*pi/5) = zeta_5 + zeta_5^4 = (sqrt(5)-1)/2
    z5 = root_of_unity(5)
    golden = z5 + z5.conjugate()
    val = golden.numeric()
    assert abs(val.imag) < 1e-12
    assert abs(val.real - (math.sqrt(5) - 1) / 2) < 1e-12


def test_cross_modulus_equality():
    assert root_of_unity(2, 1) == CycloNum.rational(-1)
    assert root_of_unity(6, 3) == CycloNum.rational(-1)
    assert root_of_unity(12, 2) == root_of_unity(6, 1)
    assert root_of_unity(10, 2) == root_of_unity(5, 1)
    assert not root_of_unity(5, 1) == root_of_unity(7, 1)
    v = root_of_unity(8, 2) + root_of_unity(8, 6)  # i + (-i)
    assert v == CycloNum.zero()


def test_arithmetic_matches_embedding_on_random_values():
    import random

    rng = random.Random(7)
    for _ in range(40):
        m1 = rng.choice([3, 4, 5, 6, 8, 12])
        m2 = rng.choice([3, 4, 5, 6, 8, 12])
        a = CycloNum(m1, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(len(root_of_unity(m1).coeffs))])
        b = CycloNum(m2, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(len(root_of_unity(m2).coeffs))])
        for sym, num in [(a + b, embed(a) + embed(b)),
                         (a - b, embed(a) - embed(b)),
                         (a * b, embed(a) * embed(b))]:
            assert abs(sym.numeric() - num) < 1e-10


_term = st.tuples(st.integers(-6, 6), st.integers(1, 6), st.integers(0, 59))


@st.composite
def _operands(draw):
    # two rational combinations of zeta_m^k, m <= 60, at moduli whose lcm
    # stays small enough for quick reduction
    ma = draw(st.integers(1, 60))
    mb = draw(st.sampled_from([m for m in range(1, 61) if lcm(ma, m) <= 420]))
    return [(m, draw(st.lists(_term, max_size=4))) for m in (ma, mb)]


def _combination(m, terms):
    v, want = CycloNum.zero(), 0j
    for num, den, k in terms:
        v = v + Fraction(num, den) * root_of_unity(m, k)
        want += num / den * cmath.exp(2j * cmath.pi * k / m)
    return v, want


def _close(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _triple(v):
    return v.m, v.nums, v.den


def _canonical(v, want):
    """v is stored in lowest terms at its conductor and has value want."""
    m = v.m
    assert v.den > 0 and gcd(v.den, *v.nums) == 1
    assert len(v.nums) == len(_reduction_tail(m)) and m % 4 != 2
    for p in {p for p in range(2, m + 1) if m % p == 0
              and all(p % q for q in range(2, p))}:
        # some automorphism fixing the field of (m/p)-th roots moves v
        ks = [1 + t * (m // p) for t in range(p)]
        assert any(v.galois(k) != v for k in ks if gcd(k, m) == 1), (v, p)
    if m == 1:
        q = as_rational(v)
        assert v == q and hash(v) == hash(q)
    assert _close(v.numeric(), want) and _close(embed(v), want)
    return v


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_operands(), st.integers(2, 4))
def test_core_against_complex_embedding(operands, t):
    (x, wx), (y, wy) = (_combination(*o) for o in operands)
    for v, want in [(x, wx), (y, wy), (x + y, wx + wy), (x - y, wx - wy),
                    (x * y, wx * wy), (-x, -wx)]:
        _canonical(v, want)
    # equal values, however reached, have equal triples and hashes
    for a, b in [((x + y) - y, x), (x * y, y * x),
                 ((x + y) * y, x * y + y * y)]:
        assert a == b and _triple(a) == _triple(b) and hash(a) == hash(b)
    # the same value written at a multiple of its conductor
    lifted = [0] * (t * x.m)
    lifted[:t * len(x.nums):t] = x.nums
    assert _triple(CycloNum(t * x.m, lifted, x.den)) == _triple(x)
    assert _triple(CycloNum(x.m, [-c for c in x.nums], -x.den)) == _triple(x)


def test_galois_action():
    # zeta -> zeta^k is evaluation at the k-th power root
    for m in [5, 7, 8, 12]:
        v = root_of_unity(m) + Fraction(1, 2) * root_of_unity(m, 2)
        for k in range(1, m):
            if math.gcd(k, m) != 1:
                with pytest.raises(ValueError):
                    v.galois(k)
                continue
            got = v.galois(k)
            zk = cmath.exp(2j * cmath.pi * k / m)
            want = zk + 0.5 * zk ** 2
            assert abs(got.numeric() - want) < 1e-12


def test_galois_is_ring_homomorphism():
    z = root_of_unity(20)
    a = z + 2
    b = z * z - Fraction(1, 3)
    for k in [3, 7, 9, 11]:
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert CycloNum.rational(Fraction(5, 7)).galois(3) == Fraction(5, 7)


def test_conjugate_matches_complex_conjugation():
    for m in [5, 8, 12]:
        v = root_of_unity(m) + Fraction(1, 3)
        assert abs(v.conjugate().numeric() -
                   v.numeric().conjugate()) < 1e-12
        # v * conj(v) is real
        norm = v * v.conjugate()
        assert abs(norm.numeric().imag) < 1e-12


def test_rational_detection_and_scalars():
    v = root_of_unity(5) * 0
    assert v.is_zero and as_rational(v) == 0
    w = CycloNum.rational(Fraction(3, 4))
    assert as_rational(w) == Fraction(3, 4)
    assert as_rational(w * 2) == Fraction(3, 2)
    assert as_rational(w / 3) == Fraction(1, 4)
    assert as_rational(root_of_unity(5)) is None
    assert (Fraction(1, 2) * root_of_unity(4)).numeric() == pytest.approx(0.5j)


def test_from_exponent_reduces_mod_one():
    assert from_exponent(Fraction(1, 2)) == CycloNum.rational(-1)
    assert from_exponent(Fraction(7, 2)) == CycloNum.rational(-1)
    assert from_exponent(Fraction(-1, 4)) == root_of_unity(4, 3)
    assert from_exponent(0) == CycloNum.one()
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
    # and the exact arithmetic sends the root itself to zero
    for m in [4, 5, 6, 9, 12, 15]:
        z = root_of_unity(m)
        total = CycloNum.zero()
        power = CycloNum.one()
        for c in (*_reduction_tail(m), 1):
            total = total + c * power
            power = power * z
        assert total.is_zero


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
        "from hecke.hecke_algebra import mu, mul_hecke, theta\n"
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
        "mul_hecke(mu(ctx.elem(1, 1)), theta(ctx.one / 2))\n"
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
    # and hashes like the rational it is
    half = CycloNum(6, [Fraction(1, 2), 0])
    assert (half.m, half.coeffs) == (1, (Fraction(1, 2),))
    assert hash(half) == hash(Fraction(1, 2))
    assert {root_of_unity(10, 2): 0}[root_of_unity(5)] == 0
    assert root_of_unity(12, 3).m == 4 and root_of_unity(6).m == 3


def test_promotion_validation():
    with pytest.raises(ValueError):
        CycloNum(0, [1])
