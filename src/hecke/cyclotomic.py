"""Exact values in cyclotomic fields, one stored form per value.

A value is stored at its conductor m, the least modulus whose roots of
unity generate a field holding it (never 2 mod 4), as integer numerators
over one positive denominator in lowest terms, on the power basis
1, zeta_m, ..., zeta_m^(phi(m)-1) left by reduction modulo the m-th
cyclotomic polynomial.  Equal values have equal triples (m, nums, den),
which equality and hashing compare.  A value given at any modulus
descends to its conductor one prime at a time (Breuer, AAECC 8, 1997).

The reduction is dense: its cost grows with m, whatever the size of the
value.  So the normal form is computed once per distinct input, in a
bounded memo keyed by the nonzero (exponent mod m, numerator) pairs and
the denominator; values built from equal inputs share one nums tuple.

The Galois action of k coprime to m sends zeta_m to zeta_m^k; complex
embeddings evaluate at exp(2*pi*i/m).
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .numberfield import factor_int

__all__ = ["CycloNum", "root_of_unity", "from_exponent"]


@lru_cache(maxsize=None)
def _reduction_tail(m: int) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_(D-1)) of the m-th cyclotomic polynomial
    below its leading monomial, so zeta^D = -(c_0 + ... + c_(D-1) zeta^(D-1)).

    Phi_m(x) = Phi_rad(x^(m/rad)) for the radical rad of m, and for
    rad > 1 Phi_rad is the Moebius product of (1 - x^d)^mu(rad/d) over
    d | rad, taken as power series below degree phi(rad) + 1, where it is
    exact: each factor is one pass of a multiplication by 1 - x^d or of a
    division by it.
    """
    primes = list(factor_int(m))
    if not primes:
        return (-1,)  # Phi_1 = x - 1
    deg = prod(p - 1 for p in primes)
    divisors = [(1, (-1) ** len(primes))]  # (d, mu(rad/d))
    for p in primes:
        divisors += [(d * p, -mu) for d, mu in divisors]
    poly = [1] + [0] * deg  # lowest degree first
    for d, mu in divisors:
        if mu > 0:
            poly[d:] = [a - b for a, b in zip(poly[d:], poly)]
        else:
            for j in range(d, deg + 1, d):
                poly[j:j + d] = [a + b for a, b in zip(poly[j:j + d],
                                                       poly[j - d:j])]
    assert poly[-1] == 1, "Phi_rad is monic"
    step = m // prod(primes)
    tail = [0] * (deg * step)
    tail[::step] = poly[:-1]
    return tuple(tail)


def _divmod(num: list, m: int) -> list:
    """The remainder of the integer polynomial num (lowest degree first,
    any length; changed in place) by Phi_m, padded to the basis length
    phi(m)."""
    tail = _reduction_tail(m)
    k = len(tail)
    for i in range(len(num) - k - 1, -1, -1):
        c = num[i + k]
        if c:
            for j, t in enumerate(tail):
                if t:
                    num[i + j] -= c * t
    return num[:k] + [0] * (k - len(num))


def _descend(m: int, vec: list) -> tuple[int, list, int]:
    """(conductor, vec', scale) for the value sum(vec[j] zeta_m^j) =
    sum(vec'[j] zeta^j) / scale, vec reduced.  Per prime p | m it descends
    to m/p while the value equals its average over the k = 1 (mod m/p):
    for p^2 | m that keeps the exponents divisible by p, for p || m it
    weights zeta_p^a by 1 if a = 0 and -1/(p-1) otherwise (the identity
    for p = 2).  A prime that fails once fails further down too."""
    scale = 1
    for p in factor_int(m):
        while m % p == 0:
            n = m // p
            if n % p == 0:
                if any(vec[j] for j in range(len(vec)) if j % p):
                    break
                vec = vec[::p]
            else:
                inv = pow(p, -1, n)  # zeta_m^(p*i) = zeta_n^i
                proj = [0] * n
                for j, c in enumerate(vec):
                    proj[j * inv % n] += c * (p - 1) if j % p == 0 else -c
                proj = _divmod(proj, n)
                if p > 2:
                    lifted = [0] * m
                    lifted[:p * len(proj):p] = proj
                    if _divmod(lifted, m) != [c * (p - 1) for c in vec]:
                        break
                    scale *= p - 1
                vec = proj
            m = n
    return m, vec, scale


# One ground_states pass of the benchmark builds 951 values from 123
# distinct inputs: 366 unit averages (kms._unit_average builds each
# once) and 585 Galois twists.  `regularity` at Q(i) level 10 + 7w
# (norm 149) builds 149 from 38, at norm 449 449 from 113: each value is
# an average of at most |O*| <= 6 roots of unity.  The bound keeps a
# long-running process finite.
_NORMAL_MEMO = 1 << 10


@lru_cache(maxsize=_NORMAL_MEMO)
def _normal_form(m: int, terms: tuple, den: int) -> tuple[int, tuple, int]:
    """The stored triple (conductor, nums, den) of the value
    sum(c * zeta_m^j for j, c in terms) / den, for sorted pairs (j, c)
    with 0 <= j < m, distinct j and c != 0, and den != 0.  Equal inputs
    share one nums tuple."""
    vec = [0] * (terms[-1][0] + 1 if terms else 0)
    for j, c in terms:
        vec[j] = c
    m, nums, scale = _descend(m, _divmod(vec, m))
    den *= scale
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return m, tuple(c // g for c in nums), den // g


class CycloNum:
    """An exact element of a cyclotomic field, stored at its conductor m
    as integer numerators over one positive denominator, in lowest terms;
    CycloNum(m, coeffs, den) is sum(coeffs[j] * zeta_m^j) / den for
    integers coeffs[j] and den != 0, where coeffs is a sequence indexed
    by j or a dict {j: coeffs[j]}."""

    __slots__ = ("m", "nums", "den")

    def __init__(self, m: int, coeffs, den: int = 1):
        if m < 1:
            raise ValueError("modulus must be a positive integer")
        if not den:
            raise ZeroDivisionError("zero denominator")
        sparse = {}
        for j, c in (coeffs.items() if isinstance(coeffs, dict)
                     else enumerate(coeffs)):
            if c:
                sparse[j % m] = sparse.get(j % m, 0) + c
        terms = tuple(sorted((j, c) for j, c in sparse.items() if c))
        self.m, self.nums, self.den = _normal_form(m, terms, den)

    @property
    def coeffs(self) -> tuple:
        """The rational coordinates on the power basis of zeta_m."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __eq__(self, other):
        if not isinstance(other, CycloNum):
            return NotImplemented
        return ((self.m, self.den, self.nums)
                == (other.m, other.den, other.nums))

    def __hash__(self):
        return hash((self.m, self.den, self.nums))

    # -- structure maps

    def galois(self, k: int) -> "CycloNum":
        """The field automorphism zeta_m -> zeta_m^k, for k invertible
        modulo m; fixes all rationals."""
        if gcd(k, self.m) != 1:
            raise ValueError(f"exponent {k} is not invertible modulo {self.m}")
        return CycloNum(self.m, {j * k: c for j, c in enumerate(self.nums)},
                        self.den)

    # -- views

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def numeric(self) -> complex:
        """Evaluation at the principal embedding zeta_m = exp(2*pi*i/m)."""
        z = cmath.exp(2j * cmath.pi / self.m)
        total = 0j
        power = 1 + 0j
        for c in self.nums:
            if c:
                total += c / self.den * power
            power *= z
        return total

    def __repr__(self):
        bits = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                bits.append(f"{c}")
            elif j == 1:
                bits.append(f"{c}*z")
            else:
                bits.append(f"{c}*z^{j}")
        body = " + ".join(bits) if bits else "0"
        return f"Cyclo(m={self.m}: {body})"


def root_of_unity(m: int, k: int = 1) -> CycloNum:
    """The root of unity zeta_m^k."""
    if m < 1:
        raise ValueError("modulus must be a positive integer")
    return CycloNum(m, {k: 1})


def from_exponent(q) -> CycloNum:
    """The root of unity with exponent q: exp(2*pi*i*q) for rational q."""
    q = Fraction(q)
    return root_of_unity(q.denominator, q.numerator)
