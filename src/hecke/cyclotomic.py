"""Exact arithmetic in cyclotomic fields.

A value is a rational linear combination of powers of a primitive m-th
root of unity zeta_m, stored as the coefficient vector over the power
basis 1, zeta, ..., zeta^(phi(m)-1) after reduction by the m-th
cyclotomic polynomial.  This representation is unique for a fixed
modulus, so equality at one modulus is coefficientwise; values at
different moduli are compared after promotion to the least common
multiple, using zeta_m = zeta_M^(M/m).

The Galois action of k coprime to m sends zeta_m to zeta_m^k; complex
embeddings evaluate at exp(2*pi*i/m).
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = ["CycloNum", "root_of_unity", "from_exponent"]


@lru_cache(maxsize=None)
def _reduction_tail(m: int) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_(D-1)) of the m-th cyclotomic polynomial
    below its leading monomial, so zeta^D = -(c_0 + ... + c_(D-1) zeta^(D-1)).

    Phi_m is x^m - 1 divided by Phi_d for every proper divisor d of m.
    """
    poly = [-1] + [0] * (m - 1) + [1]  # lowest degree first
    for d in range(1, m):
        if m % d == 0:
            poly = _divide_monic(poly, _reduction_tail(d) + (1,))
    return tuple(poly[:-1])


def _divide_monic(num: list, den: tuple) -> list:
    """The quotient num/den of integer polynomials (lowest degree first)
    for a monic den that divides num exactly."""
    num = list(num)
    k = len(den) - 1
    quot = [0] * (len(num) - k)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = num[i + k]
        if c:
            for j, t in enumerate(den):
                num[i + j] -= c * t
    assert not any(num[:k]), "division left a remainder"
    return quot


def _reduce_vector(vec: list, m: int) -> tuple:
    """Reduce a raw coefficient list (any length) modulo the m-th
    cyclotomic polynomial and trim to the basis length."""
    tail = _reduction_tail(m)
    deg = len(tail)
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for j, t in enumerate(tail):
                if t:
                    vec[base + j] -= c * t
    out = vec[:deg]
    if len(out) < deg:
        out = out + [Fraction(0)] * (deg - len(out))
    return tuple(Fraction(c) for c in out)


class CycloNum:
    """An exact element of the cyclotomic field of modulus m."""

    __slots__ = ("m", "coeffs")
    __hash__ = None  # cross-modulus equality makes hashing unsafe

    def __init__(self, m: int, coeffs):
        if m < 1:
            raise ValueError("modulus must be a positive integer")
        self.m = m
        self.coeffs = _reduce_vector([Fraction(c) for c in coeffs], m)

    @classmethod
    def rational(cls, q) -> "CycloNum":
        return cls(1, [Fraction(q)])

    @classmethod
    def zero(cls) -> "CycloNum":
        return cls.rational(0)

    @classmethod
    def one(cls) -> "CycloNum":
        return cls.rational(1)

    # -- modulus management

    def promoted(self, big: int) -> "CycloNum":
        """The same value re-expressed at a modulus that m divides."""
        if big == self.m:
            return self
        if big % self.m:
            raise ValueError("can only promote to a multiple of the modulus")
        step = big // self.m
        deg = len(_reduction_tail(big))
        vec = [Fraction(0)] * max(deg, (len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            if c:
                vec[j * step] += c
        return CycloNum(big, vec)

    def _pair(self, other: "CycloNum"):
        big = lcm(self.m, other.m)
        return self.promoted(big), other.promoted(big)

    # -- ring operations

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._pair(o)
        return CycloNum(a.m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.m, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._pair(o)
        n1, n2 = len(a.coeffs), len(b.coeffs)
        vec = [Fraction(0)] * (n1 + n2 - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        vec[i + j] += x * y
        return CycloNum(a.m, vec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            q = Fraction(other)
            return CycloNum(self.m, [c / q for c in self.coeffs])
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._pair(o)
        return a.coeffs == b.coeffs

    # -- structure maps

    def galois(self, k: int) -> "CycloNum":
        """The field automorphism zeta_m -> zeta_m^k, for k invertible
        modulo m; fixes all rationals."""
        if gcd(k, self.m) != 1:
            raise ValueError(f"exponent {k} is not invertible modulo {self.m}")
        vec = [Fraction(0)] * self.m
        for j, c in enumerate(self.coeffs):
            if c:
                vec[(j * k) % self.m] += c
        return CycloNum(self.m, vec)

    def conjugate(self) -> "CycloNum":
        return self.galois(self.m - 1 if self.m > 1 else 1)

    # -- views

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def numeric(self) -> complex:
        """Evaluation at the principal embedding zeta_m = exp(2*pi*i/m)."""
        z = cmath.exp(2j * cmath.pi / self.m)
        total = 0j
        power = 1 + 0j
        for c in self.coeffs:
            if c:
                total += float(c) * power
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
    k %= m
    vec = [Fraction(0)] * (k + 1)
    vec[k] = Fraction(1)
    return CycloNum(m, vec)


def from_exponent(q) -> CycloNum:
    """The root of unity with exponent q: exp(2*pi*i*q) for rational q."""
    q = Fraction(q)
    q -= q.numerator // q.denominator  # reduce to [0, 1)
    return root_of_unity(q.denominator, q.numerator)
