"""Equilibrium states of the dynamical system and the partition function.

The time evolution scales an isometry of norm N by N^(it), so a basis
monomial M(a, r, b) is an eigenvector of weight (N_b/N_a)^(it).  The
symmetric state phi_beta is given on a torsion generator with reduced
denominator b by

    phi_beta(theta_r) = N_b^(-beta) * prod over primes p | b of
                        (1 - N_p^(beta-1)) / (1 - N_p^(-1)),

and extended to monomials by the equilibrium identity, which forces
phi(M(a, r, b)) = 0 unless aO = bO; a canonical monomial has coprime
slots, so that leaves the theta part, a = b = 1.
The closed form is evaluated at every finite beta > 0.  For
0 < beta <= 1 it is the unique equilibrium state; for beta > 1 it is the
symmetry-group average of the extreme states (criterion 7 checks this at
beta = 2).  The extreme low-temperature states are indexed by
finite-level characters chi.  At beta = infinity the value is an exact
average of the pairing over the units, one integer trace each; it
depends on (r, chi) only through the field and the trace numerators
(q, t0 mod q, t1 mod q), and the bounded memo _unit_average builds it
once per distinct key.  For finite beta it is a zeta-normalized
Dirichlet series evaluated here by bucketing ideals by their class in
O/cO, N(c) buckets on the Hermite basis of cO, so the series cost is
shared across all characters of a level.

The partition function of the system is the Dedekind zeta function,
computed as an Euler product with a certified truncation bound.  The
primes come from one int32 table per process, about 7 MB at the cap: it
is sieved in segments of _SEGMENT odd numbers up to the largest cutoff
requested so far, at most _PRIME_BOUND_MAX, and sliced without a copy
for every smaller cutoff, so a sweep over fields and beta pays for one
sieve.  The product walks the table in blocks of _BLOCK primes, so its
temporaries stay cache-sized, and sums the log factors of each block
into one bucket per residue of p modulo |D|, on which the Kronecker
character chi_D(p) depends: the character is applied to |D| bucket
sums, not to every prime.

The series run on numpy, which is imported inside the functions that
sum them: the ideal arrays _ideal_arrays (one generator per ideal, one
arange per row of numberfield._sector_rows, the walk over a fundamental
sector of the unit rotation that also lists the ideals exactly), the
prime sieve, zeta_k and the finite-beta extreme states.  The symmetric
state and the ground states never load it.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import exp, expm1, inf, isqrt, log, log10, pi
from typing import Union

from .cyclotomic import CycloNum
from .hecke_algebra import HeckeElement, Monomial, sigma_i_beta
from .numberfield import (FieldCtx, _hermite, _norm_numerators,
                          _sector_rows, factor, kronecker_symbol, make_ctx)
from .pairing import (CharacterPoint, _trace_numerators,
                      _unit_trace_numerators)
from .torsion import TorsionClass, denominator_element

__all__ = [
    "KmsParams", "phi_symmetric", "phi_symmetric_monomial",
    "phi_symmetric_element", "kms_identity_check", "phi_extreme_infty",
    "phi_extreme_beta", "zeta_k", "partial_zeta", "eigenvalue_list",
    "ideal_norms_up_to",
]

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class KmsParams:
    """Numeric evaluation parameters: inverse temperature, ideal-norm
    cutoff for Dirichlet series, and target tolerance for the zeta
    factor."""

    beta: Number
    bound: int = 100_000
    tol: float = 1e-7

    def __post_init__(self):
        if self.bound < 2:
            raise ValueError("series cutoff must be at least 2")


# ---------------------------------------------------------------------------
# the symmetric state


def _exact_beta(beta: Number) -> bool:
    """Whether the symmetric state at beta is exact: beta is an int or
    an integral Fraction."""
    return isinstance(beta, int) or (
        isinstance(beta, Fraction) and beta.denominator == 1)


def phi_symmetric(r: TorsionClass, beta: Number):
    """The symmetric equilibrium value on theta_r; exact when beta is an
    int or an integral Fraction, float otherwise.  beta must be finite
    and positive, and an exact value with more digits than Python prints
    raises ValueError.

    For 0 < beta <= 1 this is the unique equilibrium state.  For
    beta > 1 it is the symmetry-group average of the extreme states;
    criterion 7 checks that at beta = 2."""
    if not 0 < beta < inf:
        raise ValueError(f"beta must be finite and positive, not {beta}")
    b = denominator_element(r)
    exact = _exact_beta(beta)
    if exact:
        k = int(beta)
        # k stays an int in the comparison: k * log10(N_b) would overflow a
        # float once k passes about 1e308; a limit of 0 means no limit
        limit = sys.get_int_max_str_digits()
        nb = b.norm()
        if limit and nb > 1 and k > limit / log10(nb):
            raise ValueError(
                f"the exact value at beta={k} has more than {limit} digits, "
                "the limit of sys.get_int_max_str_digits(); pass beta as a "
                "float for a numeric value")
    # one factor per prime power p^e || b,
    #   (N_p^(-e beta) - N_p^((1-e) beta - 1)) / (1 - 1/N_p),
    # whose exponents are all negative, so no power overflows; exact on
    # a Fraction base for integer beta.  In floats it is taken as
    #   N_p^((1-e) beta - 1) * expm1((1 - beta) log N_p) / (1 - 1/N_p),
    # which does not cancel near beta = 1
    if exact:
        val = Fraction(1)
        for p, e in factor(b):
            np_ = Fraction(p.norm())
            val *= ((np_ ** (-e * k) - np_ ** ((1 - e) * k - 1))
                    / (1 - 1 / np_))
        return val
    beta = float(beta)
    val = 1.0
    for p, e in factor(b):
        np_ = p.norm()
        val *= (np_ ** ((1 - e) * beta - 1) * expm1((1 - beta) * log(np_))
                / (1 - 1 / np_))
    return val


def phi_symmetric_monomial(m: Monomial, beta: Number):
    """The symmetric state on a basis monomial.

    Vanishes unless the two isometry slots generate the same ideal.
    Monomial.make divides out the common factor of the slots, so they
    agree only on the theta part, where the value is that on theta_r.
    """
    if m.is_theta_type:
        return phi_symmetric(m.r, beta)
    return Fraction(0) if _exact_beta(beta) else 0.0


def phi_symmetric_element(x: HeckeElement, beta: Number):
    """Linear extension of the symmetric state to the whole algebra."""
    total = Fraction(0) if _exact_beta(beta) else 0.0
    for m, q in x.terms.items():
        total += q * phi_symmetric_monomial(m, beta)
    return total


def kms_identity_check(x: HeckeElement, y: HeckeElement, beta: int) -> bool:
    """The equilibrium condition phi(x y) = phi(y sigma_(i beta)(x)),
    verified exactly for integer beta."""
    if not isinstance(beta, int) or beta <= 0:
        raise ValueError("the exact identity check needs a positive "
                         "integer beta")
    lhs = phi_symmetric_element(x * y, beta)
    rhs = phi_symmetric_element(y * sigma_i_beta(x, beta), beta)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the spectrum and truncated Dirichlet series


@lru_cache(maxsize=None)
def _ideal_arrays(d: int, bound: int):
    """Arrays (norms, x, y) listing exactly one generator x + y*omega for
    every nonzero ideal of norm <= bound, sorted by norm, then x, then y.

    The generators are the points of numberfield._sector_rows, one
    arange per row.
    """
    import numpy as np

    ctx = make_ctx(d)
    rows = _sector_rows(ctx, bound)
    xs = np.concatenate([np.arange(lo, hi + 1, dtype=np.int64)
                         for _, lo, hi in rows] or [np.zeros(0, np.int64)])
    ys = np.repeat(np.array([y for y, _, _ in rows], dtype=np.int64),
                   [hi - lo + 1 for _, lo, hi in rows])
    if ctx.is_rational:
        return xs, xs.copy(), ys  # the norm is x itself
    norms = _norm_numerators(ctx, xs, ys)
    order = np.lexsort((ys, xs, norms))
    return norms[order], xs[order], ys[order]


def ideal_norms_up_to(ctx: FieldCtx, bound: int) -> list[int]:
    """The sorted multiset of ideal norms up to the bound."""
    norms, _, _ = _ideal_arrays(ctx.d, bound)
    return [int(v) for v in norms]


def eigenvalue_list(ctx: FieldCtx, bound: int) -> list[float]:
    """The energy spectrum {log N_a : N_a <= bound} with multiplicity."""
    return [log(n) for n in ideal_norms_up_to(ctx, bound)]


def partial_zeta(ctx: FieldCtx, bound: int, beta: Number):
    """Truncated Dirichlet series over ideals of norm <= bound; exact
    Fraction for integer beta and modest bounds, float otherwise."""
    import numpy as np

    if beta <= 1:
        raise ValueError("series diverges for beta <= 1")
    if isinstance(beta, int) and bound <= 2000:
        return sum(Fraction(1, n ** beta)
                   for n in ideal_norms_up_to(ctx, bound))
    norms, _, _ = _ideal_arrays(ctx.d, bound)
    return float(np.sum(norms.astype(np.float64) ** (-float(beta))))


@lru_cache(maxsize=None)
def _ideal_density(d: int) -> float:
    """Crude certified linear bound: ideals of norm <= x number at most
    kappa * x for x >= 1000, with kappa read off at 1000 and doubled."""
    count = sum(hi - lo + 1 for _, lo, hi in _sector_rows(make_ctx(d), 1000))
    return 2.0 * count / 1000.0


def _series_tail(ctx: FieldCtx, bound: int, beta: float) -> float:
    """Upper bound for the absolute tail sum of N^(-beta) over ideals of
    norm > bound, by partial summation against the linear count bound."""
    kappa = _ideal_density(ctx.d)
    return kappa * beta / (beta - 1.0) * bound ** (1.0 - beta)


# ---------------------------------------------------------------------------
# Dedekind zeta as an Euler product


# the largest prime cutoff zeta_k uses, and so the largest prime table
# kept between calls (int32, about 7 MB at this cutoff)
_PRIME_BOUND_MAX = 30_000_000

# primes per block of zeta_k: its temporaries are 512 KB arrays, not
# arrays as long as the table
_BLOCK = 1 << 16

# odd numbers per segment of _sieve: its bool array is 256 KB, not as
# long as the table
_SEGMENT = 1 << 18


def _sieve(limit: int):
    """The primes up to limit (< 2**31) as a read-only int32 array, by a
    sieve of Eratosthenes over the odd numbers alone, in segments of
    _SEGMENT odd numbers: index i stands for 2i + 1.

    The odd primes up to sqrt(limit) come from the same sieve, one level
    down.  Each segment's primes are written straight into one int32
    table, allocated once and sized by Rosser and Schoenfeld's bound
    pi(x) < 1.25506 x / ln x for x > 1 (Illinois J. Math. 6 (1962),
    64-94, (3.6)); slack that is never written costs no resident
    memory.  No table-length bool or int64 array is made."""
    import numpy as np

    if limit < 2:
        primes = np.zeros(0, dtype=np.int32)
        primes.flags.writeable = False
        return primes
    base = _sieve(isqrt(limit))[1:].tolist()  # the odd primes <= sqrt
    table = np.empty(int(1.25506 * limit / log(limit)) + 1, dtype=np.int32)
    table[0] = 2
    count = 1
    odd = (limit + 1) // 2  # indices 0 .. odd - 1, standing for 1 .. limit
    segment = np.empty(min(_SEGMENT, odd), dtype=bool)
    for lo in range(0, odd, _SEGMENT):
        hi = min(lo + _SEGMENT, odd)
        seg = segment[:hi - lo]
        seg[:] = True
        if lo == 0:
            seg[0] = False  # 1
        for p in base:
            # the odd multiples of p sit at indices (p - 1)/2 mod p, the
            # first one to strike at p*p // 2, the index of p*p
            first = p * p // 2
            if first >= hi:
                break
            seg[max(first, lo + ((p - 1) // 2 - lo) % p) - lo::p] = False
        found = table[count:count + np.count_nonzero(seg)]
        found[:] = np.flatnonzero(seg)  # the intp indices die here
        found *= 2
        found += 2 * lo + 1
        count += len(found)
    primes = table[:count]
    primes.flags.writeable = False
    return primes


# (cutoff, the primes up to it): one pair, replaced by a single assignment,
# so that a reader never sees a table shorter than its cutoff.  The cutoff
# starts below every limit, so the first call sieves.
_prime_table = (-1, None)


def _primes_up_to(limit: int):
    """The primes up to limit (>= 0) as a read-only int32 array.

    The table is sieved once per process and sliced for every later
    cutoff at or below the largest one met so far; a larger cutoff
    rebuilds it up to exactly that cutoff.  The slice is found with an
    int32 key: a Python int made numpy 2 copy the whole table to int64
    on every call."""
    import numpy as np

    global _prime_table
    covered, primes = _prime_table
    if limit > covered:
        covered, primes = limit, _sieve(limit)
        _prime_table = covered, primes
    return primes[:np.searchsorted(primes, np.int32(limit), side="right")]


@lru_cache(maxsize=None)
def zeta_k(ctx: FieldCtx, beta: Number,
           tol: float = 1e-7) -> tuple[float, float]:
    """The Dedekind zeta value at beta > 1 with a certified error bound.

    Euler product over the n rational primes p up to a cutoff P chosen
    from the tolerance, at most _PRIME_BOUND_MAX.  With x = p^(-beta) and
    chi the Kronecker character of the discriminant D,

        -log zeta_K = sum_p log1p(-x) + sum_(chi(p)=1) log1p(-x)
                      + sum_(chi(p)=-1) log1p(x):

    the rational factor, then the L-factor, where a split prime gives
    another (1 - x)^(-1), an inert one (1 + x)^(-1) and a ramified one
    nothing.  The table is walked in blocks of _BLOCK primes, so every
    temporary is a block long.  chi(p) depends on p mod |D| alone, so
    each block adds its log1p(-x) and its log1p(x) into one bucket per
    residue (bincount); chi sorts the |D| bucket sums at the end.  Over Q
    each block's log1p(-x) is summed directly.

    The reported bound is tail plus rounding.  Tail: |log local factor|
    <= cb * p^(-beta), cb = 2 / (1 - 2^(-beta)), and the sum of that over
    p > P is at most cb * P^(1-beta) / (beta-1) =: t, so the value is
    off by at most value * (exp(t) - 1).  Rounding: at most
    1e-15 * n * value, for every beta > 1.  Proof, with u = 2^(-53):
      * An int32 p converts to float64 exactly; pow and log1p are
        within one unit in the last place, and the relative condition
        number in x is at most 1/log(2) < 1.45 for log1p(-x) and at
        most 1 for log1p(x), as x <= 1/2, so each term is off by at
        most 2.5u times its size.
      * Each of the three sums adds terms of one sign, so every partial
        sum is at most the full sum in size and each inexact addition
        errs by at most u times it.  An addition to an exact zero (a
        fresh bucket, an empty bucket, a fresh total) is exact, and any
        order of summing k nonzero terms makes k - 1 other additions:
        bincount's running sums, the bucket totals carried across
        blocks and the sum over buckets together make at most n - 1 per
        sum.  Joining the three sums takes two more.
      * So with S = sum_p |log1p(-x)| + sum_split |log1p(-x)|
        + sum_inert |log1p(x)|, -log zeta_K is off by at most
        (n + 3.5) u S, and exp adds u relative to the value.
      * |log1p(x)| <= |log1p(-x)| and x <= 1/p, so S <= 2 sum_(p <= P)
        -log(1 - 1/p) <= 2 sum_(p <= 3e7) -log(1 - 1/p) < 6.85.
      * ((n + 3.5) * 6.85 + 1) u <= 9.0 n u once n >= 12, and n >= 25
        since P >= 100; 9.0 u < 1e-15.
    """
    import numpy as np

    bf = float(beta)
    if not 1 < bf < inf:  # NaN fails too
        raise ValueError(f"zeta requires 1 < beta < inf, not {bf}")
    if not tol > 0:
        raise ValueError("zeta requires tol > 0")
    cb = 2.0 / (1.0 - 2.0 ** (-bf))  # |log factor_p| <= cb * p^(-beta)
    # tail of sum cb * p^(-beta) <= cb * P^(1-beta)/(beta-1); aim at
    # tol/4 relative so the absolute bound lands under tol
    target = max(tol / 4.0, 1e-12)
    try:
        prime_bound = int((cb / ((bf - 1.0) * target))
                          ** (1.0 / (bf - 1.0))) + 10
    except OverflowError:
        raise ValueError(f"beta={bf} is too close to 1 for the Euler "
                         "product") from None
    prime_bound = min(max(prime_bound, 100), _PRIME_BOUND_MAX)
    primes = _primes_up_to(prime_bound)
    period = abs(ctx.discriminant)
    minus = np.zeros(period)  # sum of log1p(-x) per residue of p mod |D|
    plus = np.zeros(period)  # sum of log1p(x) per residue of p mod |D|
    # block buffers, one set per call: x = p^(-beta), then log1p(-x) in
    # place; y = log1p(x); r = p mod |D| as intp, which bincount reads
    # without a cast
    size = min(_BLOCK, len(primes))
    xbuf, ybuf = np.empty(size), np.empty(size)
    rbuf = np.empty(size, dtype=np.intp)
    for start in range(0, len(primes), _BLOCK):
        block = primes[start:start + _BLOCK]
        x = np.power(block, -bf, out=xbuf[:len(block)], dtype=np.float64)
        if ctx.is_rational:
            minus += np.log1p(np.negative(x, out=x), out=x).sum()
            continue
        residues = np.remainder(block, period, out=rbuf[:len(block)],
                                casting="unsafe")
        plus += np.bincount(residues, minlength=period,
                            weights=np.log1p(x, out=ybuf[:len(block)]))
        minus += np.bincount(residues, minlength=period,
                             weights=np.log1p(np.negative(x, out=x), out=x))
    log_val = -minus.sum()  # the rational zeta factor
    if not ctx.is_rational:
        chi = np.array([kronecker_symbol(ctx.discriminant, k)
                        for k in range(period)])
        log_val -= minus[chi == 1].sum() + plus[chi == -1].sum()
    value = float(np.exp(log_val))
    tail = cb * prime_bound ** (1.0 - bf) / (bf - 1.0)
    err = value * (exp(tail) - 1.0) + 1e-15 * len(primes) * value
    return value, err


# ---------------------------------------------------------------------------
# extreme states


def phi_extreme_infty(r: TorsionClass, chi: CharacterPoint) -> CycloNum:
    """Ground-state value on theta_r: the exact average of the pairing
    <u*r, chi> over the units u, one integer trace each.  Every class of
    the unit orbit of r is hit |Stab(r)| times, so this is also the
    average over the orbit."""
    q, t0, t1 = _trace_numerators(r, chi)
    return _unit_average(chi.ctx.d, q, t0 % q, t1 % q)


# A ground_states pass of the benchmark asks for 6,015 values on 366
# distinct keys, and `regularity` at Q(i) level 20 + 7w (norm 449) on
# 449: the default regularity cap of norm 200 always fits.  The bound
# keeps a long-running process finite.
_UNIT_AVERAGE_MEMO = 1 << 10


@lru_cache(maxsize=_UNIT_AVERAGE_MEMO)
def _unit_average(d: int, q: int, t0: int, t1: int) -> CycloNum:
    """The average of zeta_q^(u0*t0 + u1*t1) over the units u0 + u1*omega
    of field d: the ground-state value with trace numerators (q, t0, t1),
    which depends on them only modulo q."""
    units = make_ctx(d).units
    counts = {}  # how often each zeta_q^k occurs
    for u in units:
        k = (u.e0 * t0 + u.e1 * t1) % q
        counts[k] = counts.get(k, 0) + 1
    return CycloNum(q, counts, len(units))


@lru_cache(maxsize=None)
def _residue_sums(d: int, bound: int, beta: float, basis: tuple[int, int, int]):
    """Vector S of length N(c) with S[i*C + j] = sum of N_a^(-beta) over
    ideals of norm <= bound whose chosen generator is congruent to
    i + j*omega modulo cO, where basis = (A, B, C) is the Hermite basis
    (A, B + C*omega) of cO; over Q it is (|c|, 0, 1).

    A generator x + y*omega, y >= 0, lies in the class of
    (x - k*B) + (y - k*C)*omega with k = y // C, taken mod A."""
    import numpy as np

    a, b, c = basis
    norms, xs, ys = _ideal_arrays(d, bound)
    # in place after three arrays as long as the ideal list: each fresh
    # one costs about as much as the arithmetic on it
    k = ys // c
    idx = k * b
    np.subtract(xs, idx, out=idx)
    idx %= a
    idx *= c
    idx += ys
    k *= c
    idx -= k
    weights = norms.astype(np.float64)
    weights **= -beta
    return np.bincount(idx, weights=weights, minlength=a * c)


def phi_extreme_beta(r: TorsionClass, chi: CharacterPoint,
                     params: KmsParams) -> tuple[complex, float]:
    """Finite-temperature extreme state value on theta_r, with an error
    bound combining the series tail and the zeta-factor tolerance.

    The Dirichlet sum runs over ideals; the pairing of a*r with chi only
    depends on a modulo the level c, so the sum collapses onto the N(c)
    classes of O/cO, indexed i + j*omega on the Hermite basis of cO.
    The class of i + j*omega pairs with exponent i*tau0 + j*tau1, where
    tau0 = Tr(u*r*w/delta) and tau1 = Tr(omega*u*r*w/delta) for each
    unit u, from integer numerators over one denominator.
    """
    import numpy as np

    bf = float(params.beta)
    if not 1 < bf < inf:  # NaN fails too
        raise ValueError(f"extreme states need 1 < beta < inf, not {bf}")
    ctx = chi.ctx
    q, traces = _unit_trace_numerators(r, chi)
    basis = ((chi.level_norm, 0, 1) if ctx.is_rational
             else _hermite((chi.c, chi.c * ctx.omega)))
    sums = _residue_sums(ctx.d, params.bound, bf, basis)
    i, j = np.divmod(np.arange(len(sums), dtype=np.float64), basis[2])
    total = 0j
    for a0, a1 in traces:  # int / int rounds correctly, as Fraction does
        total += np.exp(2j * pi * (a0 / q * i + a1 / q * j)) @ sums
    partial = total / len(ctx.units)
    zeta, zeta_err = zeta_k(ctx, bf, tol=params.tol)
    tail = _series_tail(ctx, params.bound, bf)
    value = partial / zeta
    err = (tail + abs(partial) * zeta_err / zeta) / max(zeta - zeta_err, 1e-9)
    return complex(value), float(err)
