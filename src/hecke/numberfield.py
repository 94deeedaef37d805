"""Exact arithmetic in Q and in the nine imaginary quadratic fields of
class number one.

A field is K = Q (tag d=0) or K = Q(sqrt(-d)) for
d in {1, 2, 3, 7, 11, 19, 43, 67, 163}.  Its ring of integers is
O = Z + Z*omega with omega = sqrt(-d) when -d = 2, 3 (mod 4) and
omega = (1 + sqrt(-d))/2 when -d = 1 (mod 4); in both cases omega
satisfies omega^2 = t*omega - n with t in {0, 1}.  Every element is
stored as reduced integers (e0 + e1*omega)/q over the basis (1, omega),
so all ring operations, norms, residue systems, gcds and factorizations
here are exact; the engine, torsion, the pairing and the coset oracle
all share this one core.  Because the class number is one every ideal
is principal, so a shortest nonzero vector of an ideal's lattice
generates it: that is how gcd_gen finds a generator.  One walk over a
fundamental sector, _sector_rows, lists the ideals up to a norm bound.

factor_int trial-divides by the first 13 primes, _WITNESSES, and tests
primality by Miller-Rabin to the same 13 bases, a proof below
psi_13 ~ 3.3 * 10^24: every prime it reports is proven, and a probable
prime beyond psi_13 raises ValueError.  Cofactors that are no perfect
power go to Brent's Pollard rho, within one budget of 2^22 steps per
call: a number it cannot split in time raises ValueError too.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, isqrt, lcm

from .errors import UnsupportedFieldError

SUPPORTED_D = (0, 1, 2, 3, 7, 11, 19, 43, 67, 163)

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _WITNESSES (Sorenson and
# Webster, Math. Comp. 86 (2017))
_PSI13 = 3317044064679887385961981


# ---------------------------------------------------------------------------
# rational integer helpers


def _is_prime(n: int) -> bool:
    """Primality of an n > 1 with no prime factor in _WITNESSES: prime
    below 41^2, else by Miller-Rabin to the bases _WITNESSES, whose
    "composite" is certain and whose "prime" is proven below _PSI13;
    a probable prime at or above it raises ValueError."""
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI13:
        raise ValueError(f"{n} is a probable prime, but primality is "
                         f"proven only below {_PSI13}")
    return True


# Pollard rho's work bound for one factor_int call, in steps of the
# iteration (2-3 s of CPython on a 2-core VM): it splits typical
# cofactors whose least prime is near 10^12, and fails loudly beyond
_RHO_BUDGET = 1 << 22
_RHO_BATCH = 128


def _pollard_rho(n: int):
    """Brent's variant of Pollard rho (Brent, BIT 20 (1980) 176-184) on a
    composite n free of the primes in _WITNESSES, with x -> x^2 + c from
    x = 2 and one gcd per batch of _RHO_BATCH products.  A generator, so
    that the caller meters the work: it yields the steps of each batch,
    at most _RHO_BATCH, and returns a nontrivial factor of n."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for k in range(0, r, _RHO_BATCH):
                m = min(_RHO_BATCH, r - k)
                for _ in range(m):
                    y = (y * y + c) % n
                yield m
            k = 0
            while k < r and g == 1:
                ys = y
                m = min(_RHO_BATCH, r - k)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                yield m
                g = _int_gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # the batch's product hit 0 mod n: redo it one gcd per step
            yield m
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = _int_gcd(x - ys, n)
        if g != n:
            return g


def _split(m: int, budget: int) -> tuple[int, int]:
    """A nontrivial factor of the composite m by _pollard_rho and the
    steps left of the budget; ValueError when the budget runs out."""
    run = _pollard_rho(m)
    try:
        while (budget := budget - next(run)) >= 0:
            pass
    except StopIteration as stop:
        return stop.value, budget
    raise ValueError(f"could not factor {m} within {_RHO_BUDGET} steps")


def _kth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: exponent}, primes increasing;
    n must be nonzero.  After the primes in _WITNESSES every cofactor is
    split until _is_prime accepts it: by its integer k-th root when it is
    a perfect k-th power (the norm of an inert prime p is p^2, of p^3 it
    is p^6, and rho needs about sqrt(p) steps on any power of p), else
    by Pollard rho, whose steps over the whole call are bounded by
    _RHO_BUDGET: a cofactor that does not split within it raises
    ValueError."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _WITNESSES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    budget = _RHO_BUDGET
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # every prime factor of m is above 41, so a root below 43 ends it
        k = 2
        while (d := _kth_root(m, k)) > 41:
            if d ** k == m:
                stack += [d] * k
                break
            k += 1
        else:
            d, budget = _split(m, budget)
            stack += (d, m // d)
    return dict(sorted(out.items()))


def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a|n), extending the Jacobi symbol to all
    integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _numerators(data: dict) -> tuple[int, dict]:
    """The common denominator of the Fraction values of `data` and the
    integer numerators over it."""
    den = lcm(*(v.denominator for v in data.values()))
    return den, {k: v.numerator * (den // v.denominator)
                 for k, v in data.items()}


# ---------------------------------------------------------------------------
# field contexts


class FieldCtx:
    """Arithmetic context for one supported field.

    Attributes:
        d: the tag (0 for Q, otherwise K = Q(sqrt(-d))).
        t, n: integers with omega^2 = t*omega - n (unused for d=0).
        discriminant: field discriminant (1 for Q).
        units: tuple of the roots of unity in O.
        delta: generator sqrt(discriminant) of the different (1 for Q).
    """

    __slots__ = ("d", "t", "n", "discriminant", "is_rational", "units",
                 "delta", "omega", "zero", "one")

    def __init__(self, d: int):
        if d not in SUPPORTED_D:
            raise UnsupportedFieldError(
                f"d={d} is not 0 or a class-number-one value "
                f"{SUPPORTED_D[1:]}")
        self.d = d
        self.is_rational = d == 0
        if d == 0:
            self.t, self.n = 0, 0
            self.discriminant = 1
        elif d % 4 == 3:
            self.t, self.n = 1, (1 + d) // 4
            self.discriminant = -d
        else:
            self.t, self.n = 0, d
            self.discriminant = -4 * d
        self.zero = FieldElem(self, 0, 0, 1)
        self.one = FieldElem(self, 1, 0, 1)
        if d == 0:
            self.omega = self.zero
            self.delta = self.one
            self.units = (self.one, -self.one)
        else:
            self.omega = FieldElem(self, 0, 1, 1)
            self.delta = FieldElem(self, -self.t, 2, 1)
            if d == 1:
                coords = [(1, 0), (-1, 0), (0, 1), (0, -1)]
            elif d == 3:
                coords = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
            else:
                coords = [(1, 0), (-1, 0)]
            self.units = tuple(FieldElem(self, a, b, 1) for a, b in coords)

    def elem(self, c0, c1=0) -> FieldElem:
        """The element c0 + c1*omega for integer or rational c0, c1."""
        if isinstance(c0, int) and isinstance(c1, int):
            return FieldElem(self, c0, c1, 1)
        c0, c1 = Fraction(c0), Fraction(c1)
        q = lcm(c0.denominator, c1.denominator)
        return FieldElem(self, c0.numerator * (q // c0.denominator),
                         c1.numerator * (q // c1.denominator), q)

    @property
    def tag(self) -> str:
        return "Q" if self.d == 0 else f"d{self.d}"

    def __repr__(self):
        return f"FieldCtx({self.tag})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.d == self.d

    def __hash__(self):
        return hash(("FieldCtx", self.d))


@lru_cache(maxsize=None)
def make_ctx(d: int) -> FieldCtx:
    return FieldCtx(d)


def ctx_from_tag(tag: str) -> FieldCtx:
    """Resolve a field tag: 'Q' (or 'q', 'd0') or 'd<k>'."""
    s = tag.strip()
    if s.lower() in ("q", "d0", "0"):
        return make_ctx(0)
    if s.startswith("d") and s[1:].isdigit():
        return make_ctx(int(s[1:]))
    if s.isdigit():
        return make_ctx(int(s))
    raise UnsupportedFieldError(f"cannot parse field tag {tag!r}")


# ---------------------------------------------------------------------------
# field elements


class FieldElem:
    """An element (e0 + e1*omega)/q of K, stored as reduced integers.

    The constructor normalizes to q >= 1 and gcd(e0, e1, q) = 1, with
    e1 = 0 on Q, so equal elements have equal triples (Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138, 4.2).  c0 and c1 are
    the rational coordinates, for formatting and value ordering.
    """

    __slots__ = ("ctx", "e0", "e1", "q")

    def __init__(self, ctx: FieldCtx, e0: int, e1: int, q: int):
        if q != 1:
            if q <= 0:
                if not q:
                    raise ZeroDivisionError("zero denominator")
                e0, e1, q = -e0, -e1, -q
            g = _int_gcd(e0, e1, q)
            if g != 1:
                e0 //= g
                e1 //= g
                q //= g
        if e1 and ctx.is_rational:
            raise ValueError("rational field has no omega component")
        self.ctx = ctx
        self.e0 = e0
        self.e1 = e1
        self.q = q

    @property
    def c0(self) -> Fraction:
        return Fraction(self.e0, self.q)

    @property
    def c1(self) -> Fraction:
        return Fraction(self.e1, self.q)

    # -- basic ring structure

    def _coerce(self, other) -> "FieldElem | None":
        if type(other) is FieldElem and other.ctx is self.ctx:
            return other
        if isinstance(other, FieldElem):
            if other.ctx.d != self.ctx.d:
                raise ValueError("elements from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.elem(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q = self.q, o.q
        return FieldElem(self.ctx, self.e0 * q + o.e0 * p,
                         self.e1 * q + o.e1 * p, p * q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q = self.q, o.q
        return FieldElem(self.ctx, self.e0 * q - o.e0 * p,
                         self.e1 * q - o.e1 * p, p * q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElem(self.ctx, -self.e0, -self.e1, self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        a0, a1, b0, b1 = self.e0, self.e1, o.e0, o.e1
        cross = a1 * b1
        return FieldElem(ctx, a0 * b0 - ctx.n * cross,
                         a0 * b1 + a1 * b0 + ctx.t * cross, self.q * o.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero field element")
        # x/y = x*conj(y)/N(y), and N(y) = N(b0 + b1*omega)/q^2
        ctx = self.ctx
        t, n = ctx.t, ctx.n
        a0, a1, b0, b1 = self.e0, self.e1, o.e0, o.e1
        c0 = b0 + t * b1
        cross = a1 * b1
        return FieldElem(ctx, (a0 * c0 + n * cross) * o.q,
                         (a1 * c0 - a0 * b1 - t * cross) * o.q,
                         self.q * (b0 * b0 + t * b0 * b1 + n * b1 * b1))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return (self.e0 == other.e0 and self.e1 == other.e1
                    and self.q == other.q and self.ctx.d == other.ctx.d)
        if isinstance(other, int):
            return self.q == 1 and not self.e1 and self.e0 == other
        if isinstance(other, Fraction):
            return (not self.e1 and self.e0 == other.numerator
                    and self.q == other.denominator)
        return NotImplemented

    def __hash__(self):
        e0, e1, q = self.e0, self.e1, self.q
        if e1:
            return hash((e0, e1, q))
        # a rational element hashes like the number it equals
        return hash(e0) if q == 1 else hash(Fraction(e0, q))

    # -- field-theoretic maps

    def conj(self) -> "FieldElem":
        """Complex conjugate (identity on Q)."""
        return FieldElem(self.ctx, self.e0 + self.ctx.t * self.e1, -self.e1,
                         self.q)

    def field_norm(self) -> Fraction:
        """N_{K/Q} as a signed rational (equals the element itself on Q)."""
        e0, e1, q = self.e0, self.e1, self.q
        if self.ctx.is_rational:
            return Fraction(e0, q)
        return Fraction(e0 * e0 + self.ctx.t * e0 * e1 + self.ctx.n * e1 * e1,
                        q * q)

    def norm(self) -> int | Fraction:
        """|N_{K/Q}|: the int |O/xO| for integral x, else a Fraction."""
        if self.q != 1:
            return abs(self.field_norm())
        ctx, e0, e1 = self.ctx, self.e0, self.e1
        if ctx.is_rational:
            return abs(e0)
        return e0 * e0 + ctx.t * e0 * e1 + ctx.n * e1 * e1

    def trace(self) -> Fraction:
        if self.ctx.is_rational:
            return Fraction(self.e0, self.q)
        return Fraction(2 * self.e0 + self.ctx.t * self.e1, self.q)

    # -- predicates

    @property
    def is_zero(self) -> bool:
        return not self.e0 and not self.e1

    @property
    def is_integral(self) -> bool:
        return self.q == 1

    @property
    def is_unit(self) -> bool:
        if self.q != 1:
            return False
        ctx, e0, e1 = self.ctx, self.e0, self.e1
        return (e0 * e0 + ctx.t * e0 * e1 + ctx.n * e1 * e1 == 1
                if e1 else e0 in (1, -1))

    def __repr__(self):
        return f"<{format_element(self)} ({self.ctx.tag})>"


# ---------------------------------------------------------------------------
# text syntax: "p/q + r/s*w"


def format_element(x: FieldElem) -> str:
    c0, c1 = x.c0, x.c1
    if c1 == 0:
        return str(c0)
    w = "w" if abs(c1) == 1 else f"{abs(c1)}*w"
    if c0 == 0:
        return "-" + w if c1 < 0 else w
    return f"{c0} {'-' if c1 < 0 else '+'} {w}"


def parse_element(text: str, ctx: FieldCtx) -> FieldElem:
    """Parse "p/q + r/s*w" (either part optional, signs allowed)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element")
    # split into signed terms
    terms: list[str] = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    c0 = Fraction(0)
    c1 = Fraction(0)
    for term in terms:
        if not term or term in "+-":
            raise ValueError(f"bad element syntax {text!r}")
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        try:
            if term.endswith("w"):
                body = term[:-1].rstrip("*")
                c1 += sign * (Fraction(body) if body else 1)
            else:
                c0 += sign * Fraction(term)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    if ctx.is_rational and c1:
        raise ValueError(f"{text!r} has an omega part but the field is Q")
    return ctx.elem(c0, c1)


# ---------------------------------------------------------------------------
# canonical generators


def _assoc_key(x: FieldElem):
    # associates share q, so their numerators order them by value
    e0, e1 = x.e0, x.e1
    if e0 > 0:
        rank = 0
    elif e0 == 0 and e1 > 0:
        rank = 1
    else:
        rank = 2
    return (rank, e0, abs(e1), e1)


@lru_cache(maxsize=None)
def canonical_generator(x: FieldElem) -> FieldElem:
    """The canonical representative of the associate class x*O^*.

    Deterministic: the associate minimizing a fixed sign-then-lex key.
    Sends every unit to 1 and fixes 0.
    """
    if x.is_zero:
        return x
    return min((u * x for u in x.ctx.units), key=_assoc_key)


def _ideal_key(g: FieldElem):
    """Order of canonical ideal generators: by norm, then by _assoc_key."""
    return (g.norm(), _assoc_key(g))


def divide_exact(x: FieldElem, y: FieldElem) -> FieldElem | None:
    """x/y if y divides x in O (inputs integral), else None."""
    if y.is_zero:
        return None
    q = x / y
    return q if q.is_integral else None


# ---------------------------------------------------------------------------
# residues and fractional ideal parts


def reduce_mod(x: FieldElem, a: FieldElem) -> FieldElem:
    """Deterministic representative of x modulo the lattice a*O.

    Works for any nonzero a and any x; maps O into O when a is integral.
    """
    if a.is_zero:
        raise ZeroDivisionError("reduction modulo the zero ideal")
    y = x / a
    q = y.q
    return a * FieldElem(a.ctx, y.e0 % q, y.e1 % q, q)


def residues(a: FieldElem) -> tuple[FieldElem, ...]:
    """A transversal of O/aO, of size exactly norm(a).

    For quadratic fields aO has the Hermite basis (A, B + C*omega) from
    _hermite, so {i + j*omega : 0 <= i < A, 0 <= j < C} reduced mod a is
    a transversal (Cohen, GTM 138, 2.4).
    """
    if not a.is_integral or a.is_zero:
        raise ValueError("residues require a nonzero integral element")
    ctx = a.ctx
    if ctx.is_rational:
        return tuple(ctx.elem(k) for k in range(a.norm()))
    h_a, _, h_c = _hermite((a, a * ctx.omega))
    return tuple(reduce_mod(ctx.elem(i, j), a)
                 for i in range(h_a) for j in range(h_c))


@lru_cache(maxsize=None)
def frac_ideal_parts(x: FieldElem) -> tuple[FieldElem, FieldElem]:
    """Coprime integral (num, den) with x*O = (num/den)*O, both canonical."""
    if x.is_zero:
        raise ValueError("zero has no fractional ideal decomposition")
    ctx = x.ctx
    if ctx.is_rational:
        return ctx.elem(abs(x.e0)), ctx.elem(x.q)
    # q is the common denominator, so q*x is integral; remove the common
    # factor of q*x and q
    qx = ctx.elem(x.e0, x.e1)
    q = ctx.elem(x.q)
    g = gcd_gen(qx, q)
    return canonical_generator(qx / g), canonical_generator(q / g)


# ---------------------------------------------------------------------------
# lattices and gcds


def _hermite(gens) -> tuple[int, int, int]:
    """The Hermite basis (A, B + C*omega) of the rank-2 lattice that the
    integral elements gens span, as (A, B, C) with A, C > 0 and 0 <= B < A.

    A*C is the index, the gcd of the 2x2 minors of the coordinate
    vectors; C comes from Euclid on the omega-coordinates, carrying the
    first coordinate along, and A = index / C.
    """
    vecs = [(g.e0, g.e1) for g in gens]
    index = _int_gcd(*(x1 * y2 - x2 * y1 for i, (x1, y1) in enumerate(vecs)
                       for x2, y2 in vecs[i + 1:]))
    if not index:
        raise ValueError("lattice has rank < 2")
    b, c = 0, 0
    for x, y in vecs:
        while y:
            k = c // y
            b, c, x, y = x, y, b - k * x, c - k * y
    if c < 0:
        b, c = -b, -c
    a = index // c
    return a, b % a, c


@lru_cache(maxsize=1 << 14)
def gcd_gen(a: FieldElem, b: FieldElem) -> FieldElem:
    """Canonical generator of the ideal aO + bO (inputs integral).

    The norm of aO + bO divides N(a) and N(b), so coprime norms give 1.
    Otherwise the ideal is the Z-lattice spanned by a, a*omega, b and
    b*omega.  It is principal, gO, and N(g*x) = N(g)*N(x), so its
    shortest nonzero vectors are the generators; Lagrange-Gauss reduction
    of its Hermite basis finds one (Cohen, GTM 138, 1.3).
    """
    if not (a.is_integral and b.is_integral):
        raise ValueError("gcd requires integral elements")
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return canonical_generator(b)
    if b.is_zero:
        return canonical_generator(a)
    ctx = a.ctx
    if ctx.is_rational:
        return ctx.elem(_int_gcd(a.e0, b.e0))
    if _int_gcd(a.norm(), b.norm()) == 1:
        return ctx.one
    h_a, h_b, h_c = _hermite((a, a * ctx.omega, b, b * ctx.omega))
    u, v = ctx.elem(h_a), ctx.elem(h_b, h_c)
    while True:
        # subtract from u the multiple of v nearest to its projection on v
        nv = v.norm()
        u -= round((u * v.conj()).trace() / (2 * nv)) * v
        if u.norm() >= nv:
            return canonical_generator(v)
        u, v = v, u


def is_coprime(a: FieldElem, b: FieldElem) -> bool:
    return gcd_gen(a, b).is_unit


# ---------------------------------------------------------------------------
# factorization into prime elements


def splitting_type(ctx: FieldCtx, p: int) -> str:
    """'split', 'inert' or 'ramified' for a rational prime p in a
    quadratic field; 'rational' when the field is Q."""
    if ctx.is_rational:
        return "rational"
    chi = kronecker_symbol(ctx.discriminant, p)
    return {1: "split", -1: "inert", 0: "ramified"}[chi]


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p, for a square a, by
    Tonelli-Shanks (Cohen, GTM 138, 1.5.1)."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, x = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


@lru_cache(maxsize=None)
def prime_elements_above(ctx: FieldCtx, p: int) -> tuple[FieldElem, ...]:
    """Canonical prime elements of O dividing the rational prime p.

    Above a split or ramified p the primes are pO + (omega - x)O for the
    roots x of X^2 - tX + n modulo p, the minimal polynomial of omega
    (Dedekind-Kummer; O = Z[omega]); gcd_gen gives their generators."""
    if ctx.is_rational:
        return (ctx.elem(p),)
    kind = splitting_type(ctx, p)
    if kind == "inert":
        return (ctx.elem(p),)
    t, n = ctx.t, ctx.n
    if p == 2:
        x = next(x for x in (0, 1) if (x * x - t * x + n) % 2 == 0)
    else:
        # x = (t + sqrt(D)) / 2 with D = t^2 - 4n the discriminant
        x = (t + _sqrt_mod(ctx.discriminant, p)) * pow(2, -1, p) % p
    gens = {gcd_gen(ctx.elem(p), ctx.omega - y) for y in (x, t - x)}
    assert len(gens) == (2 if kind == "split" else 1), (ctx, p)
    return tuple(sorted(gens, key=_assoc_key))


def factor(a: FieldElem) -> list[tuple[FieldElem, int]]:
    """Prime factorization of a nonzero integral element, as a list of
    (canonical prime generator, exponent) pairs sorted by _ideal_key.

    a equals a unit times the product of gen^exponent.
    """
    if a.is_zero or not a.is_integral:
        raise ValueError("factor requires a nonzero integral element")
    n = a.norm()
    if n == 1:
        return []
    out = []
    rest = a
    for p in sorted(factor_int(n)):
        for pi in prime_elements_above(a.ctx, p):
            e = 0
            while True:
                q = divide_exact(rest, pi)
                if q is None:
                    break
                rest = q
                e += 1
            if e:
                out.append((pi, e))
    assert rest.is_unit, "factorization left a non-unit cofactor"
    out.sort(key=lambda t: _ideal_key(t[0]))
    return out


# ---------------------------------------------------------------------------
# ideal enumeration


def _sector_rows(ctx: FieldCtx, bound: int) -> list[tuple[int, int, int]]:
    """One generator x + y*omega of every nonzero ideal of norm <= bound,
    as rows (y, lo, hi) of the points lo <= x <= hi.

    The points fill a fundamental sector of the unit rotation: x >= 1,
    y >= 0 for d in {1, 3}; otherwise y >= 1, or y = 0 and x >= 1.  As
    4*N = (2x + t*y)^2 + |D|*y^2, row y bounds |2x + t*y| by the isqrt
    of 4*bound - |D|*y^2.  Over Q it is the single row (0, 1, bound).
    """
    if ctx.is_rational:
        return [(0, 1, bound)] if bound >= 1 else []
    t, disc = ctx.t, -ctx.discriminant
    rows = []
    y = 0
    while (room := 4 * bound - disc * y * y) >= 0:
        s = isqrt(room)
        lo, hi = -((s + t * y) // 2), (s - t * y) // 2
        if y == 0 or len(ctx.units) > 2:
            lo = max(lo, 1)
        if lo <= hi:
            rows.append((y, lo, hi))
        y += 1
    return rows


def ideals_up_to(ctx: FieldCtx, bound: int) -> list[FieldElem]:
    """The canonical generators of all nonzero integral ideals of norm
    <= bound, sorted by _ideal_key: one per point of _sector_rows."""
    return sorted((canonical_generator(ctx.elem(x, y))
                   for y, lo, hi in _sector_rows(ctx, bound)
                   for x in range(lo, hi + 1)), key=_ideal_key)
