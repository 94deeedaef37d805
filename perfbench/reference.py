"""Independent references for the benchmark's output checks.

Nothing here imports `hecke`.  Ring arithmetic is done on plain integer
coordinate pairs (x, y) standing for x + y*omega with omega^2 = t*omega - n,
the same basis the library uses; the zeta references come from mpmath's
Hurwitz zeta.
"""
from __future__ import annotations

from math import gcd, isqrt

FIELDS = (0, 1, 2, 3, 7, 11, 19, 43, 67, 163)


def omega_data(d: int) -> tuple[int, int]:
    """(t, n) with omega^2 = t*omega - n; (0, 0) on Q."""
    if d == 0:
        return 0, 0
    if d % 4 == 3:
        return 1, (1 + d) // 4
    return 0, d


def units(d: int) -> list[tuple[int, int]]:
    if d == 1:
        return [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if d == 3:
        return [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    return [(1, 0), (-1, 0)]


def mul(d: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    t, n = omega_data(d)
    return (a[0] * b[0] - n * a[1] * b[1],
            a[0] * b[1] + a[1] * b[0] + t * a[1] * b[1])


def norm(d: int, a: tuple[int, int]) -> int:
    if d == 0:
        return abs(a[0])
    t, n = omega_data(d)
    return a[0] * a[0] + t * a[0] * a[1] + n * a[1] * a[1]


def levels_up_to(d: int, bound: int) -> list[tuple[int, int]]:
    """One generator per nonzero ideal of norm <= bound: the least
    coordinate pair in its unit orbit."""
    if d == 0:
        return [(k, 0) for k in range(1, bound + 1)]
    box = 2 * isqrt(bound) + 2
    out = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if 1 <= norm(d, (x, y)) <= bound:
                out.add(min(mul(d, (x, y), u) for u in units(d)))
    return sorted(out, key=lambda c: (norm(d, c), c))


class Residues:
    """The ring O/cO for an integral c != 0, on integer coordinates."""

    def __init__(self, d: int, c: tuple[int, int]):
        self.d, self.c = d, c
        self.size = norm(d, c)
        if d == 0:
            self.reps = [(x, 0) for x in range(self.size)]
        else:
            seen = {}
            for x in range(self.size):
                for y in range(self.size):
                    seen.setdefault(self.key((x, y)), (x, y))
            self.reps = sorted(seen.values())
        if len(self.reps) != self.size:
            raise AssertionError(f"|O/cO| for c={c} in d={d} is "
                                 f"{len(self.reps)}, not the norm {self.size}")

    def key(self, p: tuple[int, int]) -> tuple[int, int]:
        """Coordinates of p in the lattice basis (c, c*omega), modulo 1,
        scaled by N(c): equal exactly when p agrees modulo cO."""
        if self.d == 0:
            return p[0] % self.size, 0
        t, n = omega_data(self.d)
        c0, c1, big = self.c[0], self.c[1], self.size
        return (((c0 + t * c1) * p[0] + n * c1 * p[1]) % big,
                (-c1 * p[0] + c0 * p[1]) % big)

    def is_unit(self, z: tuple[int, int]) -> bool:
        """z is invertible mod c when z*O + c*O is all of O, i.e. when the
        2x2 minors of z, z*omega, c, c*omega have gcd 1."""
        if self.d == 0:
            return gcd(z[0], self.c[0]) == 1
        vecs = [z, mul(self.d, z, (0, 1)), self.c, mul(self.d, self.c, (0, 1))]
        g = 0
        for i in range(4):
            for j in range(i + 1, 4):
                g = gcd(g, vecs[i][0] * vecs[j][1] - vecs[i][1] * vecs[j][0])
        return g == 1

    def unit_residues(self) -> list[tuple[int, int]]:
        return [z for z in self.reps if self.is_unit(z)]

    def unit_image_size(self) -> int:
        return len({self.key(u) for u in units(self.d)})

    def group_order(self) -> int:
        """|(O/cO)*| / |image of the global units|."""
        return len(self.unit_residues()) // self.unit_image_size()

    def group_reps(self) -> list[tuple[int, int]]:
        """One unit residue per coset of the global-unit image."""
        seen, reps = set(), []
        for z in self.unit_residues():
            if self.key(z) in seen:
                continue
            reps.append(z)
            seen |= {self.key(mul(self.d, z, u)) for u in units(self.d)}
        return reps


def discriminant(d: int) -> int:
    return -d if d % 4 == 3 else -4 * d


def kronecker(a: int, m: int) -> int:
    """The Kronecker symbol (a/m) for m >= 1."""
    result = 1
    while m % 2 == 0:
        m //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def zeta_reference(d: int, s: float) -> float:
    """zeta_K(s) = zeta(s) * L(s, chi_D), with
    L(s, chi_D) = |D|^(-s) * sum_a chi_D(a) * zeta(s, a/|D|)."""
    import mpmath

    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        value = mpmath.zeta(s)
        if d:
            q = abs(discriminant(d))
            lval = sum(kronecker(discriminant(d), a) * mpmath.zeta(s, mpmath.mpf(a) / q)
                       for a in range(1, q + 1))
            value *= lval / mpmath.mpf(q) ** s
        return float(value)


def values_match(got, want, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Compare parsed JSON by value: floats within tolerance, all else exact."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool):
            return False
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and abs(got - want) <= abs_tol + rel * abs(want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(values_match(got[k], want[k], rel, abs_tol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(values_match(g, w, rel, abs_tol) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want
