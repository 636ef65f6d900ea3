"""Modular arithmetic helpers for fast exact kernel solves.

Every point eigenvector extraction runs over F_p for primes p = 1 (mod 3),
where w maps to a cube root of unity g; the pair (a, b) of a value a + b*w
is recovered from the two embeddings w -> g and w -> g^2 and combined by
CRT across primes.  Integral values are lifted by symmetric CRT (the residue in
(-M/2, M/2]), which needs only the bits of the values; rational
reconstruction, which needs about twice as many, is the fallback for
fractional ones.  Callers must verify the lifted result exactly; these
routines only propose candidates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_one_mod_three(count: int, start: int = (1 << 59) + 1):
    """The first `count` primes p >= start with p = 1 (mod 3)."""
    out = []
    p = start + (1 - start) % 3
    if p % 2 == 0:
        p += 3
    while len(out) < count:
        if is_prime(p):
            out.append(p)
        p += 6 if p % 6 == 1 else 3
        p += (1 - p) % 3
    return out


_CACHED_PRIMES: dict[int, list[tuple[int, int]]] = {}


def cached_primes(count: int, start: int) -> list[tuple[int, int]]:
    """The first `count` primes p = 1 (mod 3) from `start`, with a cube
    root of unity for each; memoized so repeated solves skip the sieve."""
    lst = _CACHED_PRIMES.setdefault(start, [])
    p = lst[-1][0] + 1 if lst else start
    while len(lst) < count:
        (p,) = primes_one_mod_three(1, p)
        lst.append((p, cube_root_mod(p)))
        p += 1
    return lst[:count]


def cube_root_mod(p: int) -> int:
    """A primitive cube root of unity g mod p (p = 1 mod 3)."""
    for a in range(2, 1000):
        g = pow(a, (p - 1) // 3, p)
        if g != 1:
            if (g * g + g + 1) % p:
                raise ArithmeticError(f"bad cube root mod {p}")
            return g
    raise ArithmeticError(f"no cube root found mod {p}")


def fraction_mod(x: Fraction | int, p: int) -> int:
    if isinstance(x, int):
        return x % p
    den = x.denominator % p
    if den == 0:
        raise ZeroDivisionError(f"denominator divisible by {p}")
    return x.numerator % p * pow(den, p - 2, p) % p


def nullspace_mod_np(rows, p: int) -> list[list[int]]:
    """Vectorized kernel basis over F_p for p < 2^30 (int64-safe).

    ``rows`` is an int64 numpy array with entries already reduced mod p;
    it is consumed.  The basis is the reduced-row-echelon one: each vector
    has a 1 at its free column and 0 at every other free column.

    Forward elimination touches only the rows below each pivot and the
    columns from the pivot onwards, and leaves the rows below unreduced
    for as many updates as int64 holds: each update subtracts a product
    of two residues, at most (p-1)^2.  Back-substitution then solves for
    the pivot coordinates of each basis vector.
    """
    import numpy as np

    nrows, ncols = rows.shape
    # pending updates that the rows below the pivot may carry unreduced
    headroom = (1 << 63) // max(1, (p - 1) ** 2)
    pending = 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = rows[r:, c] % p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            rows[[r, pr], c:] = rows[[pr, r], c:]
            col[[0, nz[0]]] = col[[nz[0], 0]]
        rows[r, c:] = rows[r, c:] % p * pow(int(col[0]), -1, p) % p
        if nz.size > 1:
            if pending == headroom:
                rows[r + 1:, c:] %= p
                pending = 0
            rows[r + 1:, c:] -= col[1:, None] * rows[r, c:]
            pending += 1
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    for rr in range(len(pivots) - 1, -1, -1):
        pc = pivots[rr]
        # pivot row rr is normalized and reduced; it has zeros left of pc
        basis[:, pc] = -((basis[:, pc + 1:] * rows[rr, pc + 1:]) % p).sum(axis=1) % p
    return basis.tolist()


def crt_lift(residues: list[int], m1: int, rs: list[int], m2: int) -> list[int]:
    """Combine x_k = residues[k] (mod m1), x_k = rs[k] (mod m2) for coprime
    moduli, with one inverse for every k; residues in [0, m1) give [0, m1*m2)."""
    inv = pow(m1 % m2, -1, m2)
    return [r1 + m1 * ((r2 - r1) * inv % m2) for r1, r2 in zip(residues, rs)]


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """crt_lift of one coordinate, for any r1."""
    return crt_lift([r1 % m1], m1, [r2], m2)[0], m1 * m2


def rational_reconstruct(r: int, m: int) -> Fraction | None:
    """The unique p/q with p = q*r (mod m), |p| <= B, 0 < q <= B, B^2 <= m/2.

    Returns None when no such fraction exists (more moduli are needed).
    """
    bound = isqrt(m // 2)
    a, b = m, r % m
    pa, pb = 0, 1
    while b > bound:
        quo = a // b
        a, b = b, a - quo * b
        pa, pb = pb, pa - quo * pb
    if pb == 0 or abs(pb) > bound or gcd(b, abs(pb)) != 1 or gcd(abs(pb), m) != 1:
        return None
    return Fraction(b, pb) if pb > 0 else Fraction(-b, -pb)
