"""Modular arithmetic helpers for fast exact kernel solves.

Every point eigenvector extraction runs over F_p for primes p = 1 (mod 3),
where w maps to a cube root of unity g; the pair (a, b) of a value a + b*w
is recovered from the two embeddings w -> g and w -> g^2 and combined by
CRT across primes.  The matrices of a batch of primes, both embeddings of
each, are eliminated together as one stack by ``nullspace_mod_np``, in
lockstep: each member either has a kernel of one line with a nonzero last
coordinate, found with its pivots on the diagonal, or reports that it has
not.  A point solve sizes its first batch from the one value it knows in
advance, so it usually needs a single stack.  The values are integers in
Z[w], lifted by symmetric CRT (the residue in (-M/2, M/2]), which needs
only their bits.  Callers must verify the lifted result exactly; these
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


#: rows per band of the lockstep update
_BAND = 32


def nullspace_mod_np(stack, primes) -> list[list[list[int]]]:
    """Kernel lines over F_p of a stack of matrices, p < 2^30 (int64-safe).

    ``stack`` is an int64 numpy array of shape (B, R, C) whose member b is
    already reduced mod ``primes[b]``; it is consumed.  Returns B results,
    ``[v]`` with v[-1] = 1 when the member's kernel is one line with a
    nonzero last coordinate, and ``[]`` otherwise.

    That kernel is exactly the one whose elimination finds a pivot for
    each of columns 0 .. C-2 and none for the last, so the members
    eliminate in lockstep, column by column, with the pivot of column c
    swapped into row c.  Pivot swaps are made per member and the pivot
    inverses are one ``pow`` per member, so the per-column numpy work is
    paid once for the whole stack.  A member that finds no pivot in a
    column before the last has a kernel vector that is 0 in the last
    coordinate, and leaves with ``[]``; so does one with a pivot in the
    last column, which has full rank.

    Forward elimination touches only the rows below each pivot and the
    columns from the pivot onwards, and leaves the rows below unreduced
    for as many updates as int64 holds: each update subtracts a product
    of two residues, at most (p-1)^2 for the largest prime.
    Back-substitution then solves for the other coordinates of v.
    """
    import numpy as np

    nmem, nrows, ncols = stack.shape
    headroom = (1 << 63) // max(1, (max(primes, default=2) - 1) ** 2)
    pending = 0
    out: list = [[] for _ in range(nmem)]
    ids = np.arange(nmem)
    mods = np.array(primes, dtype=np.int64).reshape(nmem, 1)
    c = 0
    # lockstep: the pivot of column c sits in row c of every member left
    while c < min(nrows, ncols - 1) and ids.size:
        col = stack[:, c:, c] % mods
        hit = col != 0
        first = hit.argmax(axis=1)
        lost = ~hit[np.arange(ids.size), first]
        if lost.any():
            keep = ~lost
            stack, mods, ids = stack[keep], mods[keep], ids[keep]
            col, first = col[keep], first[keep]
        for k in first.nonzero()[0]:
            # a row swap for each member whose pivot is further down
            f = c + int(first[k])
            stack[k, [c, f], c:] = stack[k, [f, c], c:]
            col[k, [0, f - c]] = col[k, [f - c, 0]]
        inv = [pow(x, -1, p) for x, p in zip(col[:, 0].tolist(), mods[:, 0].tolist())]
        stack[:, c, c:] = stack[:, c, c:] % mods * np.array(inv, dtype=np.int64)[:, None] % mods
        if pending == headroom:
            stack[:, c + 1:, c:] %= mods[:, :, None]
            pending = 0
        # the update in bands of rows keeps its temporary small
        pivot = stack[:, None, c, c:]
        for lo in range(c + 1, nrows, _BAND):
            stack[:, lo:lo + _BAND, c:] -= col[:, lo - c:lo - c + _BAND, None] * pivot
        pending += 1
        c += 1
    if c < ncols - 1:
        # out of rows before the last column: the kernel is larger
        return out
    # the last column: a pivot there means full rank, none means the last
    # coordinate is the only free one
    line = ~(stack[:, c:, c] % mods).any(axis=1)
    vec = np.zeros((ids.size, ncols), dtype=np.int64)
    vec[:, -1] = 1
    for r in range(ncols - 2, -1, -1):
        # pivot row r is normalized and reduced; it has zeros left of r
        vec[:, r] = -((vec[:, r + 1:] * stack[:, r, r + 1:]) % mods).sum(axis=1) % mods[:, 0]
    for b, v, ok in zip(ids.tolist(), vec.tolist(), line.tolist()):
        if ok:
            out[b] = [v]
    return out


def crt_lift(residues: list[int], m1: int, rs: list[int], m2: int) -> list[int]:
    """Combine x_k = residues[k] (mod m1), x_k = rs[k] (mod m2) for coprime
    moduli, with one inverse for every k; residues in [0, m1) give [0, m1*m2)."""
    inv = pow(m1 % m2, -1, m2)
    return [r1 + m1 * ((r2 - r1) * inv % m2) for r1, r2 in zip(residues, rs)]


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """crt_lift of one coordinate, for any r1.

    No production caller: kept only because perfbench/tracer.py resolves
    it by name; delete it when the tracer is retargeted to crt_lift.
    """
    return crt_lift([r1 % m1], m1, [r2], m2)[0], m1 * m2


def rational_reconstruct(r: int, m: int) -> Fraction | None:
    """The unique p/q with p = q*r (mod m), |p| <= B, 0 < q <= B, B^2 <= m/2.

    Returns None when no such fraction exists (more moduli are needed).
    No production caller: kept only because perfbench/tracer.py resolves
    it by name; delete it when the tracer is retargeted.
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
