"""Modular arithmetic helpers for fast exact kernel solves.

Every point eigenvector extraction runs over F_p for primes p = 1 (mod 3),
where w maps to a cube root of unity g; the pair (a, b) of a value a + b*w
is recovered from the two embeddings w -> g and w -> g^2 and combined by
CRT across primes.  The matrices of a batch of primes, both embeddings of
each, are eliminated together as one stack by ``nullspace_mod_np``, in
lockstep while each member's pivots sit on the diagonal; a member that
leaves that shape is finished on its own by the same elimination.  A point
solve sizes its first batch from the one value it knows in advance, so it
usually needs a single stack.  Integral values are lifted by symmetric CRT
(the residue in (-M/2, M/2]), which needs only the bits of the values;
rational reconstruction, which needs about twice as many, is the fallback
for fractional ones.  Callers must verify the lifted result exactly; these
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


#: rows per band of the lockstep update
_BAND = 32


def nullspace_mod_np(stack, primes) -> list[list[list[int]]]:
    """Kernel bases over F_p of a stack of matrices, p < 2^30 (int64-safe).

    ``stack`` is an int64 numpy array of shape (B, R, C) whose member b is
    already reduced mod ``primes[b]``; it is consumed.  Returns B bases,
    each the reduced-row-echelon one: every vector has a 1 at its free
    column and 0 at every other free column.

    The members eliminate in lockstep, column by column, while each finds
    its pivot in the column's own row, which is the shape of a kernel of
    dimension one with a nonzero last coordinate.  Pivot swaps are made
    per member and the pivot inverses are one ``pow`` per member, so the
    per-column numpy work is paid once for the whole stack.  A member that
    finds no pivot before the last column leaves the lockstep and is
    finished on its own by ``_eliminate``, the same elimination for one
    matrix resumed from that column.

    Forward elimination touches only the rows below each pivot and the
    columns from the pivot onwards, and leaves the rows below unreduced
    for as many updates as int64 holds: each update subtracts a product
    of two residues, at most (p-1)^2 for the largest prime.
    Back-substitution then solves for the pivot coordinates of each basis
    vector.
    """
    import numpy as np

    nmem, nrows, ncols = stack.shape
    headroom = (1 << 63) // max(1, (max(primes, default=2) - 1) ** 2)
    pending = 0
    out: list = [None] * nmem
    ids = np.arange(nmem)
    mods = np.array(primes, dtype=np.int64).reshape(nmem, 1)
    c = 0

    def drop(gone, finish):
        # record finish(k) for the members in ``gone``; keep the rest
        nonlocal stack, mods, ids
        for k in gone.nonzero()[0]:
            out[ids[k]] = finish(k)
        keep = ~gone
        stack, mods, ids = stack[keep], mods[keep], ids[keep]
        return keep

    def alone(k):
        return _eliminate(stack[k], int(mods[k, 0]), c, pending)

    # lockstep: the pivot of column c sits in row c of every member left
    while c < min(nrows, ncols - 1) and ids.size:
        col = stack[:, c:, c] % mods
        hit = col != 0
        first = hit.argmax(axis=1)
        lost = ~hit[np.arange(ids.size), first]
        if lost.any():
            keep = drop(lost, alone)
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
        # out of lockstep members or out of rows before the last column
        drop(np.ones(ids.size, dtype=bool), alone)
        return out
    # the last column: a pivot there means full rank, none means the last
    # coordinate is the only free one
    full = (stack[:, c:, c] % mods).any(axis=1)
    if full.any():
        drop(full, lambda k: [])
    vec = np.zeros((ids.size, ncols), dtype=np.int64)
    vec[:, -1] = 1
    for r in range(ncols - 2, -1, -1):
        # pivot row r is normalized and reduced; it has zeros left of r
        vec[:, r] = -((vec[:, r + 1:] * stack[:, r, r + 1:]) % mods).sum(axis=1) % mods[:, 0]
    for b, v in zip(ids, vec.tolist()):
        out[b] = [v]
    return out


def _eliminate(rows, p: int, start: int, pending: int) -> list[list[int]]:
    """nullspace_mod_np for one matrix mod p, resumed at column ``start``.

    Rows and columns before ``start`` already hold normalized, reduced
    pivots on the diagonal; the rows below carry ``pending`` unreduced
    updates.  From ``start`` on, a column with no pivot is free.
    """
    import numpy as np

    nrows, ncols = rows.shape
    # pending updates that the rows below the pivot may carry unreduced
    headroom = (1 << 63) // max(1, (p - 1) ** 2)
    pivots = list(range(start))
    r = start
    for c in range(start, ncols):
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
