"""Modular arithmetic helpers for fast exact kernel solves.

Every point eigenvector extraction runs over F_p for one prime p = 1
(mod 3), where w maps to a cube root of unity g, and is lifted p-adically.
The matrices of both embeddings w -> g and w -> g^2 are eliminated
together as one stack by ``nullspace_mod_np``, in lockstep: every member
has a kernel of one line with a nonzero last coordinate, found with its
pivots on the diagonal, or the elimination gives up.  It keeps its
multipliers and its row order, from which ``pivot_inverse`` builds the
inverse of the pivot rows without the last column, by recursive halving
with float64 block products, and ``inverse_apply`` solves each later
digit with it; every mod-p product there is exact.
Callers must verify the lifted result exactly; these routines only
propose candidates.

``crt_pair`` and ``rational_reconstruct`` have no production caller since
the point solve lifts p-adically; they stay for the benchmark's tracer,
which resolves them by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

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


def primes_one_mod_three(count: int, start: int):
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
#: bits per half of a residue in the exact products of inverse_apply and
#: _mulmod
_HALF_BITS = 15
_HALF_MASK = (1 << _HALF_BITS) - 1
#: the largest block that _lower_inverse inverts by its column sweep
_BLOCK = 32
#: inner width of one float64 product in _mulmod:
#: 256 * (2^30 - 1) * (2^15 - 1) < 2^53
_FLOAT_CHUNK = 256


class Elimination(NamedTuple):
    """What ``nullspace_mod_np`` finds in a stack where every member has a
    kernel line.

    ``lines[b]`` is member b's kernel vector mod p with last coordinate 1,
    an int64 array of shape (B, C).  ``rows[b, c]`` is the row of member
    b's input that ended in position c.  In its first C - 1 rows, factor b
    holds P A = L U in place: row c carries the inverse of pivot c on the
    diagonal and the normalized pivot row (U, unit upper triangular) to
    its right, and below the diagonal sit the multipliers that cleared
    each column (L, whose diagonal is the pivots).  pivot_inverse reads
    them.
    """

    lines: "np.ndarray"
    factors: "np.ndarray"
    rows: "np.ndarray"


def nullspace_mod_np(stack, p: int) -> Elimination | None:
    """Kernel lines over F_p of a stack of matrices, p < 2^30 (int64-safe),
    or None as soon as one member has none.

    ``stack`` is an int64 numpy array of shape (B, R, C), already reduced
    mod p; it is consumed, the returned factors being built in it.

    A member has a kernel of one line with a nonzero last coordinate
    exactly when its elimination finds a pivot for each of columns
    0 .. C-2 and none for the last, so the members eliminate in lockstep,
    column by column, with the pivot of column c swapped into row c.
    Pivot swaps are made per member (whole rows, so the multipliers
    already stored move with them) and the pivot inverses are one ``pow``
    per member, so the per-column numpy work is paid once for the whole
    stack.  A member that finds no pivot in a column before the last has
    a kernel vector that is 0 in the last coordinate, and one with a
    pivot in the last column has full rank: either ends the elimination.

    Forward elimination touches only the rows below each pivot and the
    columns after it, and leaves the rows below unreduced for as many
    updates as int64 holds: each update subtracts a product of two
    residues, at most (p-1)^2.  Back-substitution then solves for the
    other coordinates of v.
    """
    import numpy as np

    nmem, nrows, ncols = stack.shape
    if nrows < ncols - 1:
        return None
    headroom = (1 << 63) // max(1, (p - 1) ** 2)
    pending = 0
    rows = np.zeros((nmem, 1), dtype=np.int64) + np.arange(nrows)
    # lockstep: the pivot of column c sits in row c of every member
    for c in range(ncols - 1):
        col = stack[:, c:, c] % p
        heads = col[:, 0].tolist()
        if 0 in heads:
            hit = col != 0
            if not hit.any(axis=1).all():
                return None
            first = hit.argmax(axis=1)
            for k in first.nonzero()[0]:
                # a row swap for each member whose pivot is further down
                f = c + int(first[k])
                stack[k, [c, f]] = stack[k, [f, c]]
                rows[k, [c, f]] = rows[k, [f, c]]
                col[k, [0, f - c]] = col[k, [f - c, 0]]
            heads = col[:, 0].tolist()
        inv = np.array([pow(x, -1, p) for x in heads], dtype=np.int64)
        pivot = stack[:, c, c + 1:] % p * inv[:, None] % p
        stack[:, c, c + 1:] = pivot
        stack[:, c, c] = inv
        stack[:, c + 1:, c] = col[:, 1:]
        if pending == headroom:
            stack[:, c + 1:, c + 1:] %= p
            pending = 0
        # the update in bands of rows keeps its temporary small
        for lo in range(c + 1, nrows, _BAND):
            stack[:, lo:lo + _BAND, c + 1:] -= col[:, lo - c:lo - c + _BAND, None] * pivot[:, None]
        pending += 1
    # the last column: a pivot there means full rank, none means the last
    # coordinate is the only free one
    if (stack[:, ncols - 1:, -1] % p).any():
        return None
    # back-substitution, column by column: the pivot rows are normalized
    # and reduced right of their diagonal, and the rows above a solved
    # coordinate stay unreduced for as many updates as int64 holds
    vec = np.ones((nmem, ncols), dtype=np.int64)
    vec[:, :-1] = -stack[:, :ncols - 1, -1]
    for r in range(ncols - 2, -1, -1):
        vec[:, r] %= p
        if r and (ncols - 2 - r) % headroom == headroom - 1:
            vec[:, :r] %= p
        vec[:, :r] -= stack[:, :r, r] * vec[:, r, None]
    return Elimination(vec, stack, rows)


def _check_exact(m: int, p: int) -> None:
    """Raise ValueError unless inverse_apply with a pivot-row inverse of m
    columns is exact in int64 at p: below 2^30, so a product of two
    residues is below 2^60 and a residue splits into two 15-bit halves,
    and m products of a residue and a half below 2^63.  _mulmod, which
    builds that inverse, has its own check of its float64 bound.
    """
    if p >= 1 << 2 * _HALF_BITS or m * (p - 1) << _HALF_BITS >= 1 << 63:
        raise ValueError(f"{m} columns at p = {p} are too many for exact int64 products")


def _unit_lower_inverse(strict, p: int):
    """The inverses mod p of unit lower triangular matrices I + N, given
    the strictly lower part of ``strict`` (G, m, m) as N, with residues in
    [0, p): the base case of _lower_inverse, for blocks of at most _BLOCK
    columns.

    Row c of the inverse is e_c - sum_{j<c} N[c, j] (row j); once it is
    known, its products with column c of N are taken off the rows below
    it, which stay unreduced for as many updates as int64 holds, as in
    nullspace_mod_np.
    """
    import numpy as np

    g, m, _ = strict.shape
    headroom = (1 << 63) // max(1, (p - 1) ** 2)
    inv = np.zeros((g, m, m), dtype=np.int64)
    inv.reshape(g, -1)[:, ::m + 1] = 1
    for c in range(m - 1):
        row = inv[:, c, :c + 1]
        np.remainder(row, p, out=row)
        if c and c % headroom == 0:
            inv[:, c + 1:, :c + 1] %= p
        inv[:, c + 1:, :c + 1] -= strict[:, c + 1:, c, None] * row[:, None]
    inv[:, m - 1] %= p
    return inv


def _mulmod(x, y, p: int):
    """x @ y mod p for stacks of int64 residues, x in [0, p) and y in
    [0, p], exactly, through float64 products: y splits into 15-bit
    halves side by side, and the inner dimension is summed _FLOAT_CHUNK
    terms at a time, so every partial sum is an integer below 2^53.  A
    prime of 2^30 or more, whose residues do not split into two halves,
    raises ValueError.
    """
    import numpy as np

    if p >= 1 << 2 * _HALF_BITS or _FLOAT_CHUNK * (p - 1) * _HALF_MASK >= 1 << 53:
        raise ValueError(f"p = {p} is too large for exact float64 products")
    inner, cols = y.shape[-2:]
    halves = np.empty(y.shape[:-1] + (2 * cols,), dtype=np.float64)
    np.right_shift(y, _HALF_BITS, out=halves[..., :cols], casting="unsafe")
    np.bitwise_and(y, _HALF_MASK, out=halves[..., cols:], casting="unsafe")
    xf = x.astype(np.float64)
    acc = None
    for lo in range(0, inner, _FLOAT_CHUNK):
        part = (xf[..., lo:lo + _FLOAT_CHUNK] @ halves[..., lo:lo + _FLOAT_CHUNK, :]).astype(np.int64)
        np.remainder(part, p, out=part)
        if acc is None:
            acc = part
        else:
            acc += part
    high = acc[..., :cols]
    high %= p
    high <<= _HALF_BITS
    high += acc[..., cols:]
    high %= p
    return high


def _lower_inverse(x, p: int) -> None:
    """Replace the stack ``x`` (G, m, m) of unit lower triangular matrices
    I + N mod p, given by their strictly lower parts as residues in
    [0, p), by their inverses, halving recursively:

        [[A, 0], [B, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} B A^{-1}, D^{-1}]].

    Blocks of at most _BLOCK columns are inverted by the column sweep of
    _unit_lower_inverse, and the two products of each larger block by
    _mulmod, which raises ValueError for a prime of 2^30 or more.
    """
    import numpy as np

    m = x.shape[1]
    if m <= _BLOCK:
        x[...] = _unit_lower_inverse(x, p)
        return
    # ceil(m / _BLOCK) leaves of near-equal size, half of them on each side
    blocks = -(-m // _BLOCK)
    h = m * (blocks // 2) // blocks
    _lower_inverse(x[:, :h, :h], p)
    _lower_inverse(x[:, h:, h:], p)
    low = x[:, h:, :h]
    # p - (B A^{-1} mod p) is -B A^{-1} mod p, in [1, p]
    np.subtract(p, _mulmod(low, x[:, :h, :h], p), out=low)
    low[...] = _mulmod(x[:, h:, h:], low, p)
    x[:, :h, h:] = 0


def pivot_inverse(factors, p: int):
    """For each member of ``Elimination.factors``, the inverse mod p of
    its pivot rows without the last column, the (C-1) x (C-1) matrix
    A_P = L U, kept as its factors: an array of shape (2, B, C-1, C-1)
    holding L^{-1} and U^{-1}, so A_P^{-1} = U^{-1} L^{-1}.

    L = (I + N) D, where N is the multipliers scaled by the pivot
    inverses D^{-1} on the diagonal; so L^{-1} = D^{-1} (I + N)^{-1}.
    (I + N)^{-1} and the transpose of U^{-1} are inverted as one batch of
    unit lower triangular matrices by _lower_inverse, blocks of halving
    size whose products are exact float64 products.  A prime of 2^30 or
    more, or too many columns for inverse_apply, raise ValueError
    (_check_exact).
    """
    import numpy as np

    b, cn = len(factors), factors.shape[2]
    m = cn - 1
    _check_exact(m, p)
    lu = factors[:, :m, :m]
    # the pivot inverses, on the diagonal
    dinv = factors.reshape(b, -1)[:, :m * (cn + 1):cn + 1]
    # _lower_inverse reads only the strictly lower parts: those of N and
    # of U transposed
    inverse = np.empty((2, b, m, m), dtype=np.int64)
    np.multiply(lu, dinv[:, None], out=inverse[0])
    inverse[0] %= p
    inverse[1] = lu.transpose(0, 2, 1)
    _lower_inverse(inverse.reshape(2 * b, m, m), p)
    np.multiply(inverse[0], dinv[:, :, None], out=inverse[0])
    np.remainder(inverse[0], p, out=inverse[0])
    inverse[1] = inverse[1].transpose(0, 2, 1).copy()
    return inverse


def inverse_apply(inverse, vecs, p: int):
    """A_P^{-1} vecs[b] mod p for the pivot_inverse ``inverse`` and
    residues ``vecs`` of shape (B, C-1) in [0, p): U^{-1} (L^{-1} vecs).

    Each product is exact: the vector splits into 15-bit halves, so one
    int64 matmul sums C - 1 products below p * 2^15, and where they could
    pass 2^63 this raises ValueError (_check_exact).
    """
    import numpy as np

    _check_exact(inverse.shape[-1], p)
    for factor in inverse:
        halves = np.empty(vecs.shape + (2,), dtype=np.int64)
        np.right_shift(vecs, _HALF_BITS, out=halves[..., 0])
        np.bitwise_and(vecs, _HALF_MASK, out=halves[..., 1])
        prod = factor @ halves
        vecs = ((prod[..., 0] % p << _HALF_BITS) + prod[..., 1]) % p
    return vecs


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """The x in [0, m1*m2) with x = r1 (mod m1) and x = r2 (mod m2), for
    coprime moduli, and m1*m2.

    No production caller: kept only because perfbench/tracer.py resolves
    it by name.
    """
    r1 %= m1
    return r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2), m1 * m2


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
