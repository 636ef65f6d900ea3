"""Modular arithmetic helpers for fast exact kernel solves.

Every point eigenvector extraction runs over F_p for one prime p = 1
(mod 3), where w maps to a cube root of unity g, and is lifted p-adically.
The matrices of both embeddings w -> g and w -> g^2 are eliminated
together as one stack by ``nullspace_mod_np``, in lockstep: every member
has a kernel of one line with a nonzero last coordinate, found with its
pivots on the diagonal, or the elimination gives up.  It is a blocked
LU: column steps within panels of at most 30 columns, and after each
panel one exact float64 product (``_mulmod``) for the block below and
right of it.  From its multipliers ``pivot_inverse`` builds the inverse
of the pivot rows without the last column, by recursive halving with the
same products: the one triangular solve, which gives the kernel line and,
through ``inverse_apply``, each later digit of the lift.  Every mod-p
product is exact for p below 2^30, the one bound that ``_check_prime``
enforces.  Whole arrays are reduced by ``reduce_mod``, the floor division
form of numpy's %.
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


_CACHED_PRIMES: dict[int, list[tuple[int, int]]] = {}


def cached_primes(count: int, start: int) -> list[tuple[int, int]]:
    """The first `count` primes p >= start with p = 1 (mod 3), with a
    cube root of unity for each; memoized so repeated solves skip the
    search.  Such primes are odd, so they are the primes p = 1 (mod 6)."""
    lst = _CACHED_PRIMES.setdefault(start, [])
    p = lst[-1][0] + 6 if lst else start + (1 - start) % 6
    while len(lst) < count:
        if is_prime(p):
            lst.append((p, cube_root_mod(p)))
        p += 6
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


#: bits per limb of tmatrix.kernel_matrix_limbs: a sum of 2^{2n} limbs
#: below 2^30 in absolute value stays inside int64 for every n <= 16
LIMB_BITS = 30
#: bits per digit, half a limb: a residue splits into two digits in
#: _mulmod, and limb k of tmatrix.limbs_vanish's matrix lands on digit 2k
#: of its image
DIGIT_BITS = LIMB_BITS // 2
#: columns per panel of nullspace_mod_np, at most
_PANEL = 30
#: the largest block that _lower_inverse inverts by its column sweep
_BLOCK = 32
#: inner width of one float64 product in _mulmod:
#: 256 * (2^30 - 1) * (2^15 - 1) < 2^53
_FLOAT_CHUNK = 256


def _check_prime(p: int) -> None:
    """Raise ValueError for a prime of 2^30 or more, whose residues do not
    split into two DIGIT_BITS-bit digits: the one bound on p of every
    exact product here."""
    if p >= 1 << 2 * DIGIT_BITS:
        raise ValueError(f"p = {p} is too large for exact float64 products")


def _headroom(p: int) -> int:
    """How many products of two residues mod p, each at most (p-1)^2,
    int64 holds."""
    return (1 << 63) // max(1, (p - 1) ** 2)


class Elimination(NamedTuple):
    """What ``nullspace_mod_np`` finds in a stack where every member has a
    kernel line.

    ``lines[b]`` is member b's kernel vector mod p with last coordinate 1,
    an int64 array of shape (B, C).  ``rows[b, c]`` is the row of member
    b's input that ended in position c.  In its first C - 1 rows, factor b
    holds P A = L U in place: row c carries the inverse of pivot c on the
    diagonal and the normalized pivot row (U, unit upper triangular) to
    its right, and below the diagonal sit the multipliers that cleared
    each column (L, whose diagonal is the pivots).  Below row C - 2 the
    last column holds what elimination left of it: zero mod p, but not
    reduced.  ``inverse`` is pivot_inverse of the factors.
    """

    lines: "np.ndarray"
    factors: "np.ndarray"
    rows: "np.ndarray"
    inverse: "np.ndarray"


def nullspace_mod_np(stack, p: int) -> Elimination | None:
    """Kernel lines over F_p of a stack of matrices, p < 2^30, or None as
    soon as one member has none; a prime of 2^30 or more raises
    ValueError, whatever the size.

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

    The columns are eliminated in panels of w columns (a blocked LU): w
    is _PANEL, or fewer where int64 could not hold w products of two
    residues, each at most (p-1)^2, on top of a residue.  Within a panel
    each column step updates only the panel's own columns, which start
    the panel reduced; the pivot row's part right of the panel first
    takes the panel's earlier columns off in one int64 product.  After
    the panel the block below it and to its right takes L21 U12 off at
    once, by the exact float64 product _mulmod, and is reduced.  The last
    panel runs to the last column, so an elimination of at most w + 1
    columns is the plain column sweep.  The pivot rows then read
    U x + u = 0 for v = (x, 1), u their reduced last column, so x =
    U^{-1} (p - u): one _mulmod with the U^{-1} of pivot_inverse, which
    the result keeps for the lift.  At C = 1 there are no pivot rows.
    """
    import numpy as np

    _check_prime(p)
    nmem, nrows, ncols = stack.shape
    if nrows < ncols - 1:
        return None
    width = min(_PANEL, _headroom(p) - 1)
    rows = np.zeros((nmem, 1), dtype=np.int64) + np.arange(nrows)
    for lo in range(0, ncols - 1, width):
        hi = min(lo + width, ncols - 1)
        end = hi if hi < ncols - 1 else ncols
        # lockstep: the pivot of column c sits in row c of every member
        for c in range(lo, hi):
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
            if c > lo and end < ncols:
                # fewer than headroom products, each below (p-1)^2
                stack[:, c, end:] -= (stack[:, c, None, lo:c] @ stack[:, lo:c, end:])[:, 0]
            pivot = stack[:, c, c + 1:] % p * inv[:, None] % p
            stack[:, c, c + 1:] = pivot
            stack[:, c, c] = inv
            stack[:, c + 1:, c] = col[:, 1:]
            stack[:, c + 1:, c + 1:end] -= col[:, 1:, None] * pivot[:, None, :end - c - 1]
        if end < ncols:
            trail = stack[:, hi:, end:]
            trail -= _mulmod(stack[:, hi:, lo:hi], stack[:, lo:hi, end:], p)
            reduce_mod(trail, p)
    # the last column: a pivot there means full rank, none means the last
    # coordinate is the only free one
    if (stack[:, ncols - 1:, -1] % p).any():
        return None
    inverse = pivot_inverse(stack, p)
    vec = np.ones((nmem, ncols), dtype=np.int64)
    if ncols > 1:
        vec[:, :-1] = _mulmod(inverse[1], p - stack[:, :ncols - 1, -1:], p)[..., 0]
    return Elimination(vec, stack, rows, inverse)


def reduce_mod(x, p: int):
    """Reduce the int64 array x mod p in place, |x| <= 2^63 - p, and
    return it: the residues of numpy's % (in [0, p), negatives included),
    computed as x - (x // p) p.  numpy divides an array by a scalar
    through a precomputed multiplier (libdivide), so on a whole array the
    three passes take a fraction of the time of one %; on a slice of one
    column or row the extra passes do not pay, and those keep %.
    """
    import numpy as np

    q = np.floor_divide(x, p)
    q *= p
    x -= q
    return x


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
    headroom = _headroom(p)
    inv = np.zeros((g, m, m), dtype=np.int64)
    inv.reshape(g, -1)[:, ::m + 1] = 1
    for c in range(m):
        row = inv[:, c, :c + 1]
        np.remainder(row, p, out=row)
        if c and c % headroom == 0:
            inv[:, c + 1:, :c + 1] %= p
        inv[:, c + 1:, :c + 1] -= strict[:, c + 1:, c, None] * row[:, None]
    return inv


def _mulmod(x, y, p: int):
    """x @ y mod p for stacks of int64 residues, x in [0, p) and y in
    [0, p], exactly, through float64 products: y splits into two
    DIGIT_BITS-bit digits side by side, and the inner dimension is summed
    _FLOAT_CHUNK terms at a time, so every partial sum is an integer below
    2^53, whatever the inner width.  A prime of 2^30 or more raises
    ValueError (_check_prime).
    """
    import numpy as np

    _check_prime(p)
    inner, cols = y.shape[-2:]
    halves = np.empty(y.shape[:-1] + (2 * cols,), dtype=np.float64)
    np.right_shift(y, DIGIT_BITS, out=halves[..., :cols], casting="unsafe")
    np.bitwise_and(y, (1 << DIGIT_BITS) - 1, out=halves[..., cols:], casting="unsafe")
    xf = x.astype(np.float64)
    acc = None
    for lo in range(0, inner, _FLOAT_CHUNK):
        part = (xf[..., lo:lo + _FLOAT_CHUNK] @ halves[..., lo:lo + _FLOAT_CHUNK, :]).astype(np.int64)
        # the first chunk is left below 2^53, the later ones reduced, so
        # the high half reduced and shifted adds to the low half in int64
        if acc is None:
            acc = part
        else:
            acc += reduce_mod(part, p)
    high = reduce_mod(acc[..., :cols], p)
    high <<= DIGIT_BITS
    high += acc[..., cols:]
    return reduce_mod(high, p)


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
    more raises ValueError (_check_prime).
    """
    import numpy as np

    _check_prime(p)
    b, cn = len(factors), factors.shape[2]
    m = cn - 1
    lu = factors[:, :m, :m]
    # the pivot inverses, on the diagonal
    dinv = factors.reshape(b, -1)[:, :m * (cn + 1):cn + 1]
    # _lower_inverse reads only the strictly lower parts: those of N and
    # of U transposed
    inverse = np.empty((2, b, m, m), dtype=np.int64)
    np.multiply(lu, dinv[:, None], out=inverse[0])
    reduce_mod(inverse[0], p)
    inverse[1] = lu.transpose(0, 2, 1)
    _lower_inverse(inverse.reshape(2 * b, m, m), p)
    np.multiply(inverse[0], dinv[:, :, None], out=inverse[0])
    reduce_mod(inverse[0], p)
    inverse[1] = inverse[1].transpose(0, 2, 1).copy()
    return inverse


def inverse_apply(inverse, vecs, p: int):
    """A_P^{-1} vecs[b] mod p for the pivot_inverse ``inverse`` and
    residues ``vecs`` of shape (B, C-1) in [0, p): U^{-1} (L^{-1} vecs),
    each factor applied by the exact product _mulmod, which raises
    ValueError for a prime of 2^30 or more.
    """
    for factor in inverse:
        vecs = _mulmod(factor, vecs[..., None], p)[..., 0]
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
