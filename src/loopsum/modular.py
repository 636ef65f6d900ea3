"""Modular arithmetic helpers for fast exact kernel solves.

Every point eigenvector extraction runs over F_p for one prime p = 1
(mod 3), where w maps to a cube root of unity g, and is lifted p-adically.
The matrices of both embeddings w -> g and w -> g^2 are eliminated
together as one stack by ``nullspace_mod_np``, in lockstep: every member
has a kernel of one line with a nonzero last coordinate, found with its
pivots on the diagonal, or the elimination gives up.  It is a blocked
Gauss-Jordan elimination in product form: column steps within panels of
at most 30 columns, and after each panel its eta matrix applied to the
columns right of it.  The columns it leaves behind are the eta columns
of the inverse of the pivot rows, so one sweep gives the kernel line,
with no triangular solve, and the inverse that ``inverse_apply``
applies to each later digit.  Both apply etas through ``_eta_apply``,
one int64 product per panel that ``_panel_width`` keeps exact, for p
below 2^30; no product here is float64.  Every product width here and
in ``tmatrix`` is read from one rule, ``_room``.  Whole arrays are
reduced by ``reduce_mod``, the floor division form of numpy's %.
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
#: bits per digit, half a limb: tmatrix.limbs_lift splits each balanced
#: base-p digit of the lift into two, and limb k of a matrix lands on
#: digit 2k of its image
DIGIT_BITS = LIMB_BITS // 2
#: columns per panel of nullspace_mod_np and inverse_apply, at most
_PANEL = 30


def _room(term: int, bits: int) -> int:
    """How many integers of absolute value at most ``term`` sum to at most
    2^bits in absolute value: exactly in float64 at bits = 53, and in
    int64 at bits = 63 when one of them is below ``term``, so int64
    callers take room - 1 terms on top of one residue or limb."""
    return (1 << bits) // max(1, term)


class Elimination(NamedTuple):
    """What ``nullspace_mod_np`` finds in a stack where every member has a
    kernel line.

    ``lines[b]`` is member b's kernel vector mod p with last coordinate 1,
    an int64 array of shape (B, C).  ``rows[b, c]`` is the row of member
    b's input that ended in position c.  ``inverse`` is the inverse mod p
    of each member's pivot rows without the last column, the (C-1) x (C-1)
    matrix A', in product form: a view (B, C-1, C-1) of the consumed
    stack whose columns are the eta columns of the Gauss-Jordan steps:
    A'^{-1} = E_K ... E_1, where E_k, the eta of panel k, is the identity
    with panel k's columns replaced by those of ``inverse``.
    ``inverse_apply`` applies it.
    """

    lines: "np.ndarray"
    rows: "np.ndarray"
    inverse: "np.ndarray"


def _panel_width(p: int) -> int:
    """Columns per panel of nullspace_mod_np and inverse_apply: _PANEL, or
    fewer where int64 could not hold that many products of two residues,
    each at most (p-1)^2, on top of a residue (_room).

    A prime of 2^30 or more raises ValueError, the one bound on p of the
    point solve: the lift's balanced base-p digits must stay below 2^29
    in absolute value, because tmatrix.limbs_lift splits each of them
    into two balanced DIGIT_BITS-bit halves."""
    if p >= 1 << 2 * DIGIT_BITS:
        raise ValueError(f"p = {p} is too large for two {DIGIT_BITS}-bit digits")
    return min(_PANEL, _room((p - 1) ** 2, 63) - 1)


def _eta_apply(cols, x, lo: int, p: int) -> None:
    """x <- E x mod p in place, for the eta matrix E that is the identity
    with columns lo .. lo + w - 1 replaced by ``cols`` (B, R, w), applied
    to the residues x (B, R, k) in [0, p): rows lo .. lo + w - 1 of x are
    saved and zeroed, and every row adds ``cols`` times the saved rows.
    With ``cols`` in [0, p) too and w at most _panel_width(p), that is w
    products of two residues on top of a residue, which int64 holds."""
    w = cols.shape[-1]
    saved = x[:, lo:lo + w].copy()
    x[:, lo:lo + w] = 0
    x += cols @ saved
    reduce_mod(x, p)


def nullspace_mod_np(stack, p: int) -> Elimination | None:
    """Kernel lines over F_p of a stack of matrices, p < 2^30, or None as
    soon as one member has none; a prime of 2^30 or more raises
    ValueError, whatever the size.

    ``stack`` is an int64 numpy array of shape (B, R, C), already reduced
    mod p; it is consumed, the returned inverse being built in it.

    A member has a kernel of one line with a nonzero last coordinate
    exactly when its elimination finds a pivot for each of columns
    0 .. C-2 and none for the last, so the members eliminate in lockstep,
    column by column, with the pivot of column c swapped into row c.
    Pivot swaps are made per member (whole rows, so the eta entries
    already stored move with them) and the pivot inverses are one ``pow``
    per member, so the per-column numpy work is paid once for the whole
    stack.  A member that finds no pivot in a column before the last has
    a kernel vector that is 0 in the last coordinate, and one with a
    pivot in the last column has full rank: either ends the elimination.

    It is a Gauss-Jordan elimination in product form, in panels of
    _panel_width(p) columns.  Column step c updates its panel's columns in
    every row, the rows above c included: the pivot row is scaled by the
    pivot's inverse, which is stored at (c, c), and every other row i
    takes a_ic times the pivot row off, with -a_ic/a_cc stored at (i, c),
    the eta column of step c.  The panel's columns start reduced and take
    one product of two residues per step, at most w in all on top of a
    residue, which int64 holds.  After the panel, reduced, its eta matrix
    is applied to the columns right of it, untouched so far (_eta_apply):
    its rows there are copied out and zeroed, and every row adds its
    panel columns times that copy, one int64 product, then is reduced.
    Columns left of a panel are never touched again, so they keep the
    eta columns.  The last panel runs to the last column, so an
    elimination of at most w + 1 columns is the plain column sweep, and
    afterwards the pivot rows' last column holds A'^{-1} u, for u the
    input's last column in pivot order: the kernel line is (-A'^{-1} u,
    1), with no triangular solve.  At C = 1 there are no pivot rows.
    """
    import numpy as np

    width = _panel_width(p)
    nmem, nrows, ncols = stack.shape
    if nrows < ncols - 1:
        return None
    m = ncols - 1
    rows = np.zeros((nmem, 1), dtype=np.int64) + np.arange(nrows)
    for lo in range(0, m, width):
        hi = min(lo + width, m)
        end = hi if hi < m else ncols
        for c in range(lo, hi):
            # lockstep: the pivot of column c sits in row c of every member
            col = stack[:, :, c] % p
            heads = col[:, c].tolist()
            if 0 in heads:
                hit = col[:, c:] != 0
                if not hit.any(axis=1).all():
                    return None
                first = hit.argmax(axis=1)
                for k in first.nonzero()[0]:
                    # a row swap for each member whose pivot is further down
                    f = c + int(first[k])
                    stack[k, [c, f]] = stack[k, [f, c]]
                    rows[k, [c, f]] = rows[k, [f, c]]
                    col[k, [c, f]] = col[k, [f, c]]
                heads = col[:, c].tolist()
            inv = np.array([pow(x, -1, p) for x in heads], dtype=np.int64)
            pivot = stack[:, c, lo:end] % p * inv[:, None] % p
            pivot[:, c - lo] = inv
            # column c of every other row becomes -a_ic inv; row c is the pivot
            col[:, c] = 0
            stack[:, :, c] = 0
            stack[:, :, lo:end] -= col[:, :, None] * pivot[:, None]
            stack[:, c, lo:end] = pivot
        reduce_mod(stack[:, :, lo:hi], p)
        if end < ncols:
            _eta_apply(stack[:, :, lo:hi], stack[:, :, end:], lo, p)
    # the last column: a pivot there means full rank, none means the last
    # coordinate is the only free one
    if (stack[:, m:, -1] % p).any():
        return None
    vec = np.ones((nmem, ncols), dtype=np.int64)
    vec[:, :-1] = -stack[:, :m, -1] % p
    return Elimination(vec, rows, stack[:, :m, :m])


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


def inverse_apply(inverse, vecs, p: int):
    """A'^{-1} vecs[b] mod p for the Elimination ``inverse`` (B, m, m) and
    residues ``vecs`` of shape (B, m) in [0, p): the panel etas E_1 ... E_K
    applied in order, each by _eta_apply, the same product as the
    elimination's updates.  A prime of 2^30 or more raises ValueError (_panel_width).
    """
    width = _panel_width(p)
    vecs = vecs.copy()
    for lo in range(0, vecs.shape[1], width):
        _eta_apply(inverse[:, :, lo:lo + width], vecs[..., None], lo, p)
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
