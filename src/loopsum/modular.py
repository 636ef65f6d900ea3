"""The exact point solve: the integer kernel vector of M = T - Lambda
over Z[w] with a given last coordinate, by p-adic lifting from one prime
(kernel_vector).  The other routines here only propose candidates: the
vector kernel_vector returns has passed the exact certificate, its last
coordinate as asked and M v = 0 against the limbs (limbs_vanish).

M arrives as tmatrix.kernel_matrix_limbs builds it, in balanced int64
limbs of LIMB_BITS bits (balanced_split, balanced_carry), and limbs_mod
reduces it mod a prime p = 1 (mod 3), where w maps to a cube root of
unity g.  The matrices of both embeddings w -> g and w -> g^2 are
eliminated together as one stack by nullspace_mod_np, in lockstep: every
member has a kernel of one line with a nonzero last coordinate, found
with its pivots on the diagonal, or the elimination gives up.  It is a
blocked Gauss-Jordan elimination in product form: column steps within
panels of at most 30 columns, and after each panel its eta matrix
applied to the columns right of it.  The columns it leaves behind are
the eta columns of the inverse of the pivot rows, so one sweep gives the
kernel line, digit 0 of the vector, with no triangular solve, and the
inverse that inverse_apply applies to each later digit (_lift).  Both
apply etas through _eta_apply, one int64 product per panel that
_panel_width keeps exact, for p below 2^30.  Whole arrays are reduced by
reduce_mod, the floor division form of numpy's %.  Every product width
is read from one rule, _room.  The one float64 product is _limbs_image,
M applied to a vector's balanced DIGIT_BITS-bit digits, which is exact
on integers; the lift's exact residuals (limbs_lift) and the certificate
both go through it.  Its image and the lift's residuals are int64
positions, row r worth sum_j pos[r, j] 2^(DIGIT_BITS j): limbs_lift long
divides them by p, _positions_mod reduces them and _positions_vanish,
one zero test, serves the stopping rule and the certificate.

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
#: bits per digit, half a limb: limbs_lift splits each balanced base-p
#: digit of the lift into two, and limb k of a matrix lands on digit 2k
#: of its image
DIGIT_BITS = LIMB_BITS // 2
#: columns per panel of nullspace_mod_np and inverse_apply, at most
_PANEL = 30
#: the first prime tried, just above 2^29: _panel_width bounds p below 2^30
_PRIME_START = (1 << 29) + 1
#: base-p digits lifted per kernel solve, about 29 bits each
_MAX_DIGITS = 64
#: primes tried per kernel solve, skipped ones included
_MAX_PRIMES = 128


def _room(term: int, bits: int) -> int:
    """How many integers of absolute value at most ``term`` sum to at most
    2^bits in absolute value: exactly in float64 at bits = 53, and in
    int64 at bits = 63 when one of them is below ``term``, so int64
    callers take room - 1 terms on top of one residue or limb."""
    return (1 << bits) // max(1, term)


class DegenerateKernelError(RuntimeError):
    """The kernel of T - Lambda is not one-dimensional at this (z, t)."""


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
    in absolute value, because limbs_lift splits each of them into two
    balanced DIGIT_BITS-bit halves."""
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
        # a copy, never a view (the whole stack can be one panel): row swaps go to both
        panel = stack[:, :, lo:end].copy()
        for c in range(lo, hi):
            # lockstep: the pivot of column c sits in row c of every member
            col = panel[:, :, c - lo] % p
            heads = col[:, c].tolist()
            if 0 in heads:
                hit = col[:, c:] != 0
                if not hit.any(axis=1).all():
                    return None
                first = hit.argmax(axis=1)
                for k in first.nonzero()[0]:
                    # a row swap for each member whose pivot is further down
                    f = c + int(first[k])
                    for x in (stack, panel, rows, col):
                        x[k, [c, f]] = x[k, [f, c]]
                heads = col[:, c].tolist()
            inv = np.array([pow(x, -1, p) for x in heads], dtype=np.int64)
            pivot = panel[:, c] % p * inv[:, None] % p
            pivot[:, c - lo] = inv
            # column c of every other row becomes -a_ic inv; row c is the pivot
            col[:, c] = 0
            panel[:, :, c - lo] = 0
            panel -= col[:, :, None] * pivot[:, None]
            panel[:, c] = pivot
        reduce_mod(panel[:, :, :hi - lo], p)
        stack[:, :, lo:end] = panel
        if end < ncols:
            _eta_apply(panel, stack[:, :, end:], lo, p)
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


def balanced_split(values: list[int], width: int = LIMB_BITS):
    """Integers as limbs in [-2^(width-1), 2^(width-1)), shape (limbs,
    len): value k is sum_j limbs[j, k] * 2^(width j).

    With h = 2^(width-1) added at every limb but the top one, the lower
    limbs are the unsigned width-bit digits of the sum less h, and the top
    limb is what is left above them.  Values below 2^59 are split in
    int64, larger ones as Python integers."""
    import numpy as np

    half = 1 << (width - 1)
    mask = (1 << width) - 1
    bits = max(map(abs, values), default=0).bit_length()
    # k balanced limbs hold every |x| < 2^(width k - 2)
    nlimbs = (bits + 1) // width + 1
    small = bits <= 59
    offset = sum(half << (width * k) for k in range(nlimbs - 1))
    shifts = np.array([width * k for k in range(nlimbs)], dtype=np.int64 if small else object)
    limbs = (np.array(values, dtype=np.int64 if small else object) + offset) >> shifts[:, None]
    limbs[:-1] = (limbs[:-1] & mask) - half
    return limbs.astype(np.int64)


def balanced_carry(raw) -> list:
    """The int64 limbs ``raw`` (value sum_k raw[k] 2^(30 k), |raw| < 2^62)
    as balanced limbs in [-2^29, 2^29): a list of len(raw) arrays, or more
    where the top carry needs them.  A value's balanced form with a given
    limb count is unique, however the value was split."""
    import numpy as np

    half = 1 << (LIMB_BITS - 1)
    limbs = []
    carry = np.zeros_like(raw[0])
    while len(limbs) < len(raw) or carry.any():
        k = len(limbs)
        x = raw[k] + carry if k < len(raw) else carry
        carry = (x + half) >> LIMB_BITS
        limbs.append(x - (carry << LIMB_BITS))
    return limbs


def _limbs_image(limbs, digits):
    """M (x + y w) for M in kernel_matrix_limbs form (int64, or the same
    limbs as float64) and a vector given by balanced DIGIT_BITS-bit
    digits: ``digits`` is int64 of shape (D, 2, C), digits[j, 0, k] and
    digits[j, 1, k] digit j of x[k] and of y[k], each at most 2^14 in
    absolute value.

    The digits meet M's limbs in one float64 matmul: a product of a limb
    and a digit is at most 2^29 * 2^14 in absolute value, so for C up to
    _room(2^43, 53) = 1024 columns every partial sum is an integer that
    float64 holds exactly; a wider M raises ValueError.  Limb k of M lands
    on digit 2k of the image: returns its 2C rows, the a parts and then the
    b parts, as int64 positions (2C, P), below 2^55 per limb landing on each.
    """
    import numpy as np

    _, nl, cn, _ = limbs.shape
    nd = len(digits)
    if cn > _room(1 << (LIMB_BITS - 1 + DIGIT_BITS - 1), 53):
        raise ValueError(f"{cn} columns are too many for an exact float64 matmul")
    # row k of vmat: the digits of x[k], then those of y[k]
    vmat = np.empty((cn, 2, nd))
    vmat[...] = digits.T
    prod = limbs.reshape(-1, cn).astype(np.float64, copy=False) @ vmat.reshape(cn, 2 * nd)
    # [part of M, limb of M, row, part of v, digit of v]
    p = prod.astype(np.int64).reshape(2, nl, cn, 2, nd)
    # (a + b w)(x + y w) = (a x - b y) + (a y + b x - b y) w, below 2^55
    by = p[1, :, :, 1]
    terms = np.empty((2, nl, cn, nd), dtype=np.int64)
    np.subtract(p[0, :, :, 0], by, out=terms[0])
    np.add(p[0, :, :, 1], p[1, :, :, 0], out=terms[1])
    terms[1] -= by
    image = np.zeros((2 * cn, 2 * nl + nd - 2), dtype=np.int64)
    for k in range(nl):
        image[:, 2 * k:2 * k + nd] += terms[:, k].reshape(2 * cn, nd)
    return image


def _positions_vanish(pos) -> bool:
    """True iff every row of the int64 positions ``pos``, below 2^62, is
    zero: from the lowest up, each position plus its carry in is a multiple
    of 2^DIGIT_BITS, the carry out, and nothing leaves the top: [-2^15, 1] is 0."""
    mask = (1 << DIGIT_BITS) - 1
    carry = 0
    for col in pos.T:
        col = col + carry
        if (col & mask).any():
            return False
        carry = col >> DIGIT_BITS
    return not carry.any()


def _positions_mod(pos, p: int):
    """The rows of the positions ``pos`` mod p by Horner's rule from the
    top, exact for positions below 2^62, as limbs_lift's quotients are."""
    acc = 0
    for col in pos.T[::-1]:
        acc = ((acc << DIGIT_BITS) + col) % p
    return acc


def limbs_vanish(limbs, xs: list[int], ys: list[int]) -> bool:
    """True iff M (x + y w) = 0, exactly, for M in kernel_matrix_limbs
    form (int64, or the same limbs as float64) and integer vectors x, y.

    x and y are split into balanced DIGIT_BITS-bit digits for
    _limbs_image, and every row of the image must be zero
    (_positions_vanish).  Limbs that are not balanced raise ValueError.
    """
    cn = limbs.shape[2]
    if limbs.size and max(-limbs.min(), limbs.max()) > 1 << (LIMB_BITS - 1):
        raise ValueError("matrix limbs are not balanced")
    digits = balanced_split(list(xs) + list(ys), DIGIT_BITS).reshape(-1, 2, cn)
    return _positions_vanish(_limbs_image(limbs, digits))


def limbs_lift(limbs, residual, digit, p: int):
    """One step of p-adic lifting against M in kernel_matrix_limbs form
    (int64, or the same limbs as float64): (residual - M x) / p, exactly,
    or None when p does not divide it.

    ``digit`` is the Z[w] vector x as int64 parts of shape (2, C), each
    below 2^29 in absolute value, so two balanced DIGIT_BITS-bit digits
    hold it (_limbs_image).  Residuals are int64 positions of 2C rows, a
    parts then b parts, as _limbs_image returns them; None stands for zero.
    The difference is long divided by p from the top position, exact for
    unnormalised positions.  int64 holds _room(2^55, 63) - 1 terms of at
    most 2^55 on top of one below it: an image position and the remainder
    carried down, below p 2^DIGIT_BITS, leave _room(2^55, 63) - 2 to a
    residual position; one outside that raises ValueError.  The lift's own
    residuals, quotients by p > 2^29, are below 2^28.
    """
    import numpy as np

    mask = (1 << DIGIT_BITS) - 1
    half = 1 << (DIGIT_BITS - 1)
    low = ((digit + half) & mask) - half
    image = _limbs_image(limbs, np.stack([low, (digit - low) >> DIGIT_BITS]))
    residual = image[:, :0] if residual is None else residual
    room = (_room(1 << 55, 63) - 2) << 55
    if residual.size and (residual.min() < -room or residual.max() > room):
        raise ValueError("residual positions outside the room of the long division")
    pos = np.zeros((len(image), max(image.shape[1], residual.shape[1])), dtype=np.int64)
    pos[:, :residual.shape[1]] = residual
    pos[:, :image.shape[1]] -= image
    rem = np.zeros(len(pos), dtype=np.int64)
    for j in reversed(range(pos.shape[1])):
        pos[:, j], rem = np.divmod((rem << DIGIT_BITS) + pos[:, j], p)
    return None if rem.any() else pos


def limbs_mod(limbs, p: int):
    """The (a, b) coefficient matrices of kernel_matrix_limbs reduced mod
    p, shape (2, C, C), for p < 2^31.  Limb k, at most 2^29 in absolute
    value, is scaled by 2^(30 k) mod p, and the terms are summed unreduced
    for as many limbs as int64 holds on top of a residue (_room);
    reduce_mod takes negative sums to their residues as numpy's % does."""
    room = _room((p - 1) << (LIMB_BITS - 1), 63) - 1
    acc = limbs[:, 0].copy()
    for k in range(1, limbs.shape[1]):
        if k % room == 0:
            reduce_mod(acc, p)
        acc += limbs[:, k] * pow(2, LIMB_BITS * k, p)
    return reduce_mod(acc, p)


def _balanced(x, p: int):
    """The representative of x mod p in (-p/2, p/2], p odd: of a Python
    integer, or of every entry of an int64 array, for which x + p // 2
    must stay inside int64."""
    return (x + p // 2) % p - p // 2


def _solve_digit(lines, inverse, rhs, nested, crt, p: int):
    """Digit i of the kernel vector as balanced (a, b) parts, shape (2, C).

    At each embedding w -> g, g^2, the digit is ``nested`` (digit i of
    the nested component there) times the kernel line, plus A'^{-1}
    applied to ``rhs``, the residual mod p on the pivot rows, in every
    coordinate but the last (inverse_apply, one exact int64 product per
    panel of etas); digit 0 has no residual.  The two embeddings
    are then combined by CRT over Z[w]: x = a + b g and y = a + b g^2
    give (g - g^2) a = g y - g^2 x and (g - g^2) b = x - y, which is the
    matrix ``crt``.
    """
    emb = nested[:, None] * lines
    if rhs is not None:
        emb[:, :-1] += inverse_apply(inverse, rhs, p)
    # two products of residues, below 2^61
    return _balanced(crt @ (emb % p), p)


def _lift(limbs, base, p: int, ws, elim):
    """The kernel vector of T - Lambda whose last coordinate is base, by
    p-adic lifting from the elimination ``elim`` of the embeddings
    w -> g, g^2 mod p, given as ``ws`` = (g, g^2 mod p), or None when p
    cannot serve.

    The vector v = sum_i x_i p^i has balanced base-p digits x_i, Z[w]
    vectors with parts in (-p/2, p/2]; the last coordinate of x_i is digit
    i of base.  With the residual r_0 = 0 and r_{i+1} = (r_i - M x_i) / p,
    where M = T - Lambda, M x_i = r_i holds mod p, and its pivot rows fix
    every other coordinate of x_i (_solve_digit).  limbs_lift computes
    r_{i+1} exactly; when p does not divide it, this returns None.  Every
    digit after the first is solved with the pivot-row inverse that the
    elimination left behind with the kernel lines, ``elim.inverse``, the
    eta columns of its Gauss-Jordan steps, on the same pivot rows
    ``elim.rows``.

    The residuals are exact, so the first k digits v_k satisfy
    M v_k = -p^k r_k, and the lift stops at the first k where base has
    no digits left and r_k = 0 (Dixon's stopping rule), or raises
    DegenerateKernelError past _MAX_DIGITS digits.  v_k is then certified
    once: base in the last coordinate, and the exact residual against the
    same limbs (limbs_vanish).  A failed certificate returns None.  The
    certificate forms M v_k with the same product _limbs_image that
    limbs_lift uses, so it is not independent of that product; what it
    checks apart from the residual steps is the reassembly of the digits
    into va, vb, the quotient and divisibility bookkeeping of every step,
    and the nested coordinate.
    """
    import numpy as np

    inv_diff = pow(ws[0] - ws[1], -1, p)
    crt = np.array([[-ws[1] * inv_diff % p, ws[0] * inv_diff % p], [inv_diff, p - inv_diff]],
                   dtype=np.int64)
    cn = elim.lines.shape[1]
    # the limbs as float64 once, for every residual and certificate
    limbs = limbs.astype(np.float64)
    # the pivot rows of the residual at both embeddings
    pivots = elim.rows[:, :-1] + np.array([[0], [cn]])
    at_w = np.array(ws, dtype=np.int64)[:, None]
    digits = []
    residual = rhs = None
    rest = list(base)
    while True:
        if len(digits) == _MAX_DIGITS:
            raise DegenerateKernelError(f"kernel vector needs more than {_MAX_DIGITS} digits")
        ea, eb = (_balanced(x, p) for x in rest)
        rest = [(rest[0] - ea) // p, (rest[1] - eb) // p]
        if digits:
            res = _positions_mod(residual, p).reshape(2, cn)
            rhs = np.take((res[0] + res[1] * at_w) % p, pivots)
        nested = np.array([(ea + eb * w) % p for w in ws], dtype=np.int64)
        digits.append(_solve_digit(elim.lines, elim.inverse, rhs, nested, crt, p))
        residual = limbs_lift(limbs, residual, digits[-1], p)
        if residual is None:
            return None
        if rest == [0, 0] and _positions_vanish(residual):
            break
    high, *lower = [d.tolist() for d in reversed(digits)]
    va, vb = high
    for da, db in lower:
        va = [x * p + y for x, y in zip(va, da)]
        vb = [x * p + y for x, y in zip(vb, db)]
    if (va[-1], vb[-1]) == base and limbs_vanish(limbs, va, vb):
        return list(zip(va, vb))
    return None


def kernel_vector(limbs, base: tuple[int, int]) -> list[tuple[int, int]]:
    """The integer kernel vector of M = T - Lambda whose last coordinate is
    base, as (a, b) pairs, by p-adic lifting from one prime.

    ``limbs`` is M in kernel_matrix_limbs form.  At an integer point the
    last coordinate is the fully nested pattern's, base is its closed
    form, and every component is an integer in Z[w], so a symmetric
    residue recovers them.  One prime p just above 2^29 serves the whole
    solve: a stack of two members, the embeddings w -> g, g^2 of the limbs
    reduced mod p, is eliminated by a single nullspace_mod_np call, and
    _lift takes the kernel lines it finds, digit 0 of the vector, to as
    many base-p digits as the vector needs; every returned vector has
    passed the exact certificate.  A prime at which base vanishes under
    either embedding cannot scale the kernel line to it and is skipped.

    An elimination without a kernel line at both embeddings, a residual
    that p does not divide, or a failed certificate is a strike, and the
    next prime is tried.  With base nonzero mod p, no line means a kernel
    mod p larger than one line, which can only be larger than the exact
    one, so two strikes mean that the exact kernel is not one line and
    raise DegenerateKernelError.  At most _MAX_PRIMES primes are tried,
    skipped ones included.
    """
    import numpy as np

    strikes = 0
    for tried in range(_MAX_PRIMES):
        p, g = cached_primes(tried + 1, _PRIME_START)[tried]
        ws = (g, g * g % p)
        if not all((base[0] + base[1] * w) % p for w in ws):
            continue
        amat, bmat = limbs_mod(limbs, p)
        # a + b w at both embeddings of w: products of residues below 2^30
        # stay inside int64
        elim = nullspace_mod_np(reduce_mod(bmat * np.array(ws)[:, None, None] + amat, p), p)
        vec = None if elim is None else _lift(limbs, base, p, ws, elim)
        if vec is not None:
            return vec
        strikes += 1
        if strikes >= 2:
            raise DegenerateKernelError(f"kernel not one line (mod {p})")
    raise DegenerateKernelError(f"no usable prime for base {base}")


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
