import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from loopsum import groundstate, modular
from loopsum.cyclo import CycloNum, ONE, ZERO, pair_mul
from loopsum.modular import (
    _PANEL,
    DegenerateKernelError,
    _eta_apply,
    _room,
    balanced_split,
    cached_primes,
    crt_pair,
    cube_root_mod,
    inverse_apply,
    is_prime,
    kernel_vector,
    nullspace_mod_np,
    rational_reconstruct,
    reduce_mod,
)
from loopsum.solver import ExactMatrix, det, nullspace, rank

small = st.builds(
    CycloNum,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)


def matrices(rows, cols):
    return st.lists(
        st.lists(small, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(ExactMatrix)


def test_nullspace_identity_empty():
    assert nullspace(ExactMatrix.identity(3)) == []


def test_nullspace_zero_matrix():
    basis = nullspace(ExactMatrix.zeros(2, 2))
    assert len(basis) == 2


def test_det_values():
    assert det(ExactMatrix.identity(3)) == ONE
    assert det(ExactMatrix([[ONE, ONE], [ONE, ONE]])) == ZERO
    m = ExactMatrix([[CycloNum(2, 0), ONE], [ZERO, CycloNum(3, 0)]])
    assert det(m) == CycloNum(6, 0)
    assert det(ExactMatrix([])) == ONE
    assert det(ExactMatrix([[ZERO, ONE], [ONE, ZERO]])) == -ONE
    assert det(m + m) == CycloNum(24, 0)
    # a sum of two shapes raises instead of truncating to the smaller one
    for a, b in [((2, 2), (3, 3)), ((3, 3), (2, 2)), ((2, 2), (2, 3))]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            ExactMatrix.zeros(*a) + ExactMatrix.zeros(*b)


def det_fraction(m: ExactMatrix) -> CycloNum:
    """Determinant by fraction Gaussian elimination over Q(w): the oracle
    for the fraction-free det."""
    n = m.rows
    data = [row[:] for row in m.data]
    sign = 1
    acc = ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if data[i][c]), None)
        if pr is None:
            return ZERO
        if pr != c:
            data[c], data[pr] = data[pr], data[c]
            sign = -sign
        piv = data[c][c]
        acc = acc * piv
        inv = piv.inverse()
        for i in range(c + 1, n):
            if data[i][c]:
                f = data[i][c] * inv
                ri, rc = data[i], data[c]
                data[i] = [ri[k] - f * rc[k] for k in range(n)]
    return acc if sign == 1 else -acc


fractional = st.builds(
    CycloNum,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def square_matrices(draw):
    """Q(w) matrices of size 0 to 6: integral or fractional entries, some
    with a zero leading pivot that forces a row swap, some singular."""
    n = draw(st.integers(min_value=0, max_value=6))
    entry = draw(st.sampled_from([small, fractional]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "zero-pivot", "singular"]))
    if n >= 2 and shape == "zero-pivot":
        rows[0][0] = ZERO
        rows[1][0] = rows[1][0] or ONE
    if n >= 2 and shape == "singular":
        c = draw(fractional)
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
    return ExactMatrix(rows), shape


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_matches_fraction_elimination(case):
    m, shape = case
    got = det(m)
    assert got == det_fraction(m)
    if shape == "singular" and m.rows >= 2:
        assert got == ZERO


@settings(max_examples=30, deadline=None)
@given(matrices(3, 4))
def test_rank_nullity(m):
    basis = nullspace(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert all(x == ZERO for x in m.apply(v))


# ---------------------------------------------------------------------------
# modular machinery
# ---------------------------------------------------------------------------


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(561)  # Carmichael


def test_primes_one_mod_three():
    # the primes p = 1 (mod 3) from each start, as found before
    # cached_primes did its own search; the second call resumes the first
    expect = {
        7: [7, 13, 19, 31, 37],
        1000: [1009, 1021, 1033, 1039, 1051],
        10 ** 8: [100000039, 100000081, 100000123, 100000213, 100000231],
        (1 << 29) + 1: [536870923, 536871001, 536871019, 536871061, 536871091],
    }
    for start, want in expect.items():
        assert [p for p, _ in cached_primes(2, start)] == want[:2], start
        ps = [p for p, _ in cached_primes(5, start)]
        assert ps == want, start
        assert all(is_prime(p) and p % 3 == 1 for p in ps)


def test_cube_root():
    for p, _ in cached_primes(4, 1000):
        g = cube_root_mod(p)
        assert (g * g * g) % p == 1 and g != 1
        assert (g * g + g + 1) % p == 0


def test_cached_primes_consistent():
    a = cached_primes(3, 10 ** 6)
    b = cached_primes(5, 10 ** 6)
    assert b[:3] == a


def test_crt_pair():
    r, m = crt_pair(2, 5, 3, 7)
    assert m == 35 and r % 5 == 2 and r % 7 == 3


def test_crt_lift():
    # residues of one value mod two primes give it back whole, in [0, p1 p2)
    (p1, _), (p2, _) = cached_primes(2, 10 ** 8)
    for x in [0, 1, p1 - 1, p1 * p2 - 1, 12345678901234]:
        assert crt_pair(x % p1, p1, x % p2, p2) == (x, p1 * p2)
    # r1 need not be reduced
    assert crt_pair(-1, p1, p2 - 1, p2) == (p1 * p2 - 1, p1 * p2)


def test_rational_reconstruction():
    (p1, _), (p2, _) = cached_primes(2, 10 ** 8)
    m = p1 * p2
    for target in [Fraction(22, 7), Fraction(-5, 3), Fraction(1234), Fraction(0)]:
        r = target.numerator * pow(target.denominator, -1, m) % m
        assert rational_reconstruct(r, m) == target


def _modular_cases(rng):
    """Integer matrices with kernel dimension 0 to 3, in shapes that force
    row swaps and with zero columns."""
    for kdim in range(4):
        for extra in range(3):
            cols = 6
            rnk = cols - kdim
            rows = rnk + extra
            left = [[rng.randrange(-9, 9) for _ in range(rnk)] for _ in range(rows)]
            right = [[rng.randrange(-9, 9) for _ in range(cols)] for _ in range(rnk)]
            m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                 for row in left]
            yield m
            # first row zero: the first pivot needs a row swap
            yield [[0] * cols] + m
            # a zero column in front and one inside
            yield [[0] + row[:3] + [0] + row[3:] for row in m]
            # leading entry zero in a row that is not zero
            yield [[0] + row[1:] if k == 0 else row for k, row in enumerate(m)]


def fraction_mod(x, p: int) -> int:
    """A rational number as a residue mod p."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _exact_kernel(m):
    return nullspace(ExactMatrix([[CycloNum(x, 0) for x in row] for row in m]))


def _exact_line_mod(m, p):
    """The kernel line of the integer matrix m mod p, from the exact
    kernel: its vector scaled to last coordinate 1, mod p, when the kernel
    is one line with a nonzero last coordinate, and None otherwise."""
    exact = _exact_kernel(m)
    if len(exact) != 1 or not exact[0][-1]:
        return None
    last = exact[0][-1].a
    return [fraction_mod(Fraction(x.a) / last, p) for x in exact[0]]


def _stack_mod(mats, p):
    import numpy as np

    return np.array([[[x % p for x in row] for row in m] for m in mats], dtype=np.int64)


def _expect_stack(mats, p):
    """What nullspace_mod_np must give for a stack of integer matrices at
    p: the lines of every member, from the exact kernel, when every member
    has one, and None otherwise."""
    lines = [_exact_line_mod(m, p) for m in mats]
    return None if None in lines else lines


def _lines(elim):
    return None if elim is None else elim.lines.tolist()


def test_modular_nullspace_matches_exact():
    rng = random.Random(0)
    primes = cached_primes(1, 10 ** 7) + cached_primes(1, (1 << 29) + 1)
    dims = set()
    lines = 0
    for m in _modular_cases(rng):
        dims.add(len(_exact_kernel(m)))
        for p, _ in primes:
            want = _expect_stack([m], p)
            assert _lines(nullspace_mod_np(_stack_mod([m], p), p)) == want
            lines += want is not None
    assert {0, 1, 2, 3} <= dims
    assert lines > 0


def test_modular_nullspace_stack_matches_exact():
    # the same cases, stacked by shape at each prime: the whole stack,
    # which mixes members with and without a line, and the members with a
    # line on their own; every result is the exact kernel line of each
    # member mod p, or None when one member has none
    rng = random.Random(0)
    primes = [p for p, _ in cached_primes(1, 10 ** 7) + cached_primes(3, (1 << 29) + 1)]
    by_shape: dict = {}
    for m in _modular_cases(rng):
        by_shape.setdefault((len(m), len(m[0])), []).append(m)
    dims = set()
    outcomes = set()
    for k, mats in enumerate(by_shape.values()):
        p = primes[k % len(primes)]
        with_line = [m for m in mats if _exact_line_mod(m, p) is not None]
        for stack in (mats, with_line):
            if not stack:
                continue
            want = _expect_stack(stack, p)
            assert _lines(nullspace_mod_np(_stack_mod(stack, p), p)) == want
            outcomes.add(want is not None)
        dims.update(len(_exact_kernel(m)) for m in mats)
    assert {0, 1, 2, 3} <= dims
    assert outcomes == {False, True}


def test_modular_nullspace_stack_lockstep_and_split_members():
    # square members: kernel dimension 1 stays in lockstep whether or not
    # the pivots need row swaps; dimension 2, full rank and a kernel
    # vector that is 0 in the last coordinate have no line, and any one
    # of them, wherever it sits in the stack, makes the result None
    rng = random.Random(3)
    p = cached_primes(1, (1 << 29) + 1)[0][0]
    size = 7

    def of_rank(rnk):
        left = [[rng.randrange(-9, 9) for _ in range(rnk)] for _ in range(size)]
        right = [[rng.randrange(-9, 9) for _ in range(size)] for _ in range(rnk)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                for row in left]

    kernel_one = of_rank(size - 1)
    # a first row from the span of rows 1 and 2 with a 0 in front keeps
    # the kernel and makes the first pivot a swap
    swapped = [row[:] for row in of_rank(size - 1)]
    r1, r2 = swapped[1], swapped[2]
    swapped[0] = [a * r2[0] - b * r1[0] for a, b in zip(r1, r2)]
    # a zero column before the last: the kernel is spanned by its unit
    # vector, which is 0 in the last coordinate
    last_zero = [row[:-2] + [0, row[-1]] for row in of_rank(size)]
    members = {
        "kernel-two": of_rank(size - 2),
        "lockstep": kernel_one,
        "full-rank": [[rng.randrange(-9, 9) for _ in range(size)] for _ in range(size)],
        "lockstep-swap": swapped,
        "last-coordinate-zero": last_zero,
    }
    for m in members.values():
        assert (m[0][0] == 0) == (m is swapped)
    dims = {name: len(_exact_kernel(m)) for name, m in members.items()}
    assert dims == {"kernel-two": 2, "lockstep": 1, "full-rank": 0,
                    "lockstep-swap": 1, "last-coordinate-zero": 1}
    good = [kernel_one, swapped]
    elim = nullspace_mod_np(_stack_mod(good, p), p)
    assert _lines(elim) == _expect_stack(good, p)
    assert elim.lines[:, -1].tolist() == [1, 1]
    assert elim.rows[1].tolist() != list(range(size))
    assert nullspace_mod_np(_stack_mod(list(members.values()), p), p) is None
    for name in ("kernel-two", "full-rank", "last-coordinate-zero"):
        bad = members[name]
        assert _exact_line_mod(bad, p) is None, name
        for stack in ([bad], [bad] + good, [kernel_one, bad, swapped], good + [bad]):
            assert nullspace_mod_np(_stack_mod(stack, p), p) is None, name


def test_modular_nullspace_past_int64_headroom():
    # 140 lockstep pivots at a 30-bit prime pile up more products than
    # int64 holds unreduced; the kernel line must still come out for every
    # member of a stack of three that keeps a kernel line, and a member
    # without one must end the elimination
    import numpy as np

    rng = random.Random(1)
    p = cached_primes(1, (1 << 29) + 1)[0][0]
    mats = [[[rng.randrange(p) for _ in range(141)] for _ in range(140)] for _ in range(4)]
    # the third member has no line: it finds no pivot at its zero column
    # 31, after a full budget of unreduced updates: its pivot rows are 1,
    # -1, -1, ... and the rows below start -1, 0, 1, 2, ..., so every
    # multiplier is -1 and every update subtracts (p-1)^2
    free = 31
    m = mats[2]
    for r in range(140):
        m[r][:free] = [(1 if c == r else 0 if c < r else -1) % p if r < free
                       else (c - 1) % p for c in range(free)]
        if r < free:
            m[r][free + 1:140] = [p - 1] * (139 - free)
        m[r][free] = 0
    # the fourth member is L U for unit triangular L and U with -1 off the
    # diagonal: each of its 140 pivots is 1 on the diagonal, and every
    # update subtracts (p-1)^2, past the headroom again and again
    mats[3] = [[(min(i, j) + (1 if i == j else -1)) % p for j in range(140)] + [0]
               for i in range(140)]
    for m in mats:
        coeffs = [rng.randrange(p) for _ in range(140)]
        for row in m:
            row[140] = sum(a * x for a, x in zip(coeffs, row[:140])) % p
    assert nullspace_mod_np(np.array(mats, dtype=np.int64), p) is None
    assert nullspace_mod_np(np.array(mats[2:3], dtype=np.int64), p) is None
    keep = [mats[0], mats[1], mats[3]]
    elim = nullspace_mod_np(np.array(keep, dtype=np.int64), p)
    # the inverse inverts their pivot rows
    _check_pivot_inverse(keep, p, elim)
    for m, v in zip(keep, elim.lines.tolist()):
        assert v[-1] == 1
        assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in m)


def _check_pivot_inverse(mats, p, elim):
    """inverse_apply of the elimination's inverse solves the pivot rows of
    each member's input (all columns but the last): A'_P x = v (mod p),
    checked in Python ints."""
    import numpy as np

    cols = elim.inverse.shape[1]
    rng = random.Random(9)
    vecs = np.array([[rng.randrange(p) for _ in range(cols)] for _ in mats], dtype=np.int64)
    applied = inverse_apply(elim.inverse, vecs, p).tolist()
    for m, rows, vec, x in zip(mats, elim.rows.tolist(), vecs.tolist(), applied):
        assert all(0 <= v < p for v in x)
        pivots = [m[r][:cols] for r in rows[:cols]]
        assert [sum(a * b for a, b in zip(row, x)) % p for row in pivots] == vec


def test_pivot_inverse_after_row_swaps():
    # members whose pivots need row swaps: their inverse inverts their
    # pivot rows in the order the elimination left them; a member with a
    # zero column or with full rank ends the elimination without one
    import numpy as np

    rng = random.Random(4)
    p = cached_primes(1, (1 << 29) + 1)[0][0]
    size = 9
    mats = []
    for k in range(4):
        m = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        if k in (0, 3):
            # zeros on the diagonal force swaps
            for c in range(0, size - 1, 2):
                m[c][c] = 0
        if k == 1:
            # a zero column before the last: no line
            for row in m:
                row[3] = 0
        if k != 2:
            # the last column a combination of the others: a kernel line
            coeffs = [rng.randrange(p) for _ in range(size - 1)]
            for row in m:
                row[-1] = sum(a * x for a, x in zip(coeffs, row[:-1])) % p
        mats.append(m)
    for k in (1, 2):
        assert nullspace_mod_np(np.array(mats[k:k + 1], dtype=np.int64), p) is None
    assert nullspace_mod_np(np.array(mats, dtype=np.int64), p) is None
    swapped = [mats[0], mats[3]]
    elim = nullspace_mod_np(np.array(swapped, dtype=np.int64), p)
    assert elim.lines.shape == (2, size)
    assert all(rows != list(range(size)) for rows in elim.rows.tolist())
    _check_pivot_inverse(swapped, p, elim)


def test_pivot_inverse_and_inverse_apply_check_their_bound():
    import numpy as np

    with pytest.raises(ValueError, match="too large"):
        inverse_apply(np.zeros((1, 3, 3), dtype=np.int64), np.zeros((1, 3), dtype=np.int64),
                      (1 << 31) - 1)


#: the first prime above 2^29 and the largest below 2^30, the largest
#: _panel_width allows
WIDE_PRIMES = (cached_primes(1, (1 << 29) + 1)[0][0],
               next(q for q in range((1 << 30) - 1, 0, -1) if is_prime(q)))


def _mod_product(a, b, p):
    """a @ b mod p for int64 residues below 2^30, in int64 on 15-bit halves
    of b: every partial sum stays below 2^55 for inner widths up to 2^10,
    so unlike _eta_apply it does not rest on the panel width."""
    high = (a @ (b >> 15)) % p
    return ((high << 15) + a @ (b & 0x7FFF)) % p


def _panel(p):
    """The panel width at p: 30 at the first prime above 2^29, 7 at the
    largest prime below 2^30."""
    return min(_PANEL, (1 << 63) // (p - 1) ** 2 - 1)


@pytest.mark.parametrize("p", WIDE_PRIMES)
@pytest.mark.parametrize("m", [1, 13, 41, 131, 300])
def test_inverse_apply_equals_int64_product(m, p):
    # eta arrays, one member at the largest residues and one random,
    # applied panel by panel: from m = 13 at the largest prime and m = 41
    # at the first, a vector crosses more than one panel.  The block of
    # k = 3 columns is the elimination's trailing update; the first
    # member, every eta and entry at p - 1, makes its largest sums
    import numpy as np

    rng = np.random.default_rng(m)
    inverse = np.stack([np.full((m, m), p - 1), rng.integers(0, p, (m, m))])
    block = np.stack([np.full((m, 3), p - 1), rng.integers(0, p, (m, 3))])
    want = block.copy()
    got = block.copy()
    w = _panel(p)
    for lo in range(0, m, w):
        hi = min(lo + w, m)
        saved = want[:, lo:hi].copy()
        want[:, lo:hi] = 0
        want = (want + _mod_product(inverse[:, :, lo:hi], saved, p)) % p
        _eta_apply(inverse[:, :, lo:hi], got, lo, p)
    assert np.array_equal(got, want)
    assert np.array_equal(inverse_apply(inverse, block[..., 0], p), want[..., 0])


def _unit_lower_inverse(strict, p: int):
    """The inverses mod p of unit lower triangular matrices I + N, given
    the strictly lower part of ``strict`` (G, m, m) as N, with residues in
    [0, p), by a column sweep: the reference for the product-form inverse
    of nullspace_mod_np.

    Row c of the inverse is e_c - sum_{j<c} N[c, j] (row j); once it is
    known, its products with column c of N are taken off the rows below
    it, which stay unreduced for as many updates as int64 holds.
    """
    import numpy as np

    g, m, _ = strict.shape
    headroom = _room((p - 1) ** 2, 63)
    inv = np.zeros((g, m, m), dtype=np.int64)
    inv.reshape(g, -1)[:, ::m + 1] = 1
    for c in range(m):
        row = inv[:, c, :c + 1]
        np.remainder(row, p, out=row)
        if c and c % headroom == 0:
            inv[:, c + 1:, :c + 1] %= p
        inv[:, c + 1:, :c + 1] -= strict[:, c + 1:, c, None] * row[:, None]
    return inv


@pytest.mark.parametrize("p", WIDE_PRIMES)
@pytest.mark.parametrize("m", [31, 32, 33, 65, 300, 520])
def test_blocked_inverse_equals_column_sweep(m, p):
    # the pivot rows of one member are I + N with every strictly lower
    # residue p - 1, the worst case; a second member's N is random.  Each
    # has its last column in the span, so it keeps a kernel line, and the
    # inverse of its pivot rows, applied to the identity columns, must be
    # the column sweep's
    import numpy as np

    rng = np.random.default_rng(m)
    strict = np.stack([np.full((m, m), p - 1), rng.integers(0, p, (m, m))])
    unit = np.tril(strict, -1) + np.eye(m, dtype=np.int64)
    last = _mod_product(unit, rng.integers(0, p, (2, m, 1)), p)
    elim = nullspace_mod_np(np.concatenate([unit, last], axis=2), p)
    assert (elim.rows == np.arange(m)).all()
    eye = np.eye(m, dtype=np.int64)
    inv = np.stack([inverse_apply(elim.inverse, np.stack([e, e]), p) for e in eye], axis=2)
    assert np.array_equal(inv, _unit_lower_inverse(strict, p))
    assert (_mod_product(unit, inv, p) == eye).all()


def test_blocked_inverse_checks_its_bound_without_assert():
    # p >= 2^30 splits into more than two 15-bit halves: a ValueError,
    # also under python -O, which drops assert statements; q is the first
    # prime p = 1 (mod 3) above 2^30, one the point solve could be given
    code = textwrap.dedent("""
        import numpy as np
        from loopsum.modular import cached_primes, inverse_apply, nullspace_mod_np
        q = cached_primes(1, (1 << 30) + 1)[0][0]
        calls = (lambda: nullspace_mod_np(np.zeros((2, 5, 5), dtype=np.int64), q),
                 lambda: inverse_apply(np.zeros((2, 4, 4), dtype=np.int64),
                                       np.zeros((2, 4), dtype=np.int64), q))
        raised = 0
        for call in calls:
            try:
                call()
            except ValueError as exc:
                raised += "too large" in str(exc)
        print(raised)
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(groundstate.__file__)))
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout == "2\n", flags


def _column_sweep(stack, p):
    """The lockstep elimination as an LU, column by column, each step
    updating the whole block below and right of its pivot, and
    back-substitution for the lines: the reference for the Gauss-Jordan
    nullspace_mod_np, which must give equal lines and rows.  Returns
    (lines, rows), or None."""
    import numpy as np

    band = 32
    nmem, nrows, ncols = stack.shape
    if nrows < ncols - 1:
        return None
    headroom = (1 << 63) // max(1, (p - 1) ** 2)
    pending = 0
    rows = np.zeros((nmem, 1), dtype=np.int64) + np.arange(nrows)
    for c in range(ncols - 1):
        col = stack[:, c:, c] % p
        heads = col[:, 0].tolist()
        if 0 in heads:
            hit = col != 0
            if not hit.any(axis=1).all():
                return None
            first = hit.argmax(axis=1)
            for k in first.nonzero()[0]:
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
        for lo in range(c + 1, nrows, band):
            stack[:, lo:lo + band, c + 1:] -= col[:, lo - c:lo - c + band, None] * pivot[:, None]
        pending += 1
    if (stack[:, ncols - 1:, -1] % p).any():
        return None
    vec = np.ones((nmem, ncols), dtype=np.int64)
    vec[:, :-1] = -stack[:, :ncols - 1, -1]
    for r in range(ncols - 2, -1, -1):
        vec[:, r] %= p
        if r and (ncols - 2 - r) % headroom == headroom - 1:
            vec[:, :r] %= p
        vec[:, :r] -= stack[:, :r, r] * vec[:, r, None]
    return vec, rows


def _with_swaps(rng, nrows, ncols, zeros, p):
    """A random matrix mod p with a kernel line whose elimination finds a
    zero on the diagonal at each column in ``zeros`` (increasing, none
    next to another): there, row c's first c + 1 entries are a
    combination of the rows above, which hold the pivots of columns
    0 .. c-1 in some order."""
    m = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    for c in zeros:
        coeffs = [rng.randrange(p) for _ in range(c)]
        m[c][:c + 1] = [sum(a * m[j][k] for j, a in enumerate(coeffs)) % p for k in range(c + 1)]
    coeffs = [rng.randrange(p) for _ in range(ncols - 1)]
    for row in m:
        row[-1] = sum(a * x for a, x in zip(coeffs, row[:-1])) % p
    return m


def _assert_same_elimination(got, want, mats, p):
    import numpy as np

    lines, rows = want
    assert np.array_equal(got.lines, lines)
    assert np.array_equal(got.rows, rows)
    _check_pivot_inverse(mats, p, got)


@pytest.mark.parametrize("p", WIDE_PRIMES)
@pytest.mark.parametrize("span", ["w", "w+1", "w+2", "2w+1", "132"])
def test_blocked_elimination_equals_column_sweep(span, p):
    # w is the panel width: 30 at the first prime above 2^29, 7 at the
    # largest prime below 2^30.  One member swaps mid-panel and at a later
    # panel's first column, one never swaps; a third member loses its
    # pivot in panel 2, and with it in the stack there is no result
    import numpy as np

    w = _panel(p)
    assert w == (30 if p == WIDE_PRIMES[0] else 7)
    ncols = {"w": w, "w+1": w + 1, "w+2": w + 2, "2w+1": 2 * w + 1, "132": 132}[span]
    nrows = ncols + 2 if span == "2w+1" else ncols
    rng = random.Random(ncols)
    zeros = [c for c in (w // 2, w, 2 * w + 2) if c < ncols - 1]
    swapped = _with_swaps(rng, nrows, ncols, zeros, p)
    plain = _with_swaps(rng, nrows, ncols, [], p)
    stack = np.array([swapped, plain], dtype=np.int64)
    want = _column_sweep(stack.copy(), p)
    got = nullspace_mod_np(stack.copy(), p)
    _assert_same_elimination(got, want, [swapped, plain], p)
    assert all(got.rows[0, c] != c for c in zeros)
    assert (got.rows[1] == np.arange(nrows)).all()
    assert (got.lines[:, -1] == 1).all()
    for m, v in zip((swapped, plain), got.lines.tolist()):
        assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in m)
    if ncols - 1 > w + 2:
        # column w + 2, in panel 2, a combination of the columns before it
        lost = [row[:] for row in plain]
        coeffs = [rng.randrange(p) for _ in range(w + 2)]
        for row in lost:
            row[w + 2] = sum(a * x for a, x in zip(coeffs, row)) % p
        for members in ([lost], [swapped, lost], [lost, plain]):
            bad = np.array(members, dtype=np.int64)
            assert _column_sweep(bad.copy(), p) is None
            assert nullspace_mod_np(bad, p) is None


def test_elimination_checks_its_prime_without_assert():
    # p >= 2^30: a ValueError at every size, also where the elimination
    # has nothing to eliminate or too few rows, and under python -O
    code = textwrap.dedent("""
        import numpy as np
        from loopsum.modular import nullspace_mod_np
        raised = 0
        for p in (1 << 30, (1 << 31) - 1):
            for shape in ((1, 1, 1), (2, 1, 4), (1, 2, 2), (2, 5, 5), (1, 40, 41)):
                try:
                    nullspace_mod_np(np.zeros(shape, dtype=np.int64), p)
                except ValueError as exc:
                    raised += "too large" in str(exc)
        print(raised)
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(groundstate.__file__)))
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout == "10\n", flags


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(1 << 62), 1 << 62), min_size=1, max_size=40),
       st.integers(2, (1 << 31) - 1))
def test_reduce_mod_equals_remainder(values, p):
    import numpy as np

    x = np.array(values + [-(1 << 62), 1 << 62, -1, 0, p, -p], dtype=np.int64)
    want = x % p
    got = reduce_mod(x, p)
    assert got is x
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# p-adic kernel solve against the exact nullspace
# ---------------------------------------------------------------------------


def _limbs_of(rows):
    """A square matrix of Z[w] integer pairs in kernel_matrix_limbs form."""
    import numpy as np

    c = len(rows)
    split = balanced_split([x for row in rows for pair in row for x in pair])
    return np.ascontiguousarray(split.reshape(len(split), c, c, 2).transpose(3, 0, 1, 2))


def _system(a, rest, base):
    """M = A [base I | -rest] over Z[w]: for A of full column rank its
    kernel is the line of v = (rest, base), which is integral."""
    rows = []
    for arow in a:
        last = (0, 0)
        for x, v in zip(arow, rest):
            xv = pair_mul(x, v)
            last = (last[0] - xv[0], last[1] - xv[1])
        rows.append([pair_mul(x, base) for x in arow] + [last])
    return rows


def _exact_line(rows, base):
    """The kernel vector with last coordinate base, from the Fraction
    nullspace, or None when the kernel is not one line."""
    basis = nullspace(ExactMatrix([[CycloNum(a, b) for a, b in row] for row in rows]))
    if len(basis) != 1 or not basis[0][-1]:
        return None
    scale = CycloNum(*base) / basis[0][-1]
    return [x * scale for x in basis[0]]


def _padic(rows, base):
    try:
        return [CycloNum(a, b) for a, b in kernel_vector(_limbs_of(rows), base)]
    except DegenerateKernelError:
        return None


def zw(bits):
    return st.tuples(st.integers(-(1 << bits), 1 << bits), st.integers(-(1 << bits), 1 << bits))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_padic_kernel_matches_exact_nullspace(data):
    # coordinates of a few bits up to about 20 digits, of either sign; a
    # matrix A that is not of full rank has a larger kernel, which must
    # raise and never give a vector
    c = data.draw(st.integers(min_value=2, max_value=5))
    bits = data.draw(st.sampled_from([3, 40, 200, 560]))
    rest = data.draw(st.lists(zw(bits), min_size=c - 1, max_size=c - 1))
    base = data.draw(zw(bits).filter(any))
    a = data.draw(st.lists(st.lists(zw(3), min_size=c - 1, max_size=c - 1),
                           min_size=c, max_size=c))
    rows = _system(a, rest, base)
    exact = _exact_line(rows, base)
    assert _padic(rows, base) == exact
    if exact is not None:
        assert exact == [CycloNum(*v) for v in rest] + [CycloNum(*base)]


def _counted(monkeypatch, name):
    real = getattr(modular, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modular, name, counted)
    return calls


def test_padic_kernel_negative_coordinates_many_digits(monkeypatch):
    rng = random.Random(12)
    rest = [(-rng.getrandbits(500), rng.getrandbits(480)), (rng.getrandbits(490), -7),
            (-1, -rng.getrandbits(505))]
    base = (-rng.getrandbits(300), 5)
    a = [[(rng.randrange(-9, 9), rng.randrange(-9, 9)) for _ in range(3)] for _ in range(4)]
    rows = _system(a, rest, base)
    digits = _counted(monkeypatch, "_solve_digit")
    eliminations = _counted(monkeypatch, "nullspace_mod_np")
    assert _padic(rows, base) == _exact_line(rows, base)
    # about 510 bits at 29 bits a digit, from one elimination, whose
    # inverse solves every digit after the first
    assert len(digits) >= 18 and len(eliminations) == 1


def test_padic_kernel_just_past_the_first_bound(monkeypatch):
    # base = 1 has one digit; coordinates of 40 bits need two, so the lift
    # goes just past base: r_1 is not zero, r_2 is, and the lift stops
    # there and is certified once
    rng = random.Random(13)
    rest = [(rng.getrandbits(40), -rng.getrandbits(40)), (-rng.getrandbits(39), 3)]
    base = (1, 0)
    a = [[(rng.randrange(-9, 9), rng.randrange(-9, 9)) for _ in range(2)] for _ in range(3)]
    rows = _system(a, rest, base)
    digits = _counted(monkeypatch, "_solve_digit")
    lifts = _counted(monkeypatch, "limbs_lift")
    certificates = _counted(monkeypatch, "limbs_vanish")
    assert _padic(rows, base) == _exact_line(rows, base)
    assert len(digits) == 2 and len(lifts) == 2 and len(certificates) == 1


def test_padic_kernel_rank_deficient_raises():
    # A with two equal columns: the kernel is a plane, never a vector
    rng = random.Random(14)
    rest = [(rng.getrandbits(60), 1), (-2, rng.getrandbits(50)), (3, 4)]
    base = (rng.getrandbits(40), -1)
    a = [[(rng.randrange(-9, 9), rng.randrange(-9, 9)) for _ in range(3)] for _ in range(4)]
    for row in a:
        row[2] = row[0]
    rows = _system(a, rest, base)
    assert _exact_line(rows, base) is None
    with pytest.raises(DegenerateKernelError):
        kernel_vector(_limbs_of(rows), base)
