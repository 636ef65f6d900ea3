import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from loopsum.cyclo import CycloNum, ONE, ZERO
from loopsum.modular import (
    cached_primes,
    crt_lift,
    crt_pair,
    cube_root_mod,
    fraction_mod,
    is_prime,
    nullspace_mod_np,
    primes_one_mod_three,
    rational_reconstruct,
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
    ps = primes_one_mod_three(5, 7)
    assert all(is_prime(p) and p % 3 == 1 for p in ps)
    assert ps[0] == 7


def test_cube_root():
    for p in primes_one_mod_three(4, 1000):
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
    p1, p2 = primes_one_mod_three(2, 10 ** 8)
    xs = [0, 1, p1 - 1, p1 * p2 - 1, 12345678901234]
    lifted = crt_lift([x % p1 for x in xs], p1, [x % p2 for x in xs], p2)
    assert lifted == xs
    assert crt_lift([], p1, [], p2) == []


def test_rational_reconstruction():
    p1, p2 = primes_one_mod_three(2, 10 ** 8)
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


def test_modular_nullspace_matches_exact():
    import numpy as np

    rng = random.Random(0)
    primes = cached_primes(1, 10 ** 7) + cached_primes(1, (1 << 29) + 1)
    dims = set()
    for m in _modular_cases(rng):
        exact = nullspace(ExactMatrix([[CycloNum(x, 0) for x in row] for row in m]))
        dims.add(len(exact))
        for p, _ in primes:
            vec = np.array([[[x % p for x in row] for row in m]], dtype=np.int64)
            (modular,) = nullspace_mod_np(vec, [p])
            assert modular == [[fraction_mod(x.a, p) for x in v] for v in exact]
    assert {0, 1, 2, 3} <= dims


def _exact_kernel_mod(m, p):
    exact = nullspace(ExactMatrix([[CycloNum(x, 0) for x in row] for row in m]))
    return [[fraction_mod(x.a, p) for x in v] for v in exact]


def test_modular_nullspace_stack_matches_exact():
    # the same cases, stacked by shape with mixed primes: every member's
    # basis is the exact kernel mod its own prime
    import numpy as np

    rng = random.Random(0)
    primes = [p for p, _ in cached_primes(1, 10 ** 7) + cached_primes(3, (1 << 29) + 1)]
    by_shape: dict = {}
    for m in _modular_cases(rng):
        by_shape.setdefault((len(m), len(m[0])), []).append(m)
    dims = set()
    for mats in by_shape.values():
        ps = [primes[k % len(primes)] for k in range(len(mats))]
        stack = np.array([[[x % p for x in row] for row in m] for m, p in zip(mats, ps)],
                         dtype=np.int64)
        bases = nullspace_mod_np(stack, ps)
        assert len(bases) == len(mats)
        for m, p, basis in zip(mats, ps, bases):
            want = _exact_kernel_mod(m, p)
            assert basis == want
            dims.add(len(want))
    assert {0, 1, 2, 3} <= dims


def test_modular_nullspace_stack_lockstep_and_split_members():
    # square members: kernel dimension 1 stays in lockstep whether or not
    # the pivots need row swaps; dimension 2, full rank and a kernel
    # vector that is 0 in the last coordinate leave it
    import numpy as np

    rng = random.Random(3)
    primes = [p for p, _ in cached_primes(3, (1 << 29) + 1)]
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
        "lockstep": kernel_one,
        "lockstep-swap": swapped,
        "kernel-two": of_rank(size - 2),
        "full-rank": [[rng.randrange(-9, 9) for _ in range(size)] for _ in range(size)],
        "last-coordinate-zero": last_zero,
    }
    for m in members.values():
        assert (m[0][0] == 0) == (m is swapped)
    ps = [primes[k % len(primes)] for k in range(len(members))]
    stack = np.array([[[x % p for x in row] for row in m]
                      for m, p in zip(members.values(), ps)], dtype=np.int64)
    bases = nullspace_mod_np(stack, ps)
    for (name, m), p, basis in zip(members.items(), ps, bases):
        assert basis == _exact_kernel_mod(m, p), name
    dims = {name: len(b) for name, b in zip(members, bases)}
    assert dims["lockstep"] == dims["lockstep-swap"] == 1
    assert dims["kernel-two"] == 2 and dims["full-rank"] == 0
    assert dims["last-coordinate-zero"] == 1
    assert bases[1][0][-1] == 1 and bases[4][0][-1] == 0


def test_modular_nullspace_past_int64_headroom():
    # 140 pivots at a 30-bit prime pile up more products than int64 holds
    # unreduced; the basis must still be the kernel, in echelon form, for
    # every member of a stack of three
    import numpy as np

    rng = random.Random(1)
    primes = [p for p, _ in cached_primes(3, (1 << 29) + 1)]
    mats = [[[rng.randrange(p) for _ in range(141)] for _ in range(140)] for p in primes]
    # the third member leaves the lockstep at its zero column 31 with a
    # full budget of unreduced updates, which must carry over: its pivot
    # rows are 1, -1, -1, ... and the rows below start -1, 0, 1, 2, ...,
    # so every multiplier is -1 and every update subtracts (p-1)^2
    p, free = primes[2], 31
    m = mats[2]
    for r in range(140):
        m[r][:free] = [(1 if c == r else 0 if c < r else -1) % p if r < free
                       else (c - 1) % p for c in range(free)]
        if r < free:
            m[r][free + 1:140] = [p - 1] * (139 - free)
        m[r][free] = 0
    coeffs = [rng.randrange(p) for _ in range(140)]
    for row in m:
        row[140] = sum(a * x for a, x in zip(coeffs, row)) % p
    bases = nullspace_mod_np(np.array(mats, dtype=np.int64), primes)
    assert [len(b) for b in bases] == [1, 1, 2]
    for m, p, basis in zip(mats, primes, bases):
        assert basis[-1][-1] == 1
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in m)
    assert bases[2][0] == [int(k == free) for k in range(141)]
