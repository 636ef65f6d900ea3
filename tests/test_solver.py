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
            vec = np.array([[x % p for x in row] for row in m], dtype=np.int64)
            modular = nullspace_mod_np(vec, p)
            assert modular == [[fraction_mod(x.a, p) for x in v] for v in exact]
    assert {0, 1, 2, 3} <= dims


def test_modular_nullspace_past_int64_headroom():
    # 140 pivots at a 30-bit prime pile up more products than int64 holds
    # unreduced; the basis must still be the kernel, in echelon form
    import numpy as np

    rng = random.Random(1)
    (p, _), = cached_primes(1, (1 << 29) + 1)
    m = [[rng.randrange(p) for _ in range(141)] for _ in range(140)]
    basis = nullspace_mod_np(np.array(m, dtype=np.int64), p)
    assert len(basis) == 1 and basis[0][-1] == 1
    assert all(sum(a * b for a, b in zip(row, basis[0])) % p == 0 for row in m)
