"""The int64 arithmetic of the p-adic lift: residuals as rows of balanced
DIGIT_BITS-bit positions, their long division by p, their zero test and
their residues mod p, each against Python integers; the elimination's
contiguous panel; and the bytes of kernel_matrix_limbs."""

import hashlib
import random

import numpy as np
import pytest

from loopsum.modular import (
    DIGIT_BITS,
    _PRIME_START,
    _positions_mod,
    _positions_vanish,
    _room,
    balanced_split,
    cached_primes,
    limbs_lift,
    nullspace_mod_np,
)
from loopsum.tmatrix import kernel_matrix_limbs

P = cached_primes(1, _PRIME_START)[0][0]
#: the largest residual position limbs_lift takes (its docstring)
ROOM = (_room(1 << 55, 63) - 2) << 55


def position_values(pos) -> list[int]:
    """The Python integers that the rows of int64 positions stand for."""
    return [sum(x << (DIGIT_BITS * j) for j, x in enumerate(row)) for row in pos.tolist()]


def positions(values: list[int]):
    """Python integers as the int64 positions that limbs_lift takes: one
    row of balanced DIGIT_BITS-bit positions per value."""
    return balanced_split(values, DIGIT_BITS).T.copy()


def divide(pos, p):
    """limbs_lift against M = 0: the long division of pos by p alone."""
    rows = len(pos) // 2
    zero = np.zeros((2, 1, rows, rows), dtype=np.int64)
    return limbs_lift(zero, pos, np.zeros((2, rows), dtype=np.int64), p)


def random_positions(rnd, rows, width, bound):
    return np.array([[rnd.randint(-bound, bound) for _ in range(width)] for _ in range(rows)],
                    dtype=np.int64)


@pytest.mark.parametrize("bound", (1 << 14, 1 << 40, ROOM), ids=("2^14", "2^40", "room"))
def test_long_division_matches_divmod(bound):
    # positions of either sign, the top ones at the room when bound is the
    # room, made divisible by p in the lowest position; then one row bent
    # by +-1 in the lowest or highest position, which p no longer divides
    rnd = random.Random(bound)
    for width in (2, 3, 8):
        for _ in range(20):
            pos = random_positions(rnd, 6, width, bound)
            pos[:, 0] = np.maximum(pos[:, 0], P - bound)
            pos[:2, -1] = bound, -bound
            pos[:, 0] -= [v % P for v in position_values(pos)]
            quo = [v // P for v in position_values(pos)]
            assert [v % P for v in position_values(pos)] == [0] * 6
            assert position_values(divide(pos.copy(), P)) == quo
            for j in (0, width - 1):
                for d in (1, -1):
                    bent = pos.copy()
                    r = rnd.randrange(6)
                    bent[r, j] += d if abs(bent[r, j] + d) <= ROOM else -d
                    assert divide(bent, P) is None, (j, d)


def test_long_division_of_undivided_random_rows():
    # rows that p does not divide, as Python's divmod says
    rnd = random.Random(5)
    for _ in range(50):
        pos = random_positions(rnd, 4, 5, 1 << 50)
        assert (divide(pos, P) is None) == any(v % P for v in position_values(pos))


def test_residual_outside_the_room_raises():
    pos = np.zeros((4, 3), dtype=np.int64)
    for x in (ROOM, -ROOM):
        pos[1, 2] = x
        divide(pos.copy(), P)
    for x in (ROOM + 1, -ROOM - 1):
        pos[1, 2] = x
        with pytest.raises(ValueError, match="room"):
            divide(pos.copy(), P)


def zero_rows(rnd, rows, width):
    """Rows of value zero whose positions are far from zero: moves of k
    2^DIGIT_BITS from position j + 1 down to position j."""
    pos = np.zeros((rows, width), dtype=np.int64)
    for _ in range(3 * width):
        j = rnd.randrange(width - 1)
        k = rnd.randint(-(1 << 30), 1 << 30)
        pos[:, j] += k << DIGIT_BITS
        pos[:, j + 1] -= k
    return pos


def test_zero_test_matches_python_integers():
    rnd = random.Random(7)
    cases = [
        np.array([[-(1 << DIGIT_BITS), 1]]),
        np.array([[1 << DIGIT_BITS, -1, 0]]),
        # a carry out of the top position
        np.array([[0, 1 << DIGIT_BITS]]),
        np.array([[1 << DIGIT_BITS]]),
        np.array([[-(1 << DIGIT_BITS), 0]]),
        np.array([[0, 0, -(1 << 61)]]),
        np.array([[0, 0, 0]]),
    ]
    for width in (2, 4, 9):
        zero = zero_rows(rnd, 5, width)
        cases.append(zero)
        for j in (0, width - 1, rnd.randrange(width)):
            for d in (1, -1, 1 << DIGIT_BITS):
                bent = zero.copy()
                bent[rnd.randrange(5), j] += d
                cases.append(bent)
        cases.append(random_positions(rnd, 5, width, 1 << 40))
    vanishing = [not any(position_values(c)) for c in cases]
    assert any(vanishing) and not all(vanishing)
    for pos in cases:
        pos = np.asarray(pos, dtype=np.int64)
        assert _positions_vanish(pos) == (not any(position_values(pos))), pos.tolist()


def test_horner_matches_python_mod():
    rnd = random.Random(11)
    for p in (P, 7, (1 << 30) - 35):
        for bound in (1 << 14, 1 << 62):
            pos = random_positions(rnd, 6, 7, bound)
            assert _positions_mod(pos, p).tolist() == [v % p for v in position_values(pos)]


def test_one_panel_elimination_with_a_row_swap():
    # the whole stack is one panel, so a view of it would be the stack
    # itself and a row swap made in both would undo itself: member 0
    # needs the swap at column 0, member 1 none
    a, b = 5, 11
    need = [[0, 1, a], [1, 0, b], [1, 1, a + b]]
    plain = [[1, 0, b], [0, 1, a], [1, 1, a + b]]
    elim = nullspace_mod_np(np.array([need, plain], dtype=np.int64), P)
    assert elim is not None
    assert elim.lines.tolist() == [[P - b, P - a, 1]] * 2
    assert elim.rows.tolist() == [[1, 0, 2], [0, 1, 2]]
    assert elim.inverse.tolist() == [[[1, 0], [0, 1]]] * 2


def _limb_points(n):
    m = 2 * n
    return {
        "distinct": (random.Random(n).sample(range(1, 60), m), 1),
        "t-above-z": ([1 + (3 * k) % 9 for k in range(m)], 40),
        "large-z": ([(1 << 20) - 37 * k for k in range(m)], 3),
    }


#: the first 16 hex digits of the SHA-256 of dtype, shape and bytes of
#: kernel_matrix_limbs at the points of _limb_points
KERNEL_LIMB_DIGESTS = {
    1: ("88910c731a88f5ab", "88910c731a88f5ab", "7d5ed9048da11bdb"),
    2: ("eef6461be63596db", "c2329e5907f8bf8d", "a88acfa01ca71d8c"),
    3: ("fda9ca89069b3085", "fd822df31a741c42", "75a44db0b3c82534"),
    4: ("f6b193fe223abf84", "b25fb14ba0eb379a", "51d9607d1cf6ec6f"),
    5: ("3e4a2d82a78d9fd9", "189c0f1a5f5ea901", "1f47535aa0930d1c"),
    6: ("c5ea3f25b24e9383", "bdcf84c4b5bdd9ab", "b79595cb96898be6"),
    7: ("b2f1db6aa30fa408", "455e36fe6baf5b2c", "66ff26e62dee0ce1"),
}


@pytest.mark.parametrize("n", sorted(KERNEL_LIMB_DIGESTS))
def test_kernel_matrix_limbs_bytes_are_pinned(n):
    got = []
    for zs, t in _limb_points(n).values():
        limbs = kernel_matrix_limbs(n, zs, t)
        got.append(hashlib.sha256(f"{limbs.dtype}{limbs.shape}".encode()
                                  + limbs.tobytes()).hexdigest()[:16])
    assert tuple(got) == KERNEL_LIMB_DIGESTS[n]
