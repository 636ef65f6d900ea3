import random
from fractions import Fraction

import pytest

from sixvertex_oracle import SixVertexConfig, dwbc_bruteforce
from loopsum.asm import (
    ASMatrix,
    SizeCapError,
    asm_product_formula,
    check_dwbc_oracle,
    dwbc_partition,
    enumerate_asm,
    refined_counts,
    refined_generating_check,
)
from loopsum.cyclo import CycloNum, ONE, ZETA


def test_enumeration_counts():
    assert [len(enumerate_asm(n)) for n in (1, 2, 3, 4)] == [1, 2, 7, 42]


def test_enumeration_cap():
    with pytest.raises(SizeCapError):
        enumerate_asm(6)


def test_product_formula():
    assert [asm_product_formula(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 7, 42, 429]


def test_asm_validation():
    with pytest.raises(ValueError):
        ASMatrix(2, ((1, 1), (0, -1)))
    with pytest.raises(ValueError):
        ASMatrix(2, ((-1, 1), (1, 0)))  # first nonzero must be +1 (rows/cols)


def test_refined_counts_small():
    assert refined_counts(1) == [[1]]
    table = refined_counts(2)
    assert table == [[1, 0], [0, 1]]
    table3 = refined_counts(3)
    assert [sum(r) for r in table3] == [2, 3, 2]
    assert sum(sum(r) for r in table3) == 7


def test_refined_total_matches_formula():
    for n in (1, 2, 3, 4):
        assert sum(sum(r) for r in refined_counts(n)) == asm_product_formula(n)


def test_six_vertex_bijection_and_ice_rule():
    for n in (1, 2, 3):
        configs = {SixVertexConfig.from_asm(a) for a in enumerate_asm(n)}
        assert len(configs) == asm_product_formula(n)


def test_six_vertex_rejects_bad_boundary():
    cfg = SixVertexConfig.from_asm(enumerate_asm(2)[0])
    bad_h = tuple(tuple(1 - x for x in row) for row in cfg.h)
    with pytest.raises(ValueError):
        SixVertexConfig(2, bad_h, cfg.v)


def test_vertex_kinds_count():
    # every ASM of size 2 has two c vertices (the two 1 entries)
    for a in enumerate_asm(2):
        cfg = SixVertexConfig.from_asm(a)
        kinds = [cfg.vertex_kind(i, j) for i in (1, 2) for j in (1, 2)]
        assert kinds.count("c") == 2


def test_dwbc_trivial_size():
    assert dwbc_bruteforce(1, [5, 7]) == ONE


def test_dwbc_all_ones():
    assert dwbc_bruteforce(2, [1, 1, 1, 1]) == CycloNum(6, 0)


def test_dwbc_matches_schur():
    rng = random.Random(99)
    for n in (1, 2, 3):
        for _ in range(3):
            xs = rng.sample(range(1, 30), 2 * n)
            assert check_dwbc_oracle(n, xs).passed


def test_dwbc_matches_schur_fractional():
    xs = [Fraction(1, 2), 2, 3, Fraction(5, 3), 7, 4]
    assert check_dwbc_oracle(3, xs).passed


def test_dwbc_n4_spot():
    xs = random.Random(104).sample(range(1, 15), 8)
    assert check_dwbc_oracle(4, xs).passed


def test_dwbc_cap():
    with pytest.raises(SizeCapError):
        dwbc_bruteforce(5, list(range(1, 11)))


def _distinct_squares(draw, n):
    """2n values from draw() whose squares are distinct and nonzero."""
    xs: list = []
    while len(xs) < 2 * n:
        x = draw()
        if x and all(x * x != y * y for y in xs):
            xs.append(x)
    return xs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dwbc_partition_matches_enumeration(n):
    rng = random.Random(n)
    draws = (
        lambda: rng.randint(1, 30),
        lambda: Fraction(rng.randint(1, 30), rng.randint(1, 7)),
        lambda: rng.randint(-30, 30),
    )
    points = [_distinct_squares(draw, n) for draw in draws for _ in range(2)]
    # a row and a column may share a parameter
    points.append(list(range(1, n + 1)) * 2)
    for xs in points:
        assert dwbc_partition(n, xs) == dwbc_bruteforce(n, xs), xs


@pytest.mark.parametrize("n", [5, 6, 7])
def test_dwbc_oracle_beyond_the_enumeration(n):
    rng = random.Random(n)
    for _ in range(2):
        assert check_dwbc_oracle(n, rng.sample(range(1, 40), 2 * n)).passed


@pytest.mark.parametrize(
    "xs, match",
    [([2, 2, 3, 5], "equal squares"), ([1, 3, 2, -2], "equal squares"),
     ([0, 3, 0, 5], "zero parameter"), ([0, 3, 1, 5], "zero parameter"),
     ([ZETA, 3, 1, 5], "weight a or b"), ([1, 2, 3], "expected 4")],
    ids=["repeated-row", "opposite-columns", "zero-row-and-column", "zero-row",
         "vanishing-a", "length"],
)
def test_dwbc_partition_rejects_a_vanishing_denominator(xs, match):
    with pytest.raises(ValueError, match=match):
        dwbc_partition(2, xs)


def test_refined_generating_identity():
    rng = random.Random(113)
    for n in (1, 2, 3):
        for _ in range(3):
            t, u = rng.randint(1, 12), rng.randint(1, 12)
            assert refined_generating_check(n, t, u).passed


def test_refined_generating_at_ones_gives_total():
    for n in (2, 3):
        assert refined_generating_check(n, 1, 1).passed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_refined_generating_has_no_pole_at_rational_points(n):
    # q + t = t + 1 w has w-part 1 for rational t, so no rational t or u,
    # 0, -1 and -1/2 included, is a pole of the specialization
    for t, u in ((0, 0), (-1, Fraction(-1, 2)), (Fraction(-1, 2), -1), (Fraction(5, 3), 0)):
        assert refined_generating_check(n, t, u).passed, (t, u)


def test_refined_generating_takes_exact_rationals_only():
    assert refined_generating_check(2, Fraction(7, 3), Fraction(1, 2)).passed
    for t, u in (("7/3", 2), (1.5, 2), (2, 0.5)):
        with pytest.raises(TypeError):
            refined_generating_check(2, t, u)


def test_refined_generating_n2_polynomial_structure():
    # with u = 1 the generating function must reduce to 1 + t
    from loopsum.cyclo import Q
    from loopsum.schur import z_partition_function

    t = Fraction(4)
    qt = Q * t + ONE
    dt = Q + t
    du = Q + Fraction(1)
    zs = [qt / dt, (Q + ONE) / du, ONE, ONE]
    lhs = (Q * Q * dt * du) * z_partition_function(2, zs) / CycloNum(3, 0)
    assert lhs == CycloNum(1 + t, 0)
