import random
from fractions import Fraction

import pytest

from loopsum.asm import (
    ASMatrix,
    SixVertexConfig,
    SizeCapError,
    asm_product_formula,
    check_dwbc_oracle,
    dwbc_bruteforce,
    enumerate_asm,
    refined_counts,
    refined_generating_check,
)
from loopsum.cyclo import CycloNum, ONE

rng = random.Random(99)


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
    for n in (1, 2, 3):
        for _ in range(3):
            xs = rng.sample(range(1, 30), 2 * n)
            assert check_dwbc_oracle(n, xs).passed


def test_dwbc_matches_schur_fractional():
    xs = [Fraction(1, 2), 2, 3, Fraction(5, 3), 7, 4]
    assert check_dwbc_oracle(3, xs).passed


def test_dwbc_n4_spot():
    xs = rng.sample(range(1, 15), 8)
    assert check_dwbc_oracle(4, xs).passed


def test_dwbc_cap():
    with pytest.raises(SizeCapError):
        dwbc_bruteforce(5, list(range(1, 11)))


def test_refined_generating_identity():
    for n in (1, 2, 3):
        for _ in range(3):
            t, u = rng.randint(1, 12), rng.randint(1, 12)
            assert refined_generating_check(n, t, u).passed


def test_refined_generating_at_ones_gives_total():
    for n in (2, 3):
        assert refined_generating_check(n, 1, 1).passed


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
