import random
from fractions import Fraction

import pytest

from loopsum.asm import asm_product_formula
from loopsum.cyclo import CycloNum, ONE, Q
from loopsum.schur import (
    Partition,
    aba_residual,
    check_f_identity,
    check_tq,
    check_z_recursion,
    f_poly,
    poly_divmod,
    poly_eval,
    poly_mul,
    q_poly,
    schur_eval,
    schur_symbolic,
    y_partition,
    y_tilde_partition,
    z_partition_function,
)

rng = random.Random(7)


def test_partition_validation():
    assert Partition([3, 3, 0, 0]).parts == (3, 3)
    with pytest.raises(ValueError):
        Partition([1, 2])


def test_shapes():
    assert y_partition(2).parts == (1, 1)
    assert y_partition(3).parts == (2, 2, 1, 1)
    assert y_tilde_partition(2).parts == (2, 1, 1)


def test_schur_values():
    assert schur_eval(Partition([1, 1]), [1, 1, 1, 1]) == CycloNum(6, 0)
    assert schur_eval(y_partition(3), [1] * 6) == CycloNum(189, 0)
    assert schur_eval(Partition([]), [5, 7]) == ONE


def test_schur_more_parts_than_variables():
    assert schur_eval(Partition([1, 1, 1]), [2, 3]) == CycloNum(0, 0)


def test_schur_symmetric_under_permutation():
    xs = [CycloNum(x, 0) for x in rng.sample(range(1, 50), 6)]
    base = schur_eval(y_partition(3), xs)
    for _ in range(4):
        perm = xs[:]
        rng.shuffle(perm)
        assert schur_eval(y_partition(3), perm) == base


def test_routes_agree_on_distinct_points():
    from loopsum.schur import _schur_bialternant

    for _ in range(10):
        xs = [CycloNum(x, 0) for x in rng.sample(range(1, 80), 6)]
        lam = y_partition(3)
        assert _schur_bialternant(lam, xs) == schur_eval(lam, xs)


def test_z_values():
    assert z_partition_function(1, [3, 4]) == ONE
    assert z_partition_function(2, [1, 1, 1, 1]) == CycloNum(6, 0)
    # equals e_2 for n = 2
    zs = rng.sample(range(1, 30), 4)
    e2 = sum(zs[i] * zs[j] for i in range(4) for j in range(i + 1, 4))
    assert z_partition_function(2, zs) == CycloNum(e2, 0)


def test_z_all_ones_counts_asm():
    for n in range(1, 7):
        val = z_partition_function(n, [1] * (2 * n))
        assert val == CycloNum(3 ** (n * (n - 1) // 2) * asm_product_formula(n), 0)


def test_z_recursion():
    for n in (2, 3):
        for i in (1, n, 2 * n - 1):
            rest = rng.sample(range(1, 40), 2 * n - 1)
            assert check_z_recursion(n, i, rest).passed


def test_poly_helpers():
    a = [CycloNum(1, 0), CycloNum(2, 0)]  # 1 + 2t
    b = [CycloNum(-3, 0), ONE]  # t - 3
    prod = poly_mul(a, b)
    quot, rem = poly_divmod(prod, b)
    assert quot == a and rem == []
    assert poly_eval(prod, CycloNum(3, 0)) == CycloNum(0, 0)


def test_f_poly_structure():
    for n in (2, 3):
        zs = rng.sample(range(1, 30), 2 * n)
        f = f_poly(n, zs)
        assert len(f) == 3 * n + 1 and f[-1] == ONE
        assert all(not f[3 * k + 1] for k in range(n))
        for z in zs:
            assert not poly_eval(f, Q * CycloNum(z, 0))


def test_f_identity_and_tq():
    for n in (2, 3):
        zs = rng.sample(range(1, 30), 2 * n)
        assert check_f_identity(n, zs).passed
        assert check_tq(n, zs).passed


def test_q_poly_degree():
    for n in (1, 2, 3):
        zs = rng.sample(range(2, 30), 2 * n)
        assert len(q_poly(n, zs)) == n + 1


def test_schur_symbolic_small():
    s2 = schur_symbolic(2)
    zs = rng.sample(range(1, 30), 4)
    assert s2.eval(zs) == z_partition_function(2, zs)
    assert s2.is_homogeneous() == 2


def test_schur_symbolic_cached_per_n_only():
    # the worker count does not change the polynomial, so it must not
    # start a second build
    assert schur_symbolic(2, threads=1) is schur_symbolic(2, threads=2)


def test_aba_residuals():
    for n, zs in ((1, [2, 3]), (2, [1, 2, 3, 5])):
        out = aba_residual(n, zs)
        assert out["residual"] < 1e-9
        assert out["eigenvalue_error"] < 1e-9
        assert out["subspace_angle"] < 1e-9


def test_aba_residual_takes_exact_values_only():
    assert aba_residual(1, [Fraction(2), Fraction(7, 2)])["residual"] < 1e-9
    with pytest.raises(TypeError):
        aba_residual(1, [2.0, 3])
