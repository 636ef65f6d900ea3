import math
import random
from fractions import Fraction

import pytest

from grid_oracle import reconstruct_homogeneous
from mpoly_oracle import unpacked
from loopsum import schur, tmatrix
from loopsum.asm import asm_product_formula
from loopsum.cli import main
from loopsum.cyclo import CycloNum, ONE, Q
from loopsum.schur import (
    DegenerateDenominatorError,
    Partition,
    aba_residual,
    check_f_identity,
    check_tq,
    check_z_recursion,
    f_poly,
    poly_eval,
    poly_mul,
    q_poly,
    schur_eval,
    schur_symbolic,
    y_partition,
    y_tilde_partition,
    z_partition_function,
)
from loopsum.solver import ExactMatrix, det

rng = random.Random(7)


def _schur_bialternant(shape: Partition, x: list[CycloNum]) -> CycloNum:
    """s_shape(x) as det(x_i^(lam_j + n - j)) / Vandermonde, for pairwise
    distinct x: the oracle for schur_eval and schur_symbolic."""
    n = len(x)
    lam = list(shape.parts) + [0] * (n - shape.length())
    powers = [lam[j] + n - 1 - j for j in range(n)]
    num = det(ExactMatrix([[xi**e for e in powers] for xi in x]))
    den = ONE
    for i in range(n):
        for j in range(i + 1, n):
            den = den * (x[i] - x[j])
    return num / den


def test_partition_validation():
    assert Partition([3, 3, 0, 0]).parts == (3, 3)
    with pytest.raises(ValueError):
        Partition([1, 2])
    # parts go through the one rational coercion and must be integral
    assert Partition([Fraction(4, 2), True]).parts == (2, 1)
    assert all(type(x) is int for x in Partition([Fraction(4, 2), True]).parts)
    with pytest.raises(ValueError):
        Partition([Fraction(5, 2), 1])
    for bad in ([2.5, 1], [2.0, 1], ["3"]):
        with pytest.raises(TypeError):
            Partition(bad)


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
    for _ in range(10):
        xs = [CycloNum(x, 0) for x in rng.sample(range(1, 80), 6)]
        lam = y_partition(3)
        assert _schur_bialternant(lam, xs) == schur_eval(lam, xs)


def test_skew_values():
    # s_{21/1} = h_1^2 and s_{22/1} = s_{21}; an inner shape that does not
    # fit gives 0, and inner = shape gives 1
    x, y = CycloNum(2, 0), CycloNum(5, 0)
    assert schur_eval(Partition([2, 1]), [x, y], Partition([1])) == (x + y) ** 2
    assert schur_eval(Partition([2, 2]), [x, y], Partition([1])) == x * y * (x + y)
    assert schur_eval(Partition([1, 1]), [x, y], Partition([2])) == CycloNum(0, 0)
    assert schur_eval(Partition([1]), [x, y], Partition([1, 1])) == CycloNum(0, 0)
    assert schur_eval(Partition([2, 1]), [x], Partition([2, 1])) == ONE


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_skew_route_adds_one_variable(n):
    # sum_k s_{lam/(k)}(w) t^k = s_lam(w, t), the expansion behind q_poly's
    # Schur ratio; repeated w values are fine on both sides
    lam = y_partition(n)
    points = random.Random(300 + n)
    distinct = [Q * CycloNum(Fraction(a, 3), 0)
                for a in points.sample(range(1, 60), lam.length())]
    repeated = distinct[:-1] + distinct[:1]
    for w in (distinct, repeated):
        coeffs = [schur_eval(lam, w, Partition([k])) for k in range(lam.parts[0] + 1)]
        for t0 in (Fraction(3, 7), Fraction(-5, 2), Fraction(11, 1)):
            t = CycloNum(t0, 0)
            assert poly_eval(coeffs, t) == schur_eval(lam, w + [t]), (w, t0)
            if w is distinct:
                assert poly_eval(coeffs, t) == _schur_bialternant(lam, w + [t])


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
    assert prod == [CycloNum(-3, 0), CycloNum(-5, 0), CycloNum(2, 0)]
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
        report = check_tq(n, zs)
        assert report.passed
        assert "schur-ratio" in [case["kind"] for case in report.cases]


def test_q_poly_degree():
    for n in (1, 2, 3):
        zs = rng.sample(range(2, 30), 2 * n)
        assert len(q_poly(n, zs)) == n + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schur_ratio_times_roots_is_the_alternant(n):
    # Q(t) prod_i (t - q z_i) = F(t) at distinct points: the Schur ratio and
    # the alternant share no code
    points = random.Random(400 + n)
    for _ in range(2):
        zs = [Fraction(a, 3) for a in points.sample(range(1, 60), 2 * n)]
        roots = [ONE]
        for z in zs:
            roots = poly_mul(roots, [-(Q * CycloNum(z, 0)), ONE])
        assert poly_mul(q_poly(n, zs), roots) == f_poly(n, zs), zs


def test_q_and_f_guard_their_inputs():
    for fn in (q_poly, f_poly):
        with pytest.raises(ValueError, match="expected 4 arguments"):
            fn(2, [1, 2, 3])
        # s_(1)(q z) = q (z_1 + z_2) = 0, and F's denominator with it
        with pytest.raises(DegenerateDenominatorError):
            fn(1, [1, -1])


def test_repeated_z_has_a_schur_ratio_but_no_alternant():
    # the Schur ratio needs no distinct z: at z = (2, 2), Q(t) = t + q, and
    # the Bethe vector over its root passes; F's Vandermonde vanishes, so
    # f_poly, and with it check_tq, raises
    assert q_poly(1, [2, 2]) == [Q, ONE]
    assert aba_residual(1, [2, 2]) == {
        "n": 1, "residual": 0, "eigenvalue_error": 0, "subspace_angle": 0}
    for call in (f_poly, check_tq):
        with pytest.raises(DegenerateDenominatorError):
            call(1, [2, 2])


def _cases(report) -> dict:
    return {case["kind"]: case["pass"] for case in report.cases}


def test_bent_f_fails_the_identity_and_the_schur_ratio(monkeypatch):
    f_poly = schur.f_poly

    def bent(n, zs):
        f = f_poly(n, zs)
        return [f[0], f[1] + 1, *f[2:]]

    monkeypatch.setattr(schur, "f_poly", bent)
    zs = [1, 2, 3, 5, 7, 11]
    assert not check_f_identity(3, zs).passed
    assert _cases(check_tq(3, zs)) == {
        "degree": True, "functional-equation": True, "schur-ratio": False}


def test_bent_q_fails_the_functional_equation(monkeypatch):
    _bend_q(monkeypatch)
    assert _cases(check_tq(3, [1, 2, 3, 5, 7, 11])) == {
        "degree": True, "functional-equation": False, "schur-ratio": False}


def test_schur_symbolic_small():
    s2 = schur_symbolic(2)
    zs = rng.sample(range(1, 30), 4)
    assert s2.eval(zs) == z_partition_function(2, zs)
    assert s2.is_homogeneous() == 2


def test_schur_symbolic_cached_per_n_only():
    # the worker count does not change the polynomial, so it must not
    # start a second build
    assert schur_symbolic(2, threads=1) is schur_symbolic(2, threads=2)


def _schur_by_heads(n: int) -> dict:
    """The terms of s_{Y_n} by walking all n^(2n-1) heads of an
    exponent vector, the last entry fixed by the degree n(n-1), and sorting
    each vector for its content: the oracle for schur_symbolic's build from
    two halves."""
    from itertools import product

    shape, degree = y_partition(n).parts, n * (n - 1)
    memo: dict = {}
    coeffs: dict[tuple, tuple[int, int]] = {}
    terms = {}
    for head in product(range(n), repeat=2 * n - 1):
        last = degree - sum(head)
        if not 0 <= last < n:
            continue
        alpha = head + (last,)
        key = tuple(sorted(alpha, reverse=True))
        if key not in coeffs:
            content = tuple(a for a in key if a)
            coeffs[key] = (schur._kostka(shape, content, memo), 0)
        if coeffs[key][0]:
            terms[alpha] = coeffs[key]
    return terms


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schur_symbolic_matches_head_enumeration(n):
    s = schur_symbolic(n)
    assert unpacked(s) == _schur_by_heads(n)
    assert all(a and not b for a, b in s.terms.values())


@pytest.fixture(scope="module")
def kostka():
    yield {n: schur_symbolic(n) for n in range(2, 6)}
    # s_{Y_5} has 522,583 terms (a few hundred MB); do not keep it cached
    # for the rest of the session
    schur._SCHUR_CACHE.pop(5, None)


def _integer_value(poly, zs: list[int]) -> int:
    """poly at integer zs, for integer coefficients, in int arithmetic
    (CycloNum arithmetic in MPoly.eval takes over a minute at n = 5)."""
    return sum(int(c.a) * math.prod(map(pow, zs, e)) for e, c in poly.items())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kostka_expansion_matches_both_determinants(kostka, n):
    points = random.Random(100 + n)
    for _ in range(3):
        zs = points.sample(range(1, 60), 2 * n)
        value = CycloNum(_integer_value(kostka[n], zs), 0)
        assert value == z_partition_function(n, zs)
        assert value == _schur_bialternant(y_partition(n), [CycloNum(z, 0) for z in zs])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kostka_expansion_degrees(kostka, n):
    s = kostka[n]
    assert s.nvars == 2 * n
    assert s.is_homogeneous() == n * (n - 1)
    assert all(s.degree_in(v) <= n - 1 for v in range(2 * n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kostka_expansion_counts_asm(kostka, n):
    # every coefficient is a Kostka number, a positive integer, and
    # s_{Y_n}(1, ..., 1) = 3^(n(n-1)/2) A_n
    coeffs = [c for _, c in kostka[n].items()]
    assert all(not c.b and c.a.denominator == 1 and c.a > 0 for c in coeffs)
    assert sum(c.a for c in coeffs) == 3 ** (n * (n - 1) // 2) * asm_product_formula(n)


def _z_grid_values(n: int, point: tuple) -> list[CycloNum]:
    return [z_partition_function(n, list(point) + [1])]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kostka_expansion_equals_grid_rebuild(n):
    (rebuilt,) = reconstruct_homogeneous(_z_grid_values, n)
    assert schur_symbolic(n) == rebuilt


def test_aba_residuals():
    for n, zs in ((1, [2, 3]), (2, [1, 2, 3, 5]), (3, [1, 2, 3, 5, 7, 11])):
        out = aba_residual(n, zs)
        for field in ("residual", "eigenvalue_error", "subspace_angle"):
            assert out[field] == 0 and type(out[field]) is int, (n, field, out)


def _bend_q(monkeypatch):
    q_poly = schur.q_poly

    def bent(n, zs):
        q = q_poly(n, zs)
        return [q[0] + 1, *q[1:]]

    monkeypatch.setattr(schur, "q_poly", bent)


def _bend_weight(monkeypatch):
    r_matrix_spin = tmatrix.r_matrix_spin

    def bent(z, t):
        r = r_matrix_spin(z, t)
        r[1][2] = -r[1][2]  # the weight (q - q^{-1}) t
        return r

    monkeypatch.setattr(tmatrix, "r_matrix_spin", bent)


@pytest.mark.parametrize("bend", [_bend_q, _bend_weight])
def test_aba_residual_counts_a_perturbation(bend, monkeypatch, capsys):
    bend(monkeypatch)
    for n, zs in ((1, [2, 3]), (2, [1, 2, 3, 5]), (3, [1, 2, 3, 5, 7, 11])):
        out = aba_residual(n, zs)
        assert out["residual"] + out["eigenvalue_error"] + out["subspace_angle"], (n, out)
    assert main(["check-all", "2", "--seed", "3"]) == 1
    assert "[FAIL] aba-residual(n=2)" in capsys.readouterr().out


def test_aba_residual_takes_exact_values_only():
    assert aba_residual(1, [Fraction(2), Fraction(7, 2)])["residual"] < 1e-9
    with pytest.raises(TypeError):
        aba_residual(1, [2.0, 3])
