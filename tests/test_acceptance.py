"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every assertion is an exact equality in Q(w); the only tolerances appear in
the quarantined floating-point Bethe-ansatz residual (criterion 7).
"""

import random

from mpoly_oracle import unpacked
from loopsum.asm import (
    asm_product_formula,
    check_dwbc_oracle,
    enumerate_asm,
    refined_generating_check,
)
from loopsum.cyclo import CycloNum
from loopsum.golden import golden_groundstate
from loopsum.groundstate import (
    check_cyclic_reflection,
    check_exchange,
    check_factorization,
    check_monomial_property,
    check_recursion_adjacent,
    check_t_independence,
    psi_point,
    psi_symbolic,
)
from loopsum.schur import (
    aba_residual,
    check_f_identity,
    check_tq,
    schur_symbolic,
    z_partition_function,
)
from loopsum.tmatrix import (
    check_arch_insertion,
    check_interlacing,
    check_unitarity,
    check_yang_baxter,
)

SEED = 20061123


def _criterion(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {name}"


def test_criterion_1_golden_match():
    ok = True
    for n in (2, 3):
        g = psi_symbolic(n)
        gold = golden_groundstate(n)
        ok &= all(a == b for a, b in zip(g.components, gold.components))
        ones = g.values_at([1] * (2 * n))
        scale = 3 ** (n * (n - 1) // 2)
        multiset = sorted(int(v.a) for v in ones)
        expect = sorted(scale * k for k in ([1, 1] if n == 2 else [1, 1, 1, 2, 2]))
        ok &= multiset == expect and all(v.b == 0 for v in ones)
    _criterion(1, "golden components for n = 2, 3", ok)


def test_criterion_2_sum_rule():
    ok = True
    for n in (2, 3, 4):
        ok &= psi_symbolic(n).sum_components() == schur_symbolic(n)
    rng = random.Random(SEED)
    for n in (5, 6):
        for k in range(100):
            zs = rng.sample(range(1, 61), 2 * n)
            pv = psi_point(n, zs, spin_certificate=(k < 2))
            total = CycloNum(0, 0)
            for v in pv.values:
                total = total + v
            ok &= total == z_partition_function(n, zs)
            if not ok:
                break
    _criterion(2, "sum rule: symbolic n <= 4, 100 points n = 5, 6", ok)


def test_criterion_3_asm_specialization():
    ok = True
    for n in range(1, 6):
        scale = 3 ** (n * (n - 1) // 2)
        if n <= 4:
            total = psi_symbolic(n).sum_components().eval([1] * (2 * n))
        else:
            pv = psi_point(n, [1] * (2 * n))
            total = CycloNum(0, 0)
            for v in pv.values:
                total = total + v
        a_n = len(enumerate_asm(n)) if n <= 4 else asm_product_formula(n)
        ok &= total == CycloNum(scale * a_n, 0)
        ok &= a_n == asm_product_formula(n)
    _criterion(3, "3^{-n(n-1)/2} W_n(1..1) = ASM count, n = 1..5", ok)


def test_criterion_4_recursion():
    ok = True
    for n in (2, 3, 4):
        g = psi_symbolic(n)
        small = psi_symbolic(n - 1)
        for i in range(1, 2 * n):
            ok &= check_recursion_adjacent(g, small, i).passed
    _criterion(4, "arch recursion at z_{i+1} = q^2 z_i, n = 2, 3, 4", ok)


def test_criterion_5_degrees():
    ok = True
    for n in (1, 2, 3, 4):
        g = psi_symbolic(n)
        bound = 2 * n * n * (n + 1)
        maxdeg = 0
        for comp in g.components:
            ok &= comp.is_homogeneous() == n * (n - 1)
            for v in range(2 * n):
                d = comp.degree_in(v)
                maxdeg = max(maxdeg, d)
                ok &= d <= n - 1
            ok &= max(map(sum, unpacked(comp)), default=0) <= bound
        if n >= 2:
            ok &= maxdeg == n - 1
    _criterion(5, "homogeneous degree n(n-1), per-variable degree n-1", ok)


def test_criterion_6_oracle_triangle():
    rng = random.Random(SEED + 6)
    ok = True
    for n in (1, 2, 3):
        for _ in range(20):
            ok &= check_dwbc_oracle(n, rng.sample(range(1, 40), 2 * n)).passed
    for _ in range(5):
        ok &= check_dwbc_oracle(4, rng.sample(range(1, 15), 8)).passed
    for n in (1, 2, 3, 4):
        for _ in range(10):
            t, u = rng.randint(1, 20), rng.randint(1, 20)
            ok &= refined_generating_check(n, t, u).passed
    _criterion(6, "six-vertex enumeration = Schur = refined ASM counts", ok)


def test_criterion_7_bethe_suite():
    rng = random.Random(SEED + 7)
    ok = True
    for n in (2, 3):
        for _ in range(10):
            zs = rng.sample(range(1, 40), 2 * n)
            ok &= check_f_identity(n, zs).passed
            ok &= check_tq(n, zs).passed
    for n in (1, 2):
        out = aba_residual(n, rng.sample(range(1, 12), 2 * n))
        ok &= out["residual"] < 1e-9
        ok &= out["eigenvalue_error"] < 1e-9
        ok &= out["subspace_angle"] < 1e-9
    _criterion(7, "T-Q functional equations exactly, Bethe vector < 1e-9", ok)


def test_criterion_8_structural_identities():
    rng = random.Random(SEED + 8)
    ok = True
    for n in (2, 3):
        for _ in range(10):
            ok &= check_yang_baxter(n, *rng.sample(range(1, 50), 3)).passed
            ok &= check_unitarity(n, *rng.sample(range(1, 50), 2)).passed
            zs = rng.sample(range(1, 50), 2 * n)
            i = rng.randint(1, 2 * n)
            ok &= check_interlacing(n, rng.randint(1, 30), zs, i).passed
            ok &= check_arch_insertion(
                n, rng.randint(1, 30), rng.sample(range(1, 50), 2 * n - 2),
                rng.randint(1, 2 * n - 1), rng.randint(1, 30),
            ).passed
    for n in (2, 3):
        g = psi_symbolic(n)
        ok &= check_cyclic_reflection(g).passed
        for i in range(1, 2 * n + 1):
            ok &= check_exchange(g, i).passed
        ok &= check_factorization(g).passed
        ok &= check_monomial_property(g).passed
        ok &= check_t_independence(n, rng.sample(range(1, 30), 2 * n)).passed
    # size 4, where runtime permits: the coefficient-level properties
    g4 = psi_symbolic(4)
    ok &= check_monomial_property(g4).passed
    ok &= check_cyclic_reflection(g4).passed
    ok &= check_t_independence(4, rng.sample(range(1, 30), 8)).passed
    _criterion(8, "Yang-Baxter, unitarity, covariance, exchange, monomials", ok)
