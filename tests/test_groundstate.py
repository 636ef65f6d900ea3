import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from loopsum import groundstate
from loopsum.cyclo import CycloNum, Q, Q_INV
from loopsum.golden import golden_groundstate
from loopsum.groundstate import (
    DegenerateKernelError,
    Groundstate,
    base_component,
    base_component_value,
    check_cyclic_reflection,
    check_exchange,
    check_factorization,
    check_monomial_property,
    check_normalization_chain,
    check_recursion_adjacent,
    check_recursion_general,
    check_t_independence,
    psi_point,
    psi_symbolic,
)
from loopsum.linkpat import fully_nested, pattern_index
from loopsum.mpoly import MPoly
from loopsum.schur import schur_symbolic, z_partition_function
from loopsum.solver import ExactMatrix, nullspace
from loopsum.tmatrix import eigenvalue, transfer_link, verify_spin_eigenvector

rng = random.Random(17)


def test_base_component_values():
    assert base_component(1) == MPoly.constant(2, 1)
    assert base_component_value(2, [1, 1, 1, 1]) == CycloNum(3, 0)
    assert base_component_value(3, [1] * 6) == CycloNum(27, 0)
    zs = rng.sample(range(1, 30), 4)
    assert base_component(2).eval(zs) == base_component_value(2, zs)


def test_base_component_closed_form_n2():
    z = [MPoly.variable(4, k) for k in range(4)]
    expect = (z[0] * Q - z[1] * Q_INV) * (z[3] * Q_INV - z[2] * Q)
    assert base_component(2) == expect


def test_psi_point_all_ones_n2():
    pv = psi_point(2, [1, 1, 1, 1])
    assert list(pv.values) == [CycloNum(3, 0), CycloNum(3, 0)]


def test_psi_point_all_ones_n3():
    pv = psi_point(3, [1] * 6)
    vals = sorted(int(v.a) for v in pv.values)
    assert vals == [27, 27, 27, 54, 54]
    assert all(v.b == 0 for v in pv.values)


def test_psi_point_matches_golden_at_point():
    zs = [1, 2, 3, 5]
    pv = psi_point(2, zs)
    golden = golden_groundstate(2)
    assert list(pv.values) == golden.values_at(zs)


def test_psi_point_requires_positive_rationals():
    with pytest.raises(ValueError):
        psi_point(2, [1, -2, 3, 5])


def exact_psi(n, zs, t):
    """Reference groundstate: the exact Fraction-elimination kernel of
    T - Lambda normalized to the closed form on the nested pattern, or None
    where that kernel is not one-dimensional or vanishes there."""
    lam = eigenvalue(t, zs)
    rows = transfer_link(t, zs, n).data
    basis = nullspace(ExactMatrix(
        [[x - lam if r == c else x for c, x in enumerate(row)]
         for r, row in enumerate(rows)]
    ))
    pi0 = pattern_index(n)[fully_nested(n).pairing]
    if len(basis) != 1 or not basis[0][pi0]:
        return None
    scale = base_component_value(n, zs) / basis[0][pi0]
    return tuple(x * scale for x in basis[0])


def test_psi_point_exact_and_modular_agree():
    for n in (2, 3, 4):
        zs = rng.sample(range(1, 30), 2 * n)
        assert psi_point(n, zs, t=7).values == exact_psi(n, zs, 7)


def test_psi_point_fractional_arguments():
    zs = [Fraction(1, 2), Fraction(3, 2), 2, Fraction(7, 3)]
    a = psi_point(2, zs)
    assert a.values == exact_psi(2, zs, a.t)
    assert a.values[pattern_index(2)[fully_nested(2).pairing]] == \
        base_component_value(2, zs)


def test_psi_point_equals_exact_kernel_on_grids():
    # every point psi_symbolic samples at n <= 3, t as the schedule picks
    # it, and fractional points off the grid
    points = [
        (n, list(head) + [1])
        for n in (1, 2, 3)
        for head in itertools.product(range(1, n + 1), repeat=2 * n - 1)
    ]
    frac = random.Random(5)
    points += [
        (n, [Fraction(frac.randint(1, 40), frac.randint(1, 6))
             for _ in range(2 * n)])
        for n in (2, 3, 3, 4)
    ]
    for n, zs in points:
        pv = psi_point(n, zs)
        assert all(exact_psi(n, zs, t) is None for t in range(1, int(pv.t))), zs
        assert pv.values == exact_psi(n, zs, pv.t), zs


def test_psi_point_degenerate_t_is_skipped():
    # at the homogeneous point t = 1 degenerates; the schedule moves on
    pv = psi_point(3, [1] * 6)
    assert pv.t == Fraction(2)


def test_psi_point_fixed_degenerate_t_raises():
    with pytest.raises(DegenerateKernelError):
        psi_point(3, [1] * 6, t=1)


class _CallBudgetExceeded(Exception):
    """A patched kernel helper ran more often than a bounded retry loop can."""


def _budgeted(real, corrupt, budget=4000):
    calls = [0]

    def patched(*args):
        calls[0] += 1
        if calls[0] > budget:
            raise _CallBudgetExceeded(f"{real.__name__} called {budget} times")
        return corrupt(calls[0], real(*args), *args)

    patched.calls = calls
    return patched


#: values at this point are integers: the symmetric CRT lift certifies them
#: before rational reconstruction is ever tried
INTEGER_POINT = [3, 1, 4, 6, 5, 9, 2, 7]
#: one fractional z makes the values fractional, so only rational
#: reconstruction can lift them
FRACTIONAL_POINT = [Fraction(3, 2), 1, 4, 6, 5, 9, 2, Fraction(7, 3)]

#: name -> (helper of _kernel_modular, point, corruption(call, true result, *args))
CORRUPTIONS = {
    "kernel-entry-off": ("nullspace_mod_np", INTEGER_POINT, lambda k, bases, stack, primes:
                         [[v[:-1] + [(v[-1] + 1) % primes[0]] for v in bases[0]]]
                         + bases[1:]),
    "kernel-zero-at-nested": ("nullspace_mod_np", INTEGER_POINT, lambda k, bases, stack, primes:
                              [[[0] * stack.shape[2]] for _ in bases]),
    "kernel-too-large": ("nullspace_mod_np", INTEGER_POINT,
                         lambda k, bases, stack, primes: [b + b for b in bases]),
    "lift-off-early": ("rational_reconstruct", FRACTIONAL_POINT, lambda k, frac, r, m:
                       frac + 1 if frac is not None and k <= 40 else frac),
    "lift-off-always": ("rational_reconstruct", FRACTIONAL_POINT, lambda k, frac, r, m:
                        None if frac is None else frac + 1),
    "crt-off-once-early": ("crt_lift", INTEGER_POINT, lambda k, res, r1, m1, r2, m2:
                           [(x + 1) % (m1 * m2) if j == 1 else x for j, x in enumerate(res)]
                           if k == 1 else res),
    "crt-off-always": ("crt_lift", INTEGER_POINT, lambda k, res, r1, m1, r2, m2:
                       [(x + 1) % (m1 * m2) for x in res]),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_modular_candidates_never_returned(monkeypatch, name):
    # the modular layer only proposes; a wrong candidate must end in the
    # exact vector or a typed error, within a bounded number of attempts
    target, zs, corrupt = CORRUPTIONS[name]
    exact = exact_psi(4, zs, 1)
    patched = _budgeted(getattr(groundstate, target), corrupt)
    monkeypatch.setattr(groundstate, target, patched)
    try:
        got = psi_point(4, zs, t=1)
    except DegenerateKernelError:
        got = None
    assert patched.calls[0] > 0, f"{target} never called"
    if got is not None:
        assert got.values == exact


def test_psi_point_one_elimination_per_point(monkeypatch):
    # the first batch of primes covers the integer n = 6 anchor points, so
    # each point solve eliminates all its matrices in one stacked call
    fixture = Path(__file__).parent / "fixtures" / "psi_points_n5_n6.json"
    points = [p for p in json.loads(fixture.read_text())["psi_point"]
              if p["n"] == 6 and all("/" not in z for z in p["z"])]
    assert len(points) == 2
    real = groundstate.nullspace_mod_np
    calls = []

    def counted(stack, primes):
        calls.append(len(primes))
        return real(stack, primes)

    monkeypatch.setattr(groundstate, "nullspace_mod_np", counted)
    for point in points:
        calls.clear()
        pv = psi_point(6, [Fraction(z) for z in point["z"]])
        assert [v.to_strings() for v in pv.values] == point["values"]
        assert len(calls) == 1 and calls[0] % 2 == 0


def test_psi_point_spin_certificate():
    zs = rng.sample(range(1, 30), 6)
    pv = psi_point(3, zs, spin_certificate=True)
    assert len(pv.values) == 5


def test_symbolic_matches_golden():
    for n in (1, 2, 3):
        g = psi_symbolic(n)
        gold = golden_groundstate(n)
        assert g.patterns == gold.patterns
        for a, b in zip(g.components, gold.components):
            assert a == b


def test_symbolic_degree_bounds():
    for n in (2, 3):
        g = psi_symbolic(n)
        for comp in g.components:
            assert comp.is_homogeneous() == n * (n - 1)
            assert all(comp.degree_in(v) <= n - 1 for v in range(2 * n))
        assert max(
            comp.degree_in(v) for comp in g.components for v in range(2 * n)
        ) == n - 1


def test_sum_components_symmetric_and_schur():
    g = psi_symbolic(2)
    w = g.sum_components()
    for i in range(3):
        assert w.swap_args(i, i + 1) == w
    assert w == schur_symbolic(2)
    zs = rng.sample(range(1, 30), 4)
    assert w.eval(zs) == z_partition_function(2, zs)


def test_eigen_residual_off_grid():
    # 20 random off-grid rational points, 2 random t each, exact residual
    for n in (2, 3):
        g = psi_symbolic(n)
        for _ in range(20):
            zs = [
                Fraction(rng.randint(7, 60), rng.randint(1, 5))
                for _ in range(2 * n)
            ]
            vals = g.values_at(zs)
            for _ in range(2):
                t = Fraction(rng.randint(2, 30), rng.randint(1, 3))
                tm = transfer_link(t, zs, n)
                lam = eigenvalue(t, zs)
                image = tm.apply(vals)
                assert all(
                    image[k] == lam * vals[k] for k in range(len(vals))
                )


def test_eigen_residual_spin_route_spot():
    g = psi_symbolic(3)
    zs = [Fraction(rng.randint(7, 60), rng.randint(1, 5)) for _ in range(6)]
    t = Fraction(rng.randint(2, 30))
    vals = g.values_at(zs)
    assert verify_spin_eigenvector(3, zs, t, vals)
    for k in range(len(vals)):
        bent = list(vals)
        bent[k] = bent[k] + 1
        assert not verify_spin_eigenvector(3, zs, t, bent), k


def test_recursion_adjacent_all_sites():
    g1, g2, g3 = psi_symbolic(1), psi_symbolic(2), psi_symbolic(3)
    for i in range(1, 4):
        assert check_recursion_adjacent(g2, g1, i).passed
    for i in range(1, 6):
        assert check_recursion_adjacent(g3, g2, i).passed


def test_recursion_checks_reject_a_changed_smaller_state():
    g2, g3 = psi_symbolic(2), psi_symbolic(3)
    for k in range(len(g2.components)):
        comps = list(g2.components)
        comps[k] = comps[k] + MPoly.variable(4, 0)
        bent = Groundstate(2, g2.patterns, tuple(comps))
        report = check_recursion_adjacent(g3, bent, 1)
        assert {c["kind"] for c in report.cases if not c["pass"]} == {"arch"}
        assert not check_recursion_general(g3, bent, 2, 5).passed


def test_exchange_identity():
    g2, g3 = psi_symbolic(2), psi_symbolic(3)
    for i in range(1, 5):
        assert check_exchange(g2, i).passed
    for i in range(1, 7):
        assert check_exchange(g3, i).passed


def test_factorization_vanishing():
    assert check_factorization(psi_symbolic(2)).passed
    assert check_factorization(psi_symbolic(3)).passed


def test_cyclic_reflection():
    assert check_cyclic_reflection(psi_symbolic(2)).passed
    assert check_cyclic_reflection(psi_symbolic(3)).passed


def test_monomial_property():
    assert check_monomial_property(psi_symbolic(2)).passed
    assert check_monomial_property(psi_symbolic(3)).passed


def test_t_independence():
    assert check_t_independence(2, [1, 2, 3, 5], ts=(7, 11, 13)).passed
    assert check_t_independence(3, [1, 2, 3, 5, 7, 11], ts=(7, 11)).passed


def test_recursion_general():
    g1, g2, g3 = psi_symbolic(1), psi_symbolic(2), psi_symbolic(3)
    assert check_recursion_general(g2, g1, 1, 3).passed
    assert check_recursion_general(g3, g2, 1, 4).passed
    assert check_recursion_general(g3, g2, 2, 5).passed
    # adjacent pair delegates, wrap pair reduces by rotation
    assert check_recursion_general(g2, g1, 1, 2).passed
    assert check_recursion_general(g3, g2, 5, 2).passed


def test_normalization_chain():
    states = [psi_symbolic(k) for k in (1, 2, 3)]
    assert check_normalization_chain(states).passed


def test_groundstate_json_roundtrip():
    g = psi_symbolic(2)
    data = g.to_json()
    back = Groundstate.from_json(data)
    assert back.components == g.components
    assert [p.pairing for p in back.patterns] == [p.pairing for p in g.patterns]


def test_groundstate_from_json_rejects_malformed_components():
    data = psi_symbolic(2).to_json()
    short = dict(data, components=data["components"][:1])
    with pytest.raises(ValueError):
        Groundstate.from_json(short)
    wide = dict(data, components=[
        MPoly.variable(5, 0).to_json() for _ in data["components"]
    ])
    with pytest.raises(ValueError):
        Groundstate.from_json(wide)
