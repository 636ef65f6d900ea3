import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from grid_oracle import psi_grid_values, reconstruct_homogeneous
from mpoly_oracle import evaluate, to_strings
from loopsum import groundstate, modular
from loopsum.cyclo import CycloNum, Q, Q_INV
from loopsum.golden import golden_groundstate
from loopsum.groundstate import (
    DegenerateKernelError,
    ExchangeStuckError,
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
from loopsum.linkpat import consecutive_arches, fully_nested, pattern_index
from loopsum.mpoly import HomogenizationMismatchError, MPoly
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
    # every point the grid oracle samples at n <= 3, t as the schedule
    # picks it, and fractional points off the grid
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


#: an integer point: the solve runs at z itself
INTEGER_POINT = [3, 1, 4, 6, 5, 9, 2, 7]
#: a fractional point: the solve runs at z scaled to integers by s = 6,
#: and the lifted values are divided by s^12 afterwards
FRACTIONAL_POINT = [Fraction(3, 2), 1, 4, 6, 5, 9, 2, Fraction(7, 3)]


def _off_by_one(digit):
    out = digit.copy()
    out[0, 1] += 1
    return out


def _digit_off_once(call):
    def corrupt(k, digit, *args):
        return _off_by_one(digit) if k == call else digit
    return corrupt


def _digit_off_always(k, digit, *args):
    return _off_by_one(digit)


def _inverse_entry_off(elim, p):
    # an eta entry below the first pivot of the first embedding
    inverse = elim.inverse.copy()
    inverse[0, 1, 0] = (inverse[0, 1, 0] + 1) % p
    return elim._replace(inverse=inverse)


def _quotient_off_once(k, residual, *args):
    # row 1 of the quotient off by one: its lowest position, worth 1
    if k != 1 or residual is None:
        return residual
    out = residual.copy()
    out[1, 0] += 1
    return out


def _kernel_entry_off(k, elim, stack, p):
    lines = elim.lines.copy()
    lines[0, -1] = (lines[0, -1] + 1) % p
    return elim._replace(lines=lines)


#: name -> (helper of modular.kernel_vector, point, corruption(call, true result, *args)).
#: nullspace_mod_np is the elimination: its kernel lines are digit 0, its
#: pivot-row inverse solves every later digit, and None says that some
#: embedding has no line.  _solve_digit is the digit
#: solve: each digit from the elimination's kernel line and, after digit
#: 0, the pivot-row inverse, its two embeddings combined by CRT over Z[w];
#: the crt-* and lift-off-* entries corrupt it.  limbs_lift is the exact
#: residual and its divisibility test, limbs_vanish the certificate.
CORRUPTIONS = {
    "kernel-entry-off": ("nullspace_mod_np", INTEGER_POINT, _kernel_entry_off),
    "kernel-zero-at-nested": ("nullspace_mod_np", INTEGER_POINT, lambda k, elim, *args:
                              elim._replace(lines=0 * elim.lines)),
    # a kernel larger than one line at the first prime only, then at every prime
    "kernel-too-large": ("nullspace_mod_np", INTEGER_POINT, lambda k, elim, *args:
                         None if k == 1 else elim),
    "kernel-empty": ("nullspace_mod_np", INTEGER_POINT, lambda k, elim, *args: None),
    # a later digit once, then every digit, at the fractional point
    "lift-off-early": ("_solve_digit", FRACTIONAL_POINT, _digit_off_once(2)),
    "lift-off-always": ("_solve_digit", FRACTIONAL_POINT, _digit_off_always),
    # digit 0 once, then every digit, at the integer point
    "crt-off-once-early": ("_solve_digit", INTEGER_POINT, _digit_off_once(1)),
    "crt-off-always": ("_solve_digit", INTEGER_POINT, _digit_off_always),
    # one entry of the pivot-row inverse, once, then always
    "inverse-entry-off-once": ("nullspace_mod_np", INTEGER_POINT, lambda k, elim, stack, p:
                               _inverse_entry_off(elim, p) if k == 1 else elim),
    "inverse-entry-off-always": ("nullspace_mod_np", FRACTIONAL_POINT, lambda k, elim, stack, p:
                                 _inverse_entry_off(elim, p)),
    # the divisibility test: a false strike once, every step, and a wrong
    # quotient passed as exact once
    "divisibility-false-strike": ("limbs_lift", INTEGER_POINT,
                                  lambda k, residual, *args: None if k == 1 else residual),
    "divisibility-always-fails": ("limbs_lift", FRACTIONAL_POINT,
                                  lambda k, residual, *args: None),
    "divisibility-quotient-off": ("limbs_lift", FRACTIONAL_POINT, _quotient_off_once),
    # the certificate: a false failure at the first prime, then at every prime
    "certificate-false-once": ("limbs_vanish", FRACTIONAL_POINT,
                               lambda k, ok, *args: False if k == 1 else ok),
    "certificate-false-always": ("limbs_vanish", INTEGER_POINT, lambda k, ok, *args: False),
}

#: corruptions whose outcome is fixed: a strike at one prime only must end
#: in the exact vector from the next, and a strike at every prime in
#: DegenerateKernelError
ONCE = {"kernel-too-large", "divisibility-false-strike", "certificate-false-once",
        "inverse-entry-off-once"}
ALWAYS = {"kernel-empty", "divisibility-always-fails", "certificate-false-always",
          "inverse-entry-off-always"}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_modular_candidates_never_returned(monkeypatch, name):
    # the modular layer only proposes; a wrong candidate must end in the
    # exact vector or a typed error, within a bounded number of attempts
    target, zs, corrupt = CORRUPTIONS[name]
    exact = exact_psi(4, zs, 1)
    patched = _budgeted(getattr(modular, target), corrupt)
    monkeypatch.setattr(modular, target, patched)
    try:
        got = psi_point(4, zs, t=1)
    except DegenerateKernelError:
        got = None
    assert patched.calls[0] > 0, f"{target} never called"
    if got is not None:
        assert got.values == exact
    if name in ONCE:
        assert got is not None
    if name in ALWAYS:
        assert got is None


def test_psi_point_one_elimination_per_point(monkeypatch):
    # one prime serves every anchor point, fractional ones included: each
    # point solve eliminates the two embeddings of w in one stacked call
    # and lifts the rest
    fixture = Path(__file__).parent / "fixtures" / "psi_points_n5_n6.json"
    points = json.loads(fixture.read_text())["psi_point"]
    assert len(points) == 6
    assert sum(any("/" in z for z in p["z"]) for p in points) == 2
    real = modular.nullspace_mod_np
    calls = []

    def counted(stack, p):
        calls.append(len(stack))
        return real(stack, p)

    monkeypatch.setattr(modular, "nullspace_mod_np", counted)
    for point in points:
        calls.clear()
        pv = psi_point(point["n"], [Fraction(z) for z in point["z"]])
        assert [to_strings(v) for v in pv.values] == point["values"]
        # one prime, its two embeddings of w
        assert calls == [2], point["z"]


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symbolic_equals_grid_rebuild(n):
    # the exchange construction against interpolation of point solves
    rebuilt = reconstruct_homogeneous(psi_grid_values, n)
    assert list(psi_symbolic(n).components) == rebuilt


def test_exchange_steps():
    # the rows of the exchange relation psi_symbolic solves through, as
    # check_exchange's docstring states them; never the cyclic i = 2n
    for n, sites in ((1, []), (2, []), (3, [3]), (4, [4, 1])):
        known = {fully_nested(n): base_component(n)}
        steps = groundstate._complete_by_exchange(n, known)
        assert [i for i, _ in steps] == sites


def test_exchange_cyclic_site_n4():
    # i = 2n wraps to (z_8, z_1): no construction step uses that relation
    assert check_exchange(psi_symbolic(4), 8).passed


def test_exchange_stuck_never_guesses():
    # no start at all, and a start (the orbit of the all-little-arch
    # pattern at n = 3) where every arch leaves two or more unknowns
    g = psi_symbolic(3)
    arches = consecutive_arches(3)
    for known in ({}, {arches: g.component(arches)}):
        with pytest.raises(ExchangeStuckError):
            groundstate._complete_by_exchange(3, known)


def test_perturbed_exchange_step_is_caught(monkeypatch):
    # one term dropped from the divided difference of the single n = 3
    # step: validation must refuse the result, and nothing is cached
    divided_difference = MPoly.divided_difference

    def drop_a_term(self, i, j):
        terms = dict(divided_difference(self, i, j).items())
        terms.pop(min(terms))
        return MPoly(self.nvars, terms)

    monkeypatch.setattr(MPoly, "divided_difference", drop_a_term)
    monkeypatch.delitem(groundstate._SYMBOLIC_CACHE, 3, raising=False)
    with pytest.raises(HomogenizationMismatchError):
        psi_symbolic(3)
    assert 3 not in groundstate._SYMBOLIC_CACHE


def test_validate_symbolic_degree_guards():
    g = psi_symbolic(2)
    z1 = MPoly.variable(4, 0)
    k = pattern_index(2)[fully_nested(2).pairing]
    for bent in (g.components[k] * z1, g.components[k] + z1 * z1):
        comps = list(g.components)
        comps[k] = bent
        with pytest.raises(HomogenizationMismatchError, match="degree"):
            groundstate._validate_symbolic(Groundstate(2, g.patterns, tuple(comps)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nested_component_is_its_closed_form(n):
    # validation does not compare the nested component with its closed
    # form: the exchange build starts from the memoized closed form and
    # never overwrites it, so the stored component is that very object
    assert psi_symbolic(n).component(fully_nested(n)) is base_component(n)


def _spread(total: int, cap: int, width: int) -> tuple:
    """An exponent vector of the given total with entries at most cap."""
    return tuple(min(cap, max(0, total - cap * v)) for v in range(width))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_within_degree_bounds_refuses_one_bad_term(n):
    # one exponent of n at the right total degree, or one term of total
    # degree n(n-1) + 1 with every exponent at most n - 1, fails the bound
    m, deg = 2 * n, n * (n - 1)
    comp = psi_symbolic(n).components[0]
    assert groundstate.within_degree_bounds(comp, n)
    high = (n,) + _spread(deg - n, n - 1, m - 1)
    heavy = _spread(deg + 1, n - 1, m)
    assert sum(high) == deg and max(heavy) == n - 1 and sum(heavy) == deg + 1
    for bad in (high, heavy):
        assert not groundstate.within_degree_bounds(comp + MPoly(m, {bad: 1}), n)


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


@pytest.mark.parametrize("n", [2, 3])
def test_values_at_matches_term_by_term(n):
    g = psi_symbolic(n)
    for zs in ([Fraction(3 + 2 * k, 7) for k in range(2 * n)],
               [CycloNum(k + 1, Fraction(-k, 2)) for k in range(2 * n)]):
        assert g.values_at(zs) == [evaluate(dict(c.items()), zs) for c in g.components]


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
    assert check_t_independence(2, [1, 2, 3, 5]).passed
    assert check_t_independence(3, [1, 2, 3, 5, 7, 11]).passed


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
