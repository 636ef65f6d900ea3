"""Every check can fail: one perturbed building block per check family,
and the check must report FAIL with a failing case that carries its
counterexample payload.  Each row monkeypatches a building block, or
bends the data a check reads, and leaves the source untouched.
"""

import json
import random
from dataclasses import replace

import pytest

from loopsum import asm, cli, groundstate
from loopsum.cyclo import OMEGA, ONE


def _failing_cases(report):
    assert not report.passed, report.check
    return [case for case in report.cases if not case["pass"]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dwbc_oracle_fails_on_a_bent_c_weight(n, monkeypatch):
    real = asm._vertex_weight

    def bent(kind, xrow, xcol):
        weight = real(kind, xrow, xcol)
        return weight + ONE if kind == "c" else weight

    monkeypatch.setattr(asm, "_vertex_weight", bent)
    xs = random.Random(n).sample(range(1, 25), 2 * n)
    (case,) = _failing_cases(asm.check_dwbc_oracle(n, xs))
    assert case["point"] == [str(x) for x in xs]
    assert case["lhs"] != case["rhs"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_refined_generating_fails_on_a_changed_count(n, monkeypatch):
    real = asm.refined_counts

    def changed(m):
        table = real(m)
        table[m - 1][0] += 1
        return table

    monkeypatch.setattr(asm, "refined_counts", changed)
    (case,) = _failing_cases(asm.refined_generating_check(n, 2, 3))
    assert (case["t"], case["u"]) == ("2", "3")
    assert case["lhs"] != case["rhs"]


def _times_w(comps):
    comps[4] = comps[4] * OMEGA


def _swapped(comps):
    comps[1], comps[2] = comps[2], comps[1]


# Psi_3 bent by data alone, each with the index of a pattern whose
# component moved
BENT_PSI3 = {"times-w": (4, _times_w), "swapped": (1, _swapped)}


def _bent_psi3(kind):
    k, bend = BENT_PSI3[kind]
    g = groundstate.psi_symbolic(3)
    comps = list(g.components)
    bend(comps)
    pat = g.patterns[k]
    arch = min(i for i in range(1, 6) if pat.partner(i) == i + 1)
    return replace(g, components=tuple(comps)), pat.to_chords_json(), arch


@pytest.mark.parametrize("check", ["exchange", "cyclic-reflection", "monomial",
                                   "recursion-adjacent"])
@pytest.mark.parametrize("kind", sorted(BENT_PSI3))
def test_psi_checks_fail_on_bent_data(kind, check):
    bent, chords, i = _bent_psi3(kind)
    report = {
        "exchange": lambda: groundstate.check_exchange(bent, i),
        "cyclic-reflection": lambda: groundstate.check_cyclic_reflection(bent),
        "monomial": lambda: groundstate.check_monomial_property(bent),
        "recursion-adjacent": lambda: groundstate.check_recursion_adjacent(
            bent, groundstate.psi_symbolic(2), i),
    }[check]()
    assert chords in [case["pattern"] for case in _failing_cases(report)]


@pytest.mark.parametrize("kind", sorted(BENT_PSI3))
def test_check_all_fails_on_a_bent_psi3(kind, monkeypatch, capsys):
    bent, chords, _ = _bent_psi3(kind)
    monkeypatch.setitem(groundstate._SYMBOLIC_CACHE, 3, bent)
    assert cli.main(["check-all", "3", "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    # not only golden-match: the checks of the identities see it too
    assert {"cyclic-reflection(n=3)", "monomial(n=3)"} <= {c["check"] for c in checks
                                                         if not c["pass"]}
    failing = [case for c in checks for case in c["cases"] if not case["pass"]]
    assert chords in [case.get("pattern") for case in failing]
