"""Every check can fail: one perturbed building block per check family,
and the check must report FAIL with a failing case that carries its
counterexample payload.  Each row monkeypatches a building block and
leaves the source untouched.
"""

import random

import pytest

from loopsum import asm
from loopsum.cyclo import ONE


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
