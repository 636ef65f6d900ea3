"""Regression anchors: exact outputs the pipeline must keep producing.

A digest is the SHA-256 of the canonical JSON of ``to_json()`` (sorted
keys, no whitespace), the form the benchmark's digest uses; the
``check_all`` and ``asm_tables`` digests take the ``check-all N --json`` and
``asm-tables N --json`` reports at the default seed without their
``timings``.  The fixture holds exact ``psi_point`` values
at three fixed points each for n = 5 and n = 6, as canonical strings, and
F(t) and Q(t) at n = 3 are kept at one fixed point.  Any refactor of the
construction must leave all of them unchanged.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from mpoly_oracle import to_strings
from loopsum.cli import main
from loopsum.groundstate import psi_point, psi_symbolic
from loopsum.schur import f_poly, q_poly, schur_symbolic

DIGESTS = {
    "psi_symbolic_2": "043396673ee2c458504ca7aa24f06c3f633f9681290321155569f6575657b27f",
    "psi_symbolic_3": "98279a4706b9d16e9c3cf5b8fe7e54d4d66411d3527d95113a635b456bd56d3d",
    "psi_symbolic_4": "55519ac9750d645289f7300cea83456170172a654229af6697bb139291c7cc80",
    "schur_symbolic_4": "5bfb142ec1e19a9e7e43dd62c81e91efd1644b2eec222c5663345731c2891be3",
    "check_all_1": "8b73706cef6416f3a23ab52ec4bdf6f05899a2d6c99fd8400f7964d89c156e4d",
    "check_all_2": "3803d72994716d15394c7f6020d5af097808f94cbe7509c593cf6eadc5d78c65",
    "check_all_3": "54a0f342d0bb9a83c387b1cc97a2ff6ca79afb536f3aa19d9e3dd6a96b860a4e",
    "asm_tables_1": "dfe67be3fea8ca3b90bdd37d0667fadfd87006ac536e31efcd7d1a0a9706ccc3",
    "asm_tables_2": "353554130d034676de475cf6d19087080d976c8ef96ab6b7781bb82cc5a0de63",
    "asm_tables_3": "cafccf7eab6c4ae5c6548f82d0702a5638733238ff6307789d00a95fdb45369d",
    "asm_tables_4": "01d290240641f656049609f02859ecc20351751fbdce20e4a81fe5a432572c9d",
    "asm_tables_5": "e5dbc114fb30d40047395e98deae5c6d94f17e8ccaba43feb0821691ee792c15",
}

# F(t) and Q(t), ascending coefficients, at n = 3 and this point
BETHE_POINT = [Fraction(2), Fraction(-3), Fraction(5, 2), Fraction(7), Fraction(1, 3),
               Fraction(-4)]
F_3 = [["60387600/115763", "0"], ["0", "0"], ["0", "-2131193473/347289"],
       ["1015266755/231526", "0"], ["0", "0"], ["0", "-135467409/231526"],
       ["33736073/231526", "0"], ["0", "0"], ["0", "-5887729/694578"], ["1", "0"]]
Q_3 = [["431340/115763", "0"], ["-1492231/115763", "-1492231/115763"],
       ["0", "-421767/115763"], ["1", "0"]]

POINTS = json.loads(
    (Path(__file__).parent / "fixtures" / "psi_points_n5_n6.json").read_text()
)["psi_point"]


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_psi_symbolic_digest(n):
    # psi_symbolic memoizes per n, so after test_acceptance the n = 4 build
    # is served from memory
    assert _digest(psi_symbolic(n).to_json()) == DIGESTS[f"psi_symbolic_{n}"]


def test_schur_symbolic_digest():
    assert _digest(schur_symbolic(4).to_json()) == DIGESTS["schur_symbolic_4"]


@pytest.mark.parametrize(
    "point", POINTS, ids=[f"n{p['n']}-{k}" for k, p in enumerate(POINTS)]
)
def test_psi_point_fixture(point):
    pv = psi_point(point["n"], [Fraction(z) for z in point["z"]])
    assert str(pv.t) == point["t"]
    assert [to_strings(v) for v in pv.values] == point["values"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_all_digest(n, capsys):
    assert main(["check-all", str(n), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timings"]
    assert _digest(report) == DIGESTS[f"check_all_{n}"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_asm_tables_digest(n, capsys):
    assert main(["asm-tables", str(n), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timings"]
    assert _digest(report) == DIGESTS[f"asm_tables_{n}"]


def test_f_and_q_anchor():
    assert [to_strings(c) for c in f_poly(3, BETHE_POINT)] == F_3
    assert [to_strings(c) for c in q_poly(3, BETHE_POINT)] == Q_3
