"""Regression anchors: exact outputs the pipeline must keep producing.

A digest is the SHA-256 of the canonical JSON of ``to_json()`` (sorted
keys, no whitespace), the form the benchmark's digest uses.  The fixture
holds exact ``psi_point`` values at three fixed points each for n = 5 and
n = 6, as canonical strings.  Any refactor of the construction must leave
all of them unchanged.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from loopsum.groundstate import psi_point, psi_symbolic
from loopsum.schur import schur_symbolic

DIGESTS = {
    "psi_symbolic_2": "043396673ee2c458504ca7aa24f06c3f633f9681290321155569f6575657b27f",
    "psi_symbolic_3": "98279a4706b9d16e9c3cf5b8fe7e54d4d66411d3527d95113a635b456bd56d3d",
    "psi_symbolic_4": "55519ac9750d645289f7300cea83456170172a654229af6697bb139291c7cc80",
    "schur_symbolic_4": "5bfb142ec1e19a9e7e43dd62c81e91efd1644b2eec222c5663345731c2891be3",
}

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
    assert [v.to_strings() for v in pv.values] == point["values"]
