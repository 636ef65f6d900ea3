"""Closed-form groundstate components for n <= 3.

These product formulas are the golden data the reconstruction is tested
against; with all parameters at 1 they specialize to 3(1,1) for n = 2 and
27(1,1,1,2,2) for n = 3 (in the chord labelling below).
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import Q
from .groundstate import Groundstate
from .linkpat import enumerate_patterns
from .mpoly import MPoly


def _z(m: int, i: int) -> MPoly:
    """1-indexed variable z_i in m variables."""
    return MPoly.variable(m, i - 1)


@lru_cache(maxsize=None)
def golden_groundstate(n: int) -> Groundstate:
    if n == 1:
        return Groundstate(1, enumerate_patterns(1), (MPoly.constant(2, 1),))
    if n == 2:
        m = 4
        q2 = MPoly.constant(m, Q * Q)
        known = {
            ((1, 2), (3, 4)): q2 * (_z(m, 3) * Q - _z(m, 2)) * (_z(m, 4) - _z(m, 1) * Q),
            ((1, 4), (2, 3)): q2 * (_z(m, 2) * Q - _z(m, 1)) * (_z(m, 3) - _z(m, 4) * Q),
        }
    elif n == 3:
        m = 6

        def zq(i, j):  # q z_i - z_j
            return _z(m, i) * Q - _z(m, j)

        def zmq(i, j):  # z_i - q z_j
            return _z(m, i) - _z(m, j) * Q

        known = {
            ((1, 6), (2, 5), (3, 4)): zq(2, 1) * zq(3, 2) * zq(3, 1)
            * zmq(4, 5) * zmq(5, 6) * zmq(4, 6),
            ((1, 4), (2, 3), (5, 6)): zq(4, 3) * zq(5, 4) * zq(5, 3)
            * zmq(6, 1) * zmq(1, 2) * zmq(6, 2),
            ((1, 2), (3, 6), (4, 5)): zq(3, 2) * zq(4, 3) * zq(4, 2)
            * zmq(5, 6) * zmq(6, 1) * zmq(5, 1),
            ((1, 2), (3, 4), (5, 6)): zmq(2, 3) * zmq(4, 5) * zq(1, 6)
            * (
                zmq(1, 2) * zmq(3, 4) * zmq(5, 6)
                + zmq(4, 1) * zmq(2, 5) * zmq(6, 3)
            ),
            ((1, 6), (2, 3), (4, 5)): zmq(3, 4) * zmq(5, 6) * zq(2, 1)
            * (
                zmq(2, 3) * zmq(4, 5) * zmq(6, 1)
                + zmq(5, 2) * zmq(3, 6) * zmq(1, 4)
            ),
        }
    else:
        raise ValueError("golden data exists for n <= 3 only")
    patterns = enumerate_patterns(n)
    components = []
    for p in patterns:
        components.append(known[tuple(p.chords())])
    return Groundstate(n, patterns, tuple(components))
