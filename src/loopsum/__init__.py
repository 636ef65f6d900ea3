"""Exact groundstates of the inhomogeneous O(1) loop model.

Computes the groundstate vector of the multi-parameter loop-model transfer
matrix on a periodic strip in exact arithmetic over Q(w), reconstructs its
components as polynomials, and verifies the sum rule and related identities
against independent oracles (Schur functions, the six-vertex model with
domain-wall boundaries, ASM counting).
"""

from .cyclo import CycloNum, OMEGA, ONE, Q, Q_INV, ZERO, ZETA, ZETA_INV, sixth_root

__version__ = "0.1.0"

__all__ = [
    "CycloNum",
    "OMEGA",
    "ONE",
    "Q",
    "Q_INV",
    "ZERO",
    "ZETA",
    "ZETA_INV",
    "sixth_root",
    "__version__",
]
