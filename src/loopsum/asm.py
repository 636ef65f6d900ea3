"""Alternating sign matrices and the domain-wall six-vertex model.

ASMs are enumerated directly (rows alternate, columns alternate, all sums
1) for their counts and the doubly refined table.  The six-vertex
partition function with domain-wall boundaries is the Izergin-Korepin
determinant, through the same solver.det as the Jacobi-Trudi Schur
evaluation; at the cube root of unity it equals s_{Y_n} (Okada, J.
Algebraic Combin. 23, 2006), which check_dwbc_oracle tests.  Spectral
parameters attach one per row (z_1..z_n) and one per column
(z_{n+1}..z_2n); writing every parameter as a square z = x^2 removes all
square roots from the vertex weights, which makes the partition function
exact over Q(w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cyclo import CycloNum, ONE, Q, Q_INV, ZERO, ZETA, ZETA_INV, _rational, as_cyclo
from .report import CheckReport
from .schur import z_partition_function
from .solver import ExactMatrix, det


class SizeCapError(ValueError):
    """A requested size exceeds the supported cap; the CLI exits 2 on it."""


@dataclass(frozen=True)
class ASMatrix:
    """An alternating sign matrix: entries in {-1, 0, 1}, every row and
    column summing to 1 with nonzero entries alternating in sign."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.n or any(
            len(r) != self.n for r in self.entries
        ):
            raise ValueError("shape mismatch")
        for line in list(self.entries) + list(zip(*self.entries)):
            nz = [x for x in line if x]
            if sum(line) != 1 or any(x not in (-1, 0, 1) for x in line):
                raise ValueError("line does not sum to 1 over {-1,0,1}")
            if any(a == b for a, b in zip(nz, nz[1:])) or (nz and nz[0] != 1):
                raise ValueError("nonzero entries do not alternate from +1")


def enumerate_asm(n: int) -> list[ASMatrix]:
    """All ASMs of size n (capped at n = 5)."""
    if n > 5:
        raise SizeCapError("ASM enumeration capped at n = 5")

    def rows_for(cols: tuple[int, ...]):
        # all rows consistent with the current column partial sums
        def extend(j, row_partial, row):
            if j == n:
                if row_partial == 1:
                    yield tuple(row)
                return
            yield from extend(j + 1, row_partial, row + [0])
            if row_partial == 0 and cols[j] == 0:
                yield from extend(j + 1, 1, row + [1])
            if row_partial == 1 and cols[j] == 1:
                yield from extend(j + 1, 0, row + [-1])

        yield from extend(0, 0, [])

    out: list[ASMatrix] = []

    def walk(i, cols, rows):
        if i == n:
            if all(c == 1 for c in cols):
                out.append(ASMatrix(n, tuple(rows)))
            return
        for row in rows_for(cols):
            walk(
                i + 1,
                tuple(c + x for c, x in zip(cols, row)),
                rows + [row],
            )

    walk(0, (0,) * n, [])
    return out


def asm_product_formula(n: int) -> int:
    """prod_{i=0}^{n-1} (3i+1)! / (n+i)!"""
    num = 1
    den = 1
    for i in range(n):
        num *= math.factorial(3 * i + 1)
        den *= math.factorial(n + i)
    assert num % den == 0
    return num // den


def refined_counts(n: int) -> list[list[int]]:
    """counts[j-1][k-1]: ASMs with the top-row 1 at position j (from the
    left) and the bottom-row 1 at position k (from the right)."""
    table = [[0] * n for _ in range(n)]
    for a in enumerate_asm(n):
        j = a.entries[0].index(1) + 1
        k = n - a.entries[n - 1].index(1)
        table[j - 1][k - 1] += 1
    return table


# ---------------------------------------------------------------------------
# six-vertex side
# ---------------------------------------------------------------------------


def _vertex_weight(kind: str, xrow: CycloNum, xcol: CycloNum) -> CycloNum:
    """Weight of one vertex with z = x^2 substituted throughout.

    a = q^{-1/2} w - q^{1/2} z, b = q^{-1/2} z - q^{1/2} w,
    c = (q^{-1} - q) (z w)^{1/2}, with w = xrow^2 the row parameter and
    z = xcol^2 the column parameter.
    """
    if kind == "a":
        return ZETA_INV * xrow * xrow - ZETA * xcol * xcol
    if kind == "b":
        return ZETA_INV * xcol * xcol - ZETA * xrow * xrow
    return (Q_INV - Q) * xrow * xcol


def dwbc_partition(n: int, xs: Sequence) -> CycloNum:
    """Partition function of the domain-wall six-vertex model at z_i = x_i^2,
    divided by the absorbed normalization
    (-1)^{n(n-1)/2} (q^{-1} - q)^n prod_i x_i; equals s_{Y_n}(x^2).

    Z comes from the Izergin-Korepin determinant (Izergin, Sov. Phys. Dokl.
    32, 1987) over the weights a, b, c of row i and column j:

        Z = prod a_ij b_ij * det[c_ij / (a_ij b_ij)]
            / prod_{i<j} (x_i^2 - x_j^2) (x_{n+j}^2 - x_{n+i}^2).

    A point where a denominator vanishes raises ValueError.
    """
    if len(xs) != 2 * n:
        raise ValueError(f"expected {2 * n} parameters")
    x = [as_cyclo(v) for v in xs]
    if ZERO in x:
        raise ValueError("a zero parameter makes the normalization vanish")
    xrow, xcol = x[:n], x[n:]
    w, z = [r * r for r in xrow], [c * c for c in xcol]
    if len(set(w)) < n or len(set(z)) < n:
        raise ValueError("two row or two column parameters have equal squares")
    ab = [[_vertex_weight("a", r, c) * _vertex_weight("b", r, c) for c in xcol]
          for r in xrow]
    if any(v == ZERO for row in ab for v in row):
        raise ValueError("a vertex weight a or b vanishes")
    m = ExactMatrix([[_vertex_weight("c", r, c) / v for c, v in zip(xcol, row)]
                     for r, row in zip(xrow, ab)])
    total = math.prod((v for row in ab for v in row), start=det(m))
    total = total / math.prod(((w[i] - w[j]) * (z[j] - z[i])
                               for i in range(n) for j in range(i + 1, n)), start=ONE)
    sign = ONE if (n * (n - 1) // 2) % 2 == 0 else -ONE
    return total / math.prod(x, start=sign * (Q_INV - Q) ** n)


def check_dwbc_oracle(n: int, xs: Sequence) -> CheckReport:
    """dwbc_partition(x) must equal the Schur value at x^2, exactly."""
    report = CheckReport(f"dwbc-oracle(n={n})")
    lhs = dwbc_partition(n, xs)
    rhs = z_partition_function(n, [as_cyclo(v) ** 2 for v in xs])
    report.add(lhs == rhs, point=[str(v) for v in xs], lhs=str(lhs), rhs=str(rhs))
    return report


def refined_generating_check(n: int, t, u) -> CheckReport:
    """The doubly-refined generating identity

    (q^2 (q+t)(q+u))^{n-1} / 3^{n(n-1)/2}
        * Z_n((1+qt)/(q+t), (1+qu)/(q+u), 1, ..., 1)
      = sum_{j,k} t^{j-1} u^{k-1} A_{n,j,k}        (exact in Q(w)).
    """
    if n > 4:
        raise SizeCapError("refined generating check capped at n = 4")
    t = _rational(t)
    u = _rational(u)
    report = CheckReport(f"refined-generating(n={n})")
    qt = Q * t + ONE
    qu = Q * u + ONE
    dt = Q + t
    du = Q + u
    zs = [qt / dt, qu / du] + [ONE] * (2 * n - 2)
    lhs = (Q * Q * dt * du) ** (n - 1) * z_partition_function(n, zs)
    lhs = lhs / CycloNum(3 ** (n * (n - 1) // 2), 0)
    rhs = sum((CycloNum(t**j * u**k * count, 0)
               for j, row in enumerate(refined_counts(n))
               for k, count in enumerate(row)), ZERO)
    report.add(lhs == rhs, t=str(t), u=str(u), lhs=str(lhs), rhs=str(rhs))
    return report
