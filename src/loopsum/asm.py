"""Brute-force oracles: alternating sign matrices and the six-vertex model.

ASMs are enumerated directly (rows alternate, columns alternate, all sums
1) and transcribed into six-vertex edge configurations through the
partial-sum dictionary, so the bijection itself is exercised.  Spectral
parameters attach one per row (z_1..z_n) and one per column
(z_{n+1}..z_2n); writing every parameter as a square z = x^2 removes all
square roots from the vertex weights, which makes the partition-function
oracle exact over Q(w).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .cyclo import CycloNum, ONE, Q, Q_INV, ZERO, ZETA, ZETA_INV, _rational, as_cyclo
from .report import CheckReport
from .schur import z_partition_function


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


@dataclass(frozen=True)
class SixVertexConfig:
    """Edge orientations on the n x n grid, as partial-sum states.

    h[i][j] (j = 0..n) is the horizontal edge right of column j in row i:
    0 = arrow pointing right, 1 = pointing left.  v[i][j] (i = 0..n) is
    the vertical edge below row i in column j: 0 = up, 1 = down.  Domain
    wall boundaries: horizontal external edges inward, vertical outward.
    """

    n: int
    h: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        for i in range(n):
            if self.h[i][0] != 0 or self.h[i][n] != 1:
                raise ValueError("horizontal boundary arrows must point inward")
        for j in range(n):
            if self.v[0][j] != 0 or self.v[n][j] != 1:
                raise ValueError("vertical boundary arrows must point outward")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                rw, re = self.h[i - 1][j - 1], self.h[i - 1][j]
                cn_, cs = self.v[i - 1][j - 1], self.v[i][j - 1]
                if re - rw != cs - cn_:
                    raise ValueError(f"ice rule violated at vertex ({i},{j})")

    @classmethod
    def from_asm(cls, a: ASMatrix) -> "SixVertexConfig":
        n = a.n
        h = tuple(
            tuple(itertools.accumulate([0] + list(row))) for row in a.entries
        )
        cols = list(zip(*a.entries))
        vt = [tuple([0] * n)]
        acc = [0] * n
        for i in range(n):
            acc = [x + a.entries[i][j] for j, x in enumerate(acc)]
            vt.append(tuple(acc))
        return cls(n, h, tuple(vt))

    def vertex_kind(self, i: int, j: int) -> str:
        """'a', 'b' or 'c' weight class of vertex (i, j), 1-indexed."""
        rw, re = self.h[i - 1][j - 1], self.h[i - 1][j]
        cs = self.v[i][j - 1]
        if re != rw:
            return "c"
        return "a" if re != cs else "b"


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


def dwbc_bruteforce(n: int, xs: Sequence) -> CycloNum:
    """Partition function of the domain-wall six-vertex model at z_i = x_i^2,
    divided by the absorbed normalization
    (-1)^{n(n-1)/2} (q^{-1} - q)^n prod_i x_i; equals s_{Y_n}(x^2).
    """
    if n > 4:
        raise SizeCapError("six-vertex enumeration capped at n = 4")
    if len(xs) != 2 * n:
        raise ValueError(f"expected {2 * n} parameters")
    x = [as_cyclo(v) for v in xs]

    def weight(cfg: SixVertexConfig) -> CycloNum:
        return math.prod((_vertex_weight(cfg.vertex_kind(i, j), x[i - 1], x[n + j - 1])
                          for i in range(1, n + 1) for j in range(1, n + 1)), start=ONE)

    total = sum((weight(SixVertexConfig.from_asm(a)) for a in enumerate_asm(n)), ZERO)
    sign = ONE if (n * (n - 1) // 2) % 2 == 0 else -ONE
    return total / math.prod(x, start=sign * (Q_INV - Q) ** n)


def check_dwbc_oracle(n: int, xs: Sequence) -> CheckReport:
    """dwbc_bruteforce(x) must equal the Schur value at x^2, exactly."""
    report = CheckReport(f"dwbc-oracle(n={n})")
    lhs = dwbc_bruteforce(n, xs)
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
