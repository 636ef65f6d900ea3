"""The domain-wall six-vertex partition function by direct enumeration,
kept as the test oracle for asm.dwbc_partition at n <= 4.

Every ASM is transcribed into six-vertex edge configurations through the
partial-sum dictionary, so the bijection itself is exercised, and the
weights of its n^2 vertices are multiplied with asm._vertex_weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from loopsum.asm import ASMatrix, SizeCapError, _vertex_weight, enumerate_asm
from loopsum.cyclo import CycloNum, ONE, Q, Q_INV, ZERO, as_cyclo


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

