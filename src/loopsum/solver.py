"""Exact dense linear algebra over Q(w).

The determinant is fraction-free: each row is scaled to integer pairs
(a, b) of Z[w], w = exp(2 pi i / 3), and Bareiss elimination (Math. Comp.
22, 1968) keeps every entry a minor of that integer matrix, so all its
divisions are exact in Z[w].  The nullspace (whose vectors satisfy M v = 0
exactly) and rank that tests use as the reference for the modular kernel
are plain fraction Gaussian elimination.  Both pivot on the first nonzero
entry: in exact arithmetic there is no magnitude heuristic to apply, and
the matrices here stay small (a few hundred rows at most).
"""

from __future__ import annotations

from typing import Sequence

from .cyclo import CycloNum, ONE, ZERO, as_cyclo, from_pair, integer_pairs


class NonzeroRemainderError(ArithmeticError):
    """An exact division left a remainder (internal error)."""


class ExactMatrix:
    """A dense rows x cols matrix of CycloNum entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        d = [[as_cyclo(x) for x in row] for row in data]
        if d:
            w = len(d[0])
            if any(len(r) != w for r in d):
                raise ValueError("ragged rows")
        else:
            w = 0
        object.__setattr__(self, "rows", len(d))
        object.__setattr__(self, "cols", w)
        object.__setattr__(self, "data", d)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable (rebuild instead)")

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        # a zero term is skipped: the link-basis operators are mostly zeros
        return ExactMatrix(
            [
                [a + b if a and b else a or b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ]
        )

    def scale(self, c) -> "ExactMatrix":
        c = as_cyclo(c)
        return ExactMatrix([[c * x if x else ZERO for x in row] for row in self.data])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        bt = list(zip(*other.data))
        out = []
        for row in self.data:
            out.append(
                [
                    sum((a * b for a, b in zip(row, col) if a and b), ZERO)
                    for col in bt
                ]
            )
        return ExactMatrix(out)

    def apply(self, vec: Sequence) -> list[CycloNum]:
        v = [as_cyclo(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [
            sum((a * x for a, x in zip(row, v) if a and x), ZERO)
            for row in self.data
        ]


def _rref(data: list[list[CycloNum]]) -> tuple[list[list[CycloNum]], list[int]]:
    """In-place reduced row echelon form.

    Returns the row list and the pivot column indices.
    """
    nrows = len(data)
    pivots: list[int] = []
    r = 0
    total = len(data[0]) if data else 0
    for c in range(total):
        pr = next((i for i in range(r, nrows) if data[i][c]), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = data[r][c].inverse()
        data[r] = [x * inv for x in data[r]]
        for i in range(nrows):
            if i != r and data[i][c]:
                f = data[i][c]
                ri, rr = data[i], data[r]
                data[i] = [ri[k] - f * rr[k] for k in range(total)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return data, pivots


def rank(m: ExactMatrix) -> int:
    data = [row[:] for row in m.data]
    _, pivots = _rref(data)
    return len(pivots)


def nullspace(m: ExactMatrix) -> list[list[CycloNum]]:
    """An exact basis of { v : M v = 0 }; empty for full column rank."""
    data = [row[:] for row in m.data]
    data, pivots = _rref(data)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -data[r][fc]
        basis.append(v)
    return basis


def det(m: ExactMatrix) -> CycloNum:
    """Determinant by fraction-free Bareiss elimination over Z[w].

    Row i is scaled by the lcm d_i of its denominators, so the integer
    matrix has determinant det(m) * prod d_i.  After the swap that brings
    a nonzero pivot p_k to row k, every entry a_ij below and right of it
    becomes (p_k a_ij - a_ik a_kj) / p_{k-1}, a minor of the integer
    matrix, so the division is exact in Z[w]: it multiplies by the
    conjugate of p_{k-1} and divides by its norm, and a remainder raises
    NonzeroRemainderError.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if not n:
        return ONE
    rows = []
    den = 1
    for row in m.data:
        pairs, d = integer_pairs(row)
        rows.append(pairs)
        den *= d
    sign = 1
    # the previous pivot as its conjugate and norm; (1, 0) has both 1
    ca, cb, norm = 1, 0, 1
    for k in range(n - 1):
        pr = next((i for i in range(k, n) if rows[i][k] != (0, 0)), None)
        if pr is None:
            return ZERO
        if pr != k:
            rows[k], rows[pr] = rows[pr], rows[k]
            sign = -sign
        pa, pb = rows[k][k]
        pivot_row = rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            fa, fb = row[k]
            new = row[: k + 1]
            for j in range(k + 1, n):
                xa, xb = row[j]
                ya, yb = pivot_row[j]
                # p x - f y, then times the conjugate of the previous pivot
                ea = pa * xa - pb * xb - fa * ya + fb * yb
                eb = pa * xb + pb * xa - pb * xb - fa * yb - fb * ya + fb * yb
                ea, eb = ea * ca - eb * cb, ea * cb + eb * ca - eb * cb
                qa, ra = divmod(ea, norm)
                qb, rb = divmod(eb, norm)
                if ra or rb:
                    raise NonzeroRemainderError("Bareiss division left a remainder")
                new.append((qa, qb))
            rows[i] = new
        ca, cb, norm = pa - pb, -pb, pa * pa - pa * pb + pb * pb
    a, b = rows[n - 1][n - 1]
    return from_pair((sign * a, sign * b), den)
