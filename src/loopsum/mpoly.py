"""Sparse multivariate polynomials over Q(w), with exact tensor-grid interpolation.

Exponent vectors are tuples of small non-negative ints, one entry per
variable.  ``terms`` maps each to an integer pair (a, b), never (0, 0),
for the coefficient (a + b w) / den; ``den`` > 0 is in lowest terms (1
for Psi_n and s_{Y_n}), so equal polynomials store equal fields.  Every
operation works on the pairs; only coeff_of, items() and values build
CycloNum.  to_json and __str__ format each pair over den straight to
strings, and list terms in graded-lexicographic order.

Validation happens at the boundary: MPoly(...) checks and coerces the
input of zero, constant, variable and from_json; results built here from
valid terms skip it through MPoly._raw, which only brings den to lowest
terms, and their sums drop (0, 0) pairs.

Exact evaluation has one path, eval_all: exponent vectors split into a
low and a high half, each distinct half is evaluated once per point for
all polynomials of the call, and terms are summed per low half before
one multiplication by its value (a two-level Horner scheme).  The sums
are integer pairs over one denominator, so the value is exact; add_all
likewise sums integer pairs over one common denominator.

Tensor-grid interpolation applies each axis's inverse Vandermonde matrix,
scaled to integers, to integer values over one common denominator; with
(bound+1) distinct nodes per variable the result is the unique polynomial
within the per-variable degree bounds that matches all supplied values, and
one exact division per coefficient ends it; the grid oracle of the tests
uses it.  Psi's construction samples nothing: it builds every component
from the nested one with divided_difference and permute_args.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .cyclo import CycloNum, ONE, _rational, as_cyclo, from_pair, integer_pairs, pair_mul


class ArityMismatchError(ValueError):
    """A point or exponent vector does not match the variable count."""


class DuplicateNodeError(ValueError):
    """A grid axis contains repeated interpolation nodes."""


class HomogenizationMismatchError(RuntimeError):
    """A reconstructed component violates its degree bounds or identities."""


class MPoly:
    """A sparse polynomial in ``nvars`` variables over Q(w): terms maps
    exponent tuples to integer pairs (a, b) for (a + b w) / den."""

    __slots__ = ("nvars", "terms", "den")

    def __init__(self, nvars: int, terms: Optional[Mapping[tuple, object]] = None):
        items = list((terms or {}).items())
        for e, _ in items:
            if len(e) != nvars:
                raise ArityMismatchError(
                    f"exponent vector {tuple(e)} has length {len(e)}, expected {nvars}"
                )
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {tuple(e)}")
        pairs, den = integer_pairs(c for _, c in items)
        clean = {tuple(e): p for (e, _), p in zip(items, pairs) if p[0] or p[1]}
        for name, value in zip(self.__slots__, (nvars, clean, den)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def _raw(cls, nvars: int, terms: dict, den: int = 1) -> "MPoly":
        """Wrap terms that are already valid: tuple exponents of length
        nvars, nonzero integer pairs over den > 0.  The dict is not copied;
        a factor that den shares with every part is divided out."""
        g = math.gcd(den, *itertools.chain(*terms.values())) if den != 1 else 1
        if g != 1:
            terms = {e: (a // g, b // g) for e, (a, b) in terms.items()}
        out = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (nvars, terms, den // g)):
            object.__setattr__(out, name, value)
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: as_cyclo(c)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MPoly":
        if not 0 <= index < nvars:
            raise ArityMismatchError(f"variable index {index} out of range")
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): ONE})

    # -- ring operations -----------------------------------------------

    def _check_arity(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise ArityMismatchError(
                f"variable counts differ: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.nvars, other)
        return add_all(self.nvars, (self, other))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._raw(self.nvars, {e: (-a, -b) for e, (a, b) in self.terms.items()},
                          self.den)

    def __sub__(self, other) -> "MPoly":
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            [(c, d)], den = integer_pairs([other])
            if not (c or d):
                return MPoly.zero(self.nvars)
            # a product of nonzero field elements is nonzero
            return MPoly._raw(self.nvars, {e: (a * c - b * d, a * d + b * c - b * d)
                                           for e, (a, b) in self.terms.items()},
                              self.den * den)
        self._check_arity(other)
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        acc: dict[tuple[int, ...], tuple[int, int]] = {}
        for e1, (a, b) in small.items():
            for e2, (c, d) in big.items():
                e = tuple(map(operator.add, e1, e2))
                bd = b * d
                x, y = a * c - bd, a * d + b * c - bd
                s = acc.get(e)
                acc[e] = (x, y) if s is None else (s[0] + x, s[1] + y)
        return MPoly._raw(self.nvars, {e: s for e, s in acc.items() if s[0] or s[1]},
                          self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MPoly":
        c = as_cyclo(scalar)
        return self * c.inverse()

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        acc = MPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            try:
                other = MPoly.constant(self.nvars, other)
            except TypeError:
                return NotImplemented
        return (self.nvars, self.den, self.terms) == (other.nvars, other.den, other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ---------------------------------------------------------

    def eval(self, point: Sequence) -> CycloNum:
        """Exact value at a point of CycloNum (or rational) coordinates,
        from the one evaluator eval_all (halves of each exponent vector
        evaluated once, sums in integer pairs, one exact division)."""
        return eval_all([self], point)[0]

    def coeff_of(self, exps: Sequence[int]) -> CycloNum:
        e = tuple(exps)
        if len(e) != self.nvars:
            raise ArityMismatchError(
                f"exponent vector has length {len(e)}, expected {self.nvars}"
            )
        return from_pair(self.terms.get(e, (0, 0)), self.den)

    def items(self) -> Iterator[tuple[tuple[int, ...], CycloNum]]:
        """(exponent vector, CycloNum coefficient) for every stored term."""
        for e, pair in self.terms.items():
            yield e, from_pair(pair, self.den)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=0)

    def is_homogeneous(self) -> Optional[int]:
        """Common total degree of all terms, or None if degrees are mixed."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- structural maps --------------------------------------------------

    def permute_args(self, perm: Sequence[int], nvars: Optional[int] = None) -> "MPoly":
        """The polynomial P(z_perm[0], ..., z_perm[-1]) in ``nvars``
        variables, by default as many as P has.

        ``perm[k]`` names the variable placed in argument slot k, so the
        exponent that sat on slot k moves to variable perm[k]; a map of
        the wrong length or not injective into range(nvars) raises
        ArityMismatchError.
        """
        nvars = self.nvars if nvars is None else nvars
        if len(perm) != self.nvars or len(set(perm) & set(range(nvars))) != self.nvars:
            raise ArityMismatchError(
                f"{perm} does not map {self.nvars} variables injectively into {nvars}"
            )
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * nvars
            for k, ek in zip(perm, e):
                ne[k] = ek
            terms[tuple(ne)] = c
        return MPoly._raw(nvars, terms, self.den)

    def swap_args(self, i: int, j: int) -> "MPoly":
        perm = list(range(self.nvars))
        perm[i], perm[j] = perm[j], perm[i]
        return self.permute_args(perm)

    def divided_difference(self, i: int, j: int) -> "MPoly":
        """(P with z_i and z_j swapped - P) / (z_j - z_i), exact.

        A term c z_i^a z_j^b gives c (z_i z_j)^b times the sum of all
        monomials of degree a-b-1 in z_i, z_j when a > b, the same with a
        and b exchanged and -c when a < b, and nothing when a = b.
        """
        if i == j:
            raise ValueError("divided difference needs two distinct variables")
        terms: dict[tuple[int, ...], tuple[int, int]] = {}
        for e, (x, y) in self.terms.items():
            a, b = e[i], e[j]
            if a < b:
                x, y = -x, -y
            ne = list(e)
            for k in range(abs(a - b)):
                ne[i], ne[j] = min(a, b) + k, max(a, b) - 1 - k
                key = tuple(ne)
                s = terms.get(key)
                terms[key] = (x, y) if s is None else (s[0] + x, s[1] + y)
        return MPoly._raw(self.nvars, {e: s for e, s in terms.items() if s[0] or s[1]},
                          self.den)

    def specialize_ratio(self, var: int, target: int, scale) -> "MPoly":
        """Substitute z_var := scale * z_target (exact; var becomes unused).

        With scale = s / d, a term with z_var^k takes s^k d^(top - k) over
        the common denominator d^top, top the degree in z_var."""
        if var == target:
            raise ValueError("substitution variable must differ from target")
        [pair], d = integer_pairs([scale])
        top = self.degree_in(var)
        powers = [(a * d ** (top - k), b * d ** (top - k)) for k, (a, b) in enumerate(
            itertools.accumulate(itertools.repeat(pair, top), pair_mul, initial=(1, 0)))]
        terms: dict[tuple[int, ...], tuple[int, int]] = {}
        for e, c in self.terms.items():
            k = e[var]
            ne = list(e)
            ne[var] = 0
            ne[target] += k
            key = tuple(ne)
            x, y = pair_mul(c, powers[k])
            s = terms.get(key)
            terms[key] = (x, y) if s is None else (s[0] + x, s[1] + y)
        return MPoly._raw(self.nvars, {e: s for e, s in terms.items() if s[0] or s[1]},
                          self.den * d ** top)

    def reversed_reciprocal(self, per_var_degree: int) -> "MPoly":
        """prod_k z_k^d * P(1/z_last, ..., 1/z_first) for d = per_var_degree.

        Exact whenever every exponent is <= d, which is what the degree
        bound guarantees for groundstate components.
        """
        n = self.nvars
        terms = {}
        for e, c in self.terms.items():
            if any(x > per_var_degree for x in e):
                raise ValueError("exponent exceeds the stated per-variable degree")
            ne = tuple(per_var_degree - e[n - 1 - k] for k in range(n))
            terms[ne] = c
        return MPoly._raw(n, terms, self.den)

    # -- serialization ----------------------------------------------------

    def _canonical_terms(self) -> Iterator[tuple[tuple[int, ...], list[str]]]:
        """(exponent vector, [a, b]) per term in graded-lexicographic order
        (canonical), a and b the parts of (a + b w) / den as strings with
        '/' separated fractions, formatted straight from the pairs."""
        den, terms = self.den, self.terms
        part = str if den == 1 else (lambda x: str(Fraction(x, den)))
        for _, e in sorted(zip(map(sum, terms), terms)):
            a, b = terms[e]
            yield e, [part(a), part(b)]

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [{"exp": list(e), "coeff": c} for e, c in self._canonical_terms()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MPoly":
        return cls(
            data["nvars"],
            {
                tuple(t["exp"]): CycloNum.from_strings(t["coeff"])
                for t in data["terms"]
            },
        )

    def __repr__(self) -> str:
        return f"MPoly(nvars={self.nvars}, nterms={len(self.terms)})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, (a, b) in self._canonical_terms():
            c = a if b == "0" else f"{b}*w" if a == "0" else f"{a} + {b}*w"
            mono = "*".join(
                f"z{v + 1}" + (f"^{k}" if k > 1 else "")
                for v, k in enumerate(e)
                if k
            )
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def product(nvars: int, factors: Iterable[MPoly]) -> MPoly:
    acc = MPoly.constant(nvars, 1)
    for f in factors:
        acc = acc * f
    return acc


def eval_all(polys: Sequence[MPoly], point: Sequence) -> list[CycloNum]:
    """The exact value of each of polys at one point of CycloNum (or
    rational) coordinates, every poly in len(point) variables.

    Each exponent vector splits at h = nvars // 2 into a low half (the
    first h variables) and a high half.  The value of each distinct half
    is computed once per call, from one power table per variable, and
    shared by every poly; a term multiplies its coefficient by its high
    half's value and adds into a group keyed by its low half, and each
    group is multiplied once by its low half's value.

    Everything runs in integer pairs (a, b) for a + b*w: the coordinates
    share one denominator d and a poly's coefficients its den e.  A half
    of degree k in a half of width m is made up to degree top*m with
    d^(top*m - k), top the largest exponent of any variable, so every
    term sits over e * d^(top*nvars) and one exact division (from_pair)
    per poly ends it.
    """
    nvars = len(point)
    for p in polys:
        if p.nvars != nvars:
            raise ArityMismatchError(f"point has {nvars} coordinates, expected {p.nvars}")
    pt, d = integer_pairs(point)
    h = nvars // 2
    top = max((max(map(max, p.terms)) for p in polys if p.terms and nvars), default=0)
    pows = [list(itertools.accumulate(itertools.repeat(x, top), pair_mul, initial=(1, 0)))
            for x in pt]
    pads = [d ** k for k in range(top * (nvars - h) + 1)]

    def half_value(exps: tuple, first: int, memo: dict) -> tuple[int, int]:
        v = (pads[top * len(exps) - sum(exps)], 0)
        for row, k in zip(pows[first:], exps):
            if k:
                v = pair_mul(v, row[k])
        memo[exps] = v
        return v

    his: dict[tuple, tuple[int, int]] = {}
    los: dict[tuple, tuple[int, int]] = {}
    out = []
    for p in polys:
        groups: dict[tuple, list[int]] = {}
        for exps, (a, b) in p.terms.items():
            key = exps[h:]
            xa, xb = his.get(key) or half_value(key, h, his)
            bd = b * xb
            a, b = a * xa - bd, a * xb + b * xa - bd
            key = exps[:h]
            g = groups.get(key)
            if g is None:
                groups[key] = [a, b]
            else:
                g[0] += a
                g[1] += b
        sa = sb = 0
        for key, g in groups.items():
            a, b = pair_mul(g, los.get(key) or half_value(key, 0, los))
            sa += a
            sb += b
        out.append(from_pair((sa, sb), p.den * d ** (top * nvars)))
    return out


def add_all(nvars: int, polys: Iterable[MPoly]) -> MPoly:
    """The sum of polys, all in nvars variables.

    The sums run in integer pairs over one common denominator, which
    grows (rescaling the sums so far) only when a poly's den needs a new
    factor."""
    sums: dict[tuple[int, ...], tuple[int, int]] = {}
    den = 1
    for p in polys:
        if p.nvars != nvars:
            raise ArityMismatchError(f"variable counts differ: {nvars} vs {p.nvars}")
        if den % p.den:
            up = p.den // math.gcd(den, p.den)
            sums = {k: (a * up, b * up) for k, (a, b) in sums.items()}
            den *= up
        f = den // p.den
        for k, (a, b) in p.terms.items():
            if f != 1:
                a, b = a * f, b * f
            s = sums.get(k)
            sums[k] = (a, b) if s is None else (s[0] + a, s[1] + b)
    return MPoly._raw(nvars, {k: s for k, s in sums.items() if s[0] or s[1]}, den)


def _vandermonde_inverse(xs: Sequence[Fraction]) -> tuple[list[list[int]], int]:
    """(m, d) with integer rows m and d > 0 such that m / d inverts the
    Vandermonde matrix V[k][i] = xs[k]^i.  Column k of the inverse holds the
    ascending coefficients of the Lagrange basis polynomial of node k."""
    cols = []
    for k, xk in enumerate(xs):
        basis = [Fraction(1)]
        for j, xj in enumerate(xs):
            if j != k:  # times (x - xj) / (xk - xj)
                basis = [(lo - xj * hi) / (xk - xj)
                         for lo, hi in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
        cols.append(basis)
    d = math.lcm(*(c.denominator for col in cols for c in col))
    return [[c.numerator * (d // c.denominator) for c in row] for row in zip(*cols)], d


def interpolate_grid(values: Sequence, grid: Sequence[Sequence]) -> MPoly:
    """Reconstruct the unique polynomial of degree below len(grid[v]) in
    each variable v that matches ``values`` on the full tensor grid.

    ``grid[v]`` lists the distinct rational nodes of variable v; ``values``
    holds the samples in itertools.product(*grid) order.
    """
    import numpy as np

    nodes: list[list[Fraction]] = []
    for v, axis in enumerate(grid):
        axis = [_rational(x) for x in axis]
        if not axis:
            raise ValueError(f"axis {v} has no nodes")
        if len(set(axis)) != len(axis):
            raise DuplicateNodeError(f"axis {v} has repeated nodes")
        nodes.append(axis)
    nvars = len(nodes)
    dims = [len(ax) for ax in nodes]
    pairs, den = integer_pairs(values)
    if len(pairs) != math.prod(dims):
        raise ValueError(f"{len(pairs)} values for a grid of {math.prod(dims)} points")

    # The coefficients are (V_0^-1 (x) ... (x) V_last^-1) applied to the
    # values.  With V_v^-1 = m_v / d_v, contracting axis after axis with the
    # integer m_v keeps every entry an exact Python int; each contraction
    # moves its axis to the back, so at the end the axes are in order again.
    # The a and b parts ride on axis 0.
    inverses = {xs: _vandermonde_inverse(xs) for xs in set(map(tuple, nodes))}
    tensor = np.array(pairs, dtype=object).T.reshape(2, *dims)
    for xs in nodes:
        m, d = inverses[tuple(xs)]
        tensor = np.tensordot(tensor, np.array(m, dtype=object), axes=([1], [1]))
        den *= d
    exponents = itertools.product(*(range(d) for d in dims))
    return MPoly._raw(nvars, {e: (a, b) for e, a, b in
                              zip(exponents, *tensor.reshape(2, -1).tolist()) if a or b}, den)
