"""Sparse multivariate polynomials over Z[w], with exact tensor-grid interpolation.

``terms`` maps each packed exponent vector to an integer pair (a, b), never
(0, 0), for the coefficient a + b w, so equal polynomials store equal
terms.  Every polynomial of the verifier is integral: the nested component
of Psi_n is a product of integral linear forms, the exchange steps
multiply by such forms, take exact divided differences and add, and the
coefficients of s_{Y_n} are Kostka numbers.  Every operation works on the
pairs; only coeff_of, items() and values build CycloNum.  to_json and
__str__ format each pair straight to strings, and list terms in
graded-lexicographic order.

Storage (packed exponent vectors, Monagan & Pearce): vector e has the key
int.from_bytes(bytes(e), "big"), the first variable in the top byte, key 0
the constant.  No exponent exceeds 127, so the top bit of every byte, its
guard bit, is clear: a monomial product adds two keys with no carry between
variables, key order is lexicographic order, and key.to_bytes(nvars, "big")
is the vector.  Products, powers and specialize_ratio check the guard bits
of their keys once and raise OverflowError where an exponent reaches 128,
never wrapping into the next variable; nothing else raises an exponent.

Validation happens at the boundary: MPoly(...) checks and coerces the
input of zero, constant and from_json (TypeError for a non-integral
exponent or a coefficient outside Z[w], ValueError for an exponent outside
0..127); a scalar factor and the scale of specialize_ratio pass the same
coefficient check, variable checks its index, and results built here from
valid terms skip the check through MPoly._raw, and their sums drop (0, 0)
pairs.

Exact evaluation has one path, eval_all: exponent vectors split into a
low and a high half, each distinct half is evaluated once per point for
all polynomials of the call, and terms are summed per low half before
one multiplication by its value (a two-level Horner scheme).  The sums
are integer pairs over the coordinates' one denominator, so the value is
exact; add_all sums integer pairs.

Tensor-grid interpolation applies each axis's inverse Vandermonde matrix,
scaled to integers, to integer values over one common denominator; with
(bound+1) distinct nodes per variable the result is the unique polynomial
within the per-variable degree bounds that matches all supplied values, and
one exact division per coefficient ends it (ValueError if the interpolant
leaves Z[w]); the grid oracle of the tests uses it.  Psi's construction
samples nothing: it builds every component from the nested one with
divided_difference and permute_args.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .cyclo import CycloNum, _rational, from_pair, integer_pairs, pair_mul


class ArityMismatchError(ValueError):
    """A point or exponent vector does not match the variable count."""


class DuplicateNodeError(ValueError):
    """A grid axis contains repeated interpolation nodes."""


class HomogenizationMismatchError(RuntimeError):
    """A reconstructed component violates its degree bounds or identities."""


def _key(exps: Sequence[int], nvars: int) -> int:
    """The packed key of a validated exponent vector."""
    e = tuple(map(operator.index, exps))
    if len(e) != nvars:
        raise ArityMismatchError(f"exponent vector {e} has length {len(e)}, expected {nvars}")
    if not all(0 <= x <= 127 for x in e):
        raise ValueError(f"exponent outside 0..127 in {e}")
    return int.from_bytes(bytes(e), "big")


def _integral_pairs(values: Iterable) -> list[tuple[int, int]]:
    """Scalars of Z[w] as integer pairs; any other scalar is a TypeError."""
    pairs, den = integer_pairs(values)
    if den != 1:
        raise TypeError("a polynomial coefficient must lie in Z[w]")
    return pairs


def _guard_bits(nvars: int, keys: Iterable[int]) -> int:
    """The guard bits set in any key of keys: nonzero iff an exponent is 128+."""
    return functools.reduce(operator.or_, keys, 0) & int.from_bytes(b"\x80" * nvars, "big")


class MPoly:
    """A sparse polynomial in ``nvars`` variables over Z[w]: terms maps
    packed exponent keys to integer pairs (a, b) for a + b w."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[tuple, object]] = None):
        items = list((terms or {}).items())
        keys = [_key(e, nvars) for e, _ in items]
        pairs = _integral_pairs(c for _, c in items)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", {k: p for k, p in zip(keys, pairs) if p[0] or p[1]})

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "MPoly":
        """Wrap terms that are already valid: keys of nvars exponents below
        128, nonzero integer pairs.  The dict is not copied."""
        out = cls.__new__(cls)
        object.__setattr__(out, "nvars", nvars)
        object.__setattr__(out, "terms", terms)
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MPoly":
        if not 0 <= index < nvars:
            raise ArityMismatchError(f"variable index {index} out of range")
        return cls._raw(nvars, {1 << 8 * (nvars - 1 - index): (1, 0)})

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
        return MPoly._raw(self.nvars, {e: (-a, -b) for e, (a, b) in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            [(c, d)] = _integral_pairs([other])
            if not (c or d):
                return MPoly.zero(self.nvars)
            # Z[w] has no zero divisors: a product of nonzero elements is nonzero
            return MPoly._raw(self.nvars, {e: (a * c - b * d, a * d + b * c - b * d)
                                           for e, (a, b) in self.terms.items()})
        self._check_arity(other)
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        acc: dict[int, tuple[int, int]] = {}
        for e1, (a, b) in small.items():
            for e2, (c, d) in big.items():
                e = e1 + e2
                bd = b * d
                x, y = a * c - bd, a * d + b * c - bd
                s = acc.get(e)
                acc[e] = (x, y) if s is None else (s[0] + x, s[1] + y)
        if _guard_bits(self.nvars, acc):
            raise OverflowError("an exponent of the product reached 128")
        return MPoly._raw(self.nvars, {e: s for e, s in acc.items() if s[0] or s[1]})

    __rmul__ = __mul__

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
        return (self.nvars, self.terms) == (other.nvars, other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ---------------------------------------------------------

    def eval(self, point: Sequence) -> CycloNum:
        """Exact value at a point of CycloNum (or rational) coordinates,
        from the one evaluator eval_all (halves of each exponent vector
        evaluated once, sums in integer pairs, one exact division)."""
        return eval_all([self], point)[0]

    def coeff_of(self, exps: Sequence[int]) -> CycloNum:
        return from_pair(self.terms.get(_key(exps, self.nvars), (0, 0)))

    def items(self) -> Iterator[tuple[tuple[int, ...], CycloNum]]:
        """(exponent tuple, CycloNum coefficient) for every stored term."""
        for e, pair in zip(self._exponent_bytes(), self.terms.values()):
            yield tuple(e), from_pair(pair)

    def _exponent_bytes(self) -> Iterator[bytes]:
        """Each term's exponent vector as bytes, in the order of terms."""
        return map(int.to_bytes, self.terms, itertools.repeat(self.nvars),
                   itertools.repeat("big"))

    def _shift(self, var: int) -> int:  # the bit offset of z_var's byte in a key
        if not 0 <= var < self.nvars:
            raise ArityMismatchError(f"variable index {var} out of range")
        return 8 * (self.nvars - 1 - var)

    def degree_in(self, var: int) -> int:
        s = self._shift(var)
        return max(map((127 << s).__and__, self.terms), default=0) >> s

    def exponents_below(self, bound: int) -> bool:
        """True iff every exponent is below bound, 1 <= bound <= 128: adding
        128 - bound to every byte sets its guard bit iff it holds bound or more."""
        lift = int.from_bytes(bytes([128 - bound]) * self.nvars, "big")
        return not _guard_bits(self.nvars, map(lift.__add__, self.terms))

    def is_homogeneous(self) -> Optional[int]:
        """Common total degree of all terms, or None if degrees are mixed."""
        degs = set(map(sum, self._exponent_bytes()))
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
        # byte 0 of each view, one byte wider than the key, is the zero exponent
        # of every variable no slot names, and keeps get's result a tuple
        slot = {v: k + 1 for k, v in enumerate(perm)}
        get = operator.itemgetter(0, *(slot.get(v, 0) for v in range(nvars)))
        width = self.nvars + 1
        return MPoly._raw(nvars, {int.from_bytes(bytes(get(e.to_bytes(width, "big"))), "big"): c
                                  for e, c in self.terms.items()})

    def swap_args(self, i: int, j: int) -> "MPoly":
        si, sj = self._shift(i), self._shift(j)
        step = (1 << sj) - (1 << si)  # moves one unit from z_i to z_j
        return MPoly._raw(self.nvars, {e + ((e >> si & 127) - (e >> sj & 127)) * step: c
                                       for e, c in self.terms.items()})

    def divided_difference(self, i: int, j: int) -> "MPoly":
        """(P with z_i and z_j swapped - P) / (z_j - z_i), exact.

        A term c z_i^a z_j^b gives c (z_i z_j)^b times the sum of all
        monomials of degree a-b-1 in z_i, z_j when a > b, the same with a
        and b exchanged and -c when a < b, and nothing when a = b.
        """
        if i == j:
            raise ValueError("divided difference needs two distinct variables")
        si, sj = self._shift(i), self._shift(j)
        step = (1 << si) - (1 << sj)  # moves one unit from z_j to z_i
        terms: dict[int, tuple[int, int]] = {}
        for e, (x, y) in self.terms.items():
            a, b = e >> si & 127, e >> sj & 127
            if a < b:
                x, y = -x, -y
            lo, hi = min(a, b), max(a, b)
            start = e + ((lo - a) << si) + ((hi - 1 - b) << sj)
            for key in range(start, start + (hi - lo) * step, step):
                s = terms.get(key)
                terms[key] = (x, y) if s is None else (s[0] + x, s[1] + y)
        return MPoly._raw(self.nvars, {e: s for e, s in terms.items() if s[0] or s[1]})

    def specialize_ratio(self, var: int, target: int, scale) -> "MPoly":
        """Substitute z_var := scale * z_target (exact; var becomes unused);
        scale lies in Z[w], and a term with z_var^k takes scale^k."""
        if var == target:
            raise ValueError("substitution variable must differ from target")
        [pair] = _integral_pairs([scale])
        sv, st = self._shift(var), self._shift(target)
        step = (1 << st) - (1 << sv)  # moves one unit from z_var to z_target
        powers = list(itertools.accumulate(itertools.repeat(pair, self.degree_in(var)),
                                           pair_mul, initial=(1, 0)))
        terms: dict[int, tuple[int, int]] = {}
        for e, c in self.terms.items():
            k = e >> sv & 127
            key = e + k * step
            x, y = pair_mul(c, powers[k])
            s = terms.get(key)
            terms[key] = (x, y) if s is None else (s[0] + x, s[1] + y)
        if _guard_bits(self.nvars, terms):
            raise OverflowError(f"an exponent of z_{target} reached 128")
        return MPoly._raw(self.nvars, {e: s for e, s in terms.items() if s[0] or s[1]})

    def reversed_reciprocal(self, per_var_degree: int) -> "MPoly":
        """prod_k z_k^d * P(1/z_last, ..., 1/z_first) for d = per_var_degree.

        Exact whenever every exponent is <= d, which is what the degree
        bound guarantees for groundstate components.
        """
        d, n = per_var_degree, self.nvars
        # the little-endian view is the reversed vector; x > d (and any x
        # for d > 127) maps to a guard bit
        table = bytes(d - x if x <= d < 128 else 128 for x in range(256))
        terms = {int.from_bytes(e.to_bytes(n, "little").translate(table), "big"): c
                 for e, c in self.terms.items()}
        if _guard_bits(n, terms):
            raise ValueError("exponent exceeds the stated per-variable degree")
        return MPoly._raw(n, terms)

    # -- serialization ----------------------------------------------------

    def _canonical_terms(self) -> Iterator[tuple[bytes, list[str]]]:
        """(exponent bytes, [a, b]) per term in graded-lexicographic order
        (canonical), a and b the parts of a + b w as strings."""
        terms = self.terms
        views = list(self._exponent_bytes())
        for _, e, view in sorted(zip(map(sum, views), terms, views)):
            a, b = terms[e]
            yield view, [str(a), str(b)]

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [{"exp": list(e), "coeff": c} for e, c in self._canonical_terms()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MPoly":
        terms = {tuple(t["exp"]): CycloNum.from_strings(t["coeff"]) for t in data["terms"]}
        if len(terms) != len(data["terms"]):
            raise ValueError("an exponent vector is repeated")
        return cls(data["nvars"], terms)

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

    Each key splits at h = nvars // 2 into a low half (the first h
    variables, key >> 8 (nvars - h)) and a high half (the other bits).  The
    value of each distinct half is computed once per call, from one power
    table per variable, and shared by every poly; a term multiplies its
    coefficient by its high half's value and adds into a group keyed by its
    low half, and each group is multiplied once by its low half's value.

    Everything runs in integer pairs (a, b) for a + b*w, the coordinates
    over one denominator d.  A half of degree k in a half of width m is
    made up to degree top*m with d^(top*m - k), top at least the largest
    exponent of any variable (the largest byte of the OR of all keys, one
    pass at C speed), so every term sits over d^(top*nvars) and one exact
    division (from_pair) per poly ends it.
    """
    nvars = len(point)
    for p in polys:
        if p.nvars != nvars:
            raise ArityMismatchError(f"point has {nvars} coordinates, expected {p.nvars}")
    pt, d = integer_pairs(point)
    h = nvars // 2
    shift = 8 * (nvars - h)
    mask = (1 << shift) - 1
    top = max(functools.reduce(operator.or_, itertools.chain.from_iterable(
        p.terms for p in polys), 0).to_bytes(nvars, "big"), default=0)
    pows = [list(itertools.accumulate(itertools.repeat(x, top), pair_mul, initial=(1, 0)))
            for x in pt]
    pads = [d ** k for k in range(top * (nvars - h) + 1)]

    def half_value(key: int, first: int, width: int, memo: dict) -> tuple[int, int]:
        exps = key.to_bytes(width, "big")
        v = (pads[top * width - sum(exps)], 0)
        for row, k in zip(pows[first:], exps):
            if k:
                v = pair_mul(v, row[k])
        memo[key] = v
        return v

    his: dict[int, tuple[int, int]] = {}
    los: dict[int, tuple[int, int]] = {}
    out = []
    for p in polys:
        groups: dict[int, list[int]] = {}
        for key, (a, b) in p.terms.items():
            hi = key & mask
            xa, xb = his.get(hi) or half_value(hi, h, nvars - h, his)
            bd = b * xb
            a, b = a * xa - bd, a * xb + b * xa - bd
            key >>= shift
            g = groups.get(key)
            if g is None:
                groups[key] = [a, b]
            else:
                g[0] += a
                g[1] += b
        sa = sb = 0
        for key, g in groups.items():
            a, b = pair_mul(g, los.get(key) or half_value(key, 0, h, los))
            sa += a
            sb += b
        out.append(from_pair((sa, sb), d ** (top * nvars)))
    return out


def add_all(nvars: int, polys: Iterable[MPoly]) -> MPoly:
    """The sum of polys, all in nvars variables, in integer pairs."""
    sums: dict[int, tuple[int, int]] = {}
    for p in polys:
        if p.nvars != nvars:
            raise ArityMismatchError(f"variable counts differ: {nvars} vs {p.nvars}")
        for k, (a, b) in p.terms.items():
            s = sums.get(k)
            sums[k] = (a, b) if s is None else (s[0] + a, s[1] + b)
    return MPoly._raw(nvars, {k: s for k, s in sums.items() if s[0] or s[1]})


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
    holds the samples in itertools.product(*grid) order.  An interpolant
    with a coefficient outside Z[w] is a ValueError.
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
    if max(dims, default=1) > 128:
        raise ValueError("more than 128 nodes on an axis: an exponent would exceed 127")
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
    keys = map(int.from_bytes, map(bytes, itertools.product(*map(range, dims))),
               itertools.repeat("big"))
    terms = {}
    for e, a, b in zip(keys, *tensor.reshape(2, -1).tolist()):
        (a, ra), (b, rb) = divmod(a, den), divmod(b, den)
        if ra or rb:
            raise ValueError("the interpolant has a coefficient outside Z[w]")
        if a or b:
            terms[e] = (a, b)
    return MPoly._raw(nvars, terms)
