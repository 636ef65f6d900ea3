"""Link patterns: planar pairings of 2n points on a circle.

Points are labelled 1..2n counterclockwise and the cyclic successor of 2n
is 1.  A pattern stores its pairing as an involution array; planarity (no
two chords interleave) is validated on every construction.  Patterns are
the basis of the loop-model state space and are enumerated in a canonical
order: lexicographic on the pairing array.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclo import CycloNum, ZETA, ZETA_INV


class PlanarityError(ValueError):
    """The pairing has two interleaving chords (or is not an involution)."""


def catalan(n: int) -> int:
    return math.factorial(2 * n) // (math.factorial(n) * math.factorial(n + 1))


class LinkPattern:
    """A planar fixed-point-free involution of {1..2n}."""

    __slots__ = ("pairing",)

    def __init__(self, pairing):
        p = tuple(pairing)
        if len(p) % 2:
            raise PlanarityError("a pattern needs an even number of points")
        m = len(p)
        for i in range(1, m + 1):
            j = p[i - 1]
            if not 1 <= j <= m or j == i or p[j - 1] != i:
                raise PlanarityError(f"{p} is not a fixed-point-free involution")
        object.__setattr__(self, "pairing", p)
        # chords (a,b), (c,d) with a<b, c<d interleave iff a<c<b<d
        stack: list[int] = []
        for a, b in self.chords():
            while stack and stack[-1] < a:
                stack.pop()
            if stack and stack[-1] < b:
                raise PlanarityError(f"chords interleave in {p}")
            stack.append(b)

    @classmethod
    def from_chords(cls, chords) -> "LinkPattern":
        """The pattern with the given arches, pairs (a, b) of points 1..2n."""
        chords = list(chords)
        m = 2 * len(chords)
        pairing = [0] * m
        for a, b in chords:
            if not (1 <= a <= m and 1 <= b <= m):
                raise PlanarityError(f"chord ({a}, {b}) outside 1..{m}")
            pairing[a - 1] = b
            pairing[b - 1] = a
        return cls(pairing)

    def __setattr__(self, name, value):
        raise AttributeError("LinkPattern is immutable")

    @property
    def n(self) -> int:
        return len(self.pairing) // 2

    def partner(self, i: int) -> int:
        return self.pairing[i - 1]

    def chords(self) -> list[tuple[int, int]]:
        """Arches as pairs (i, j) with i < j, sorted."""
        return sorted(
            (i, self.pairing[i - 1])
            for i in range(1, 2 * self.n + 1)
            if i < self.pairing[i - 1]
        )

    def has_arch(self, i: int) -> bool:
        """True iff points i and i+1 (cyclically) are paired."""
        return self.pairing[i - 1] == cyclic_successor(i, self.n)

    def to_chords_json(self) -> list[list[int]]:
        return [list(c) for c in self.chords()]

    def __eq__(self, other) -> bool:
        return isinstance(other, LinkPattern) and self.pairing == other.pairing

    def __hash__(self) -> int:
        return hash(self.pairing)

    def __repr__(self) -> str:
        body = "".join(f"({i}{j})" if j < 10 and i < 10 else f"({i},{j})"
                       for i, j in self.chords())
        return f"LinkPattern{body}"


def cyclic_successor(i: int, n: int) -> int:
    return i % (2 * n) + 1


@lru_cache(maxsize=None)
def enumerate_patterns(n: int) -> tuple[LinkPattern, ...]:
    """All planar pairings of 2n points, in canonical (lex) order."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def matchings(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        first = points[0]
        for k in range(1, len(points), 2):
            inner = points[1:k]
            outer = points[k + 1 :]
            for mi in matchings(inner):
                for mo in matchings(outer):
                    yield ((first, points[k]),) + mi + mo

    out = [LinkPattern.from_chords(c) for c in matchings(tuple(range(1, 2 * n + 1)))]
    out.sort(key=lambda p: p.pairing)
    assert len(out) == catalan(n)
    return tuple(out)


@lru_cache(maxsize=None)
def pattern_index(n: int) -> dict[tuple[int, ...], int]:
    return {p.pairing: k for k, p in enumerate(enumerate_patterns(n))}


def fully_nested(n: int) -> LinkPattern:
    """The pattern joining i to 2n+1-i; anchors the normalization."""
    m = 2 * n
    return LinkPattern(tuple(m + 1 - i for i in range(1, m + 1)))


def consecutive_arches(n: int) -> LinkPattern:
    """The pattern of n little arches (2i-1, 2i)."""
    pairing = []
    for i in range(1, n + 1):
        pairing += [2 * i, 2 * i - 1]
    return LinkPattern(pairing)


def e_apply(i: int, pattern: LinkPattern) -> tuple[LinkPattern, bool]:
    """Glue the strands at points i and i+1 (cyclic) and insert a little arch.

    Returns (new pattern, loop_closed); a closed loop carries weight 1 and
    is simply erased.
    """
    n = pattern.n
    if not 1 <= i <= 2 * n:
        raise ValueError(f"site {i} out of range for 2n={2 * n}")
    j = cyclic_successor(i, n)
    if pattern.partner(i) == j:
        return pattern, True
    a = pattern.partner(i)
    b = pattern.partner(j)
    pairing = list(pattern.pairing)
    pairing[i - 1] = j
    pairing[j - 1] = i
    pairing[a - 1] = b
    pairing[b - 1] = a
    return LinkPattern(pairing), False


def rotate(pattern: LinkPattern) -> LinkPattern:
    """The shifted pattern r with r(i+1) = pattern(i) + 1 (labels mod 2n)."""
    n = pattern.n
    m = 2 * n
    pairing = [0] * m
    for i in range(1, m + 1):
        pairing[i % m] = pattern.partner(i) % m + 1
    return LinkPattern(pairing)


def reflect(pattern: LinkPattern) -> LinkPattern:
    """The mirrored pattern under i <-> 2n+1-i; an involution."""
    m = 2 * pattern.n
    pairing = [0] * m
    for i in range(1, m + 1):
        pairing[i - 1] = m + 1 - pattern.partner(m + 1 - i)
    return LinkPattern(pairing)


def phi_embed(i: int, pattern: LinkPattern) -> LinkPattern:
    """Insert a little arch (i, i+1) into a half-size n-1 pattern.

    Old points j >= i are relabelled j+2; removing the arch again recovers
    the input, so this is a bijection onto patterns with arch (i, i+1).
    """
    n = pattern.n + 1
    if not 1 <= i <= 2 * n - 1:
        raise ValueError(f"insertion position {i} out of range")

    def lift(j: int) -> int:
        return j if j < i else j + 2

    pairing = [0] * (2 * n)
    pairing[i - 1] = i + 1
    pairing[i] = i
    for a in range(1, 2 * n - 1):
        pairing[lift(a) - 1] = lift(pattern.partner(a))
    return LinkPattern(pairing)


def arch_remove(i: int, pattern: LinkPattern) -> LinkPattern:
    """Remove the little arch (i, i+1), relabelling j > i+1 to j-2."""
    n = pattern.n
    if i > 2 * n - 1 or pattern.partner(i) != i + 1:
        raise ValueError(f"pattern has no (non-wrapping) little arch at ({i},{i + 1})")

    def drop(j: int) -> int:
        return j if j < i else j - 2

    pairing = [0] * (2 * n - 2)
    for a in range(1, 2 * n + 1):
        if a in (i, i + 1):
            continue
        pairing[drop(a) - 1] = drop(pattern.partner(a))
    return LinkPattern(pairing)


def sequence_decomposition(pattern: LinkPattern) -> tuple[tuple[int, ...], ...]:
    """Maximal runs of consecutive points not separated by little arches.

    A little arch (i, i+1) puts a separator between i and i+1; runs are
    listed starting with the one containing point 1, then in cyclic order.
    """
    n = pattern.n
    m = 2 * n
    cuts = [i for i in range(1, m + 1) if pattern.has_arch(i)]
    assert cuts, "every planar pattern has a little arch"
    runs = []
    for c in cuts:
        start = cyclic_successor(c, n)
        run = [start]
        j = start
        while j not in cuts:
            j = cyclic_successor(j, n)
            run.append(j)
        runs.append(tuple(run))
    runs.sort(key=lambda r: r[0])
    k = next(idx for idx, r in enumerate(runs) if 1 in r)
    return tuple(runs[k:] + runs[:k])


def spin_embed(pattern: LinkPattern) -> dict[int, CycloNum]:
    """Embed a pattern into (C^2)^{tensor 2n} as a sparse vector.

    Each arch (j < k) contributes zeta * up_j down_k - zeta^{-1} down_j up_k
    with zeta the fixed square root of w; bit b of a basis index is 1 when
    site b+1 is spin-down.  The support lies in the n-up sector.
    """
    vec: dict[int, CycloNum] = {0: CycloNum(1, 0)}
    for j, k in pattern.chords():
        new: dict[int, CycloNum] = {}
        down_j = 1 << (j - 1)
        down_k = 1 << (k - 1)
        for idx, c in vec.items():
            new[idx | down_k] = c * ZETA
            v = c * ZETA_INV
            new[idx | down_j] = -v
        vec = new
    return vec
