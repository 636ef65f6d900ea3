"""Exact arithmetic in Q(w), w = exp(2*pi*i/3).

Every scalar in this package is a CycloNum a + b*w with rational a, b.
The defining relation is w**2 = -1 - w, so the pair (a, b) is a canonical
(unique) representation of a field element.  The sixth root of unity
zeta = 1 + w satisfies zeta**2 = w and supplies the square root of w
needed by vertex weights; no other extension is ever required.

Values are immutable and hashable; all operations are exact.

Hot loops skip the Fraction arithmetic of CycloNum: integer_pairs clears
the denominators of a list of scalars, pair_mul multiplies the integer
pairs (a, b), and from_pair turns the result back into one CycloNum.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

RationalLike = int | Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class CycloNum:
    """An element a + b*w of Q(w), with w = exp(2*pi*i/3)."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    def __reduce__(self):
        return (CycloNum, (self.a, self.b))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "CycloNum":
        try:
            other = as_cyclo(other)
        except TypeError:
            return NotImplemented
        return CycloNum(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return CycloNum(-self.a, -self.b)

    def __sub__(self, other) -> "CycloNum":
        try:
            other = as_cyclo(other)
        except TypeError:
            return NotImplemented
        return CycloNum(self.a - other.a, self.b - other.b)

    def __rsub__(self, other) -> "CycloNum":
        return (-self) + other

    def __mul__(self, other) -> "CycloNum":
        try:
            other = as_cyclo(other)
        except TypeError:
            return NotImplemented
        # (a + b w)(c + d w) with w^2 = -1 - w
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return CycloNum(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    # -- field operations ---------------------------------------------

    def conjugate(self) -> "CycloNum":
        """The image under w -> w^2 (complex conjugation)."""
        return CycloNum(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        """Field norm x * conjugate(x) = a^2 - a b + b^2, a rational."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "CycloNum":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return CycloNum((self.a - self.b) / n, -self.b / n)

    def __truediv__(self, other) -> "CycloNum":
        try:
            other = as_cyclo(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycloNum":
        return as_cyclo(other) * self.inverse()

    def __pow__(self, k: int) -> "CycloNum":
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base, k = self.inverse(), -k
        acc = ONE
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        try:
            other = as_cyclo(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conversions ---------------------------------------------------

    def __complex__(self) -> complex:
        w = complex(-0.5, 0.75**0.5)
        return float(self.a) + float(self.b) * w

    def to_strings(self) -> list[str]:
        """JSON form: the pair [str(a), str(b)] with '/' separated fractions."""
        return [str(self.a), str(self.b)]

    @classmethod
    def from_strings(cls, pair) -> "CycloNum":
        a, b = pair
        return cls(Fraction(a), Fraction(b))

    def __repr__(self) -> str:
        return f"CycloNum({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*w"
        return f"{self.a} + {self.b}*w"


def as_cyclo(x) -> CycloNum:
    """x as an element of Q(w): ints and Fractions embed, CycloNum passes
    through, anything else (floats included) is a TypeError."""
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum(x, 0)
    raise TypeError(f"cannot use {type(x).__name__} as an element of Q(w)")


def integer_pairs(values) -> tuple[list[tuple[int, int]], int]:
    """Scalars (ints, Fractions or CycloNums) as integer pairs over one
    common denominator d > 0: value k is (a_k + b_k w) / d."""
    parts = []
    for x in values:
        if isinstance(x, CycloNum):
            parts.append((x.a, x.b))
        elif isinstance(x, (int, Fraction)):
            parts.append((x, 0))
        else:
            raise TypeError(f"cannot use {type(x).__name__} as an element of Q(w)")
    d = lcm(*(x.denominator for pair in parts for x in pair))
    return [(a.numerator * (d // a.denominator), b.numerator * (d // b.denominator))
            for a, b in parts], d


def pair_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of a + b w and c + d w as a pair, w^2 = -1 - w."""
    a, b = x
    c, d = y
    bd = b * d
    return (a * c - bd, a * d + b * c - bd)


def from_pair(pair: tuple[int, int], den: int = 1) -> CycloNum:
    """(a + b w) / den for integers a, b and den > 0."""
    a, b = pair
    if den == 1:
        return CycloNum(a, b)
    return CycloNum(Fraction(a, den), Fraction(b, den))


ZERO = CycloNum(0, 0)
ONE = CycloNum(1, 0)
OMEGA = CycloNum(0, 1)

#: q = w is the fixed cubic root of unity of the model.
Q = OMEGA
#: q^-1 = w^2 = -1 - w.
Q_INV = CycloNum(-1, -1)


def sixth_root() -> CycloNum:
    """zeta = 1 + w, the principal sixth root of unity: zeta^2 = w, zeta^6 = 1."""
    return CycloNum(1, 1)


#: zeta = q^(1/2), fixed once here; zeta^-1 = -w.
ZETA = sixth_root()
ZETA_INV = CycloNum(0, -1)
