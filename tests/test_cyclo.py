import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoly_oracle import to_strings
from loopsum.cyclo import (CycloNum, OMEGA, ONE, Q, Q_INV, ZERO, ZETA, as_cyclo, from_pair,
                           integer_pairs, sixth_root)
from loopsum.groundstate import psi_point
from loopsum.mpoly import MPoly
from loopsum.schur import Partition, schur_eval
from loopsum.solver import ExactMatrix
from loopsum.tmatrix import eigenvalue, transfer_link_pairs

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=8)
cyclos = st.builds(CycloNum, fractions, fractions)
rationals = st.one_of(st.integers(-6, 6), fractions)
mixed = st.builds(CycloNum, rationals, rationals)


def test_omega_minimal_polynomial():
    assert OMEGA * OMEGA == CycloNum(-1, -1)
    assert ONE + OMEGA + OMEGA * OMEGA == ZERO
    assert OMEGA**3 == ONE


def test_square_of_one_plus_omega():
    z = CycloNum(1, 1)
    assert z * z == OMEGA


def test_multiplicative_identity():
    x = CycloNum(Fraction(3, 7), Fraction(-2, 5))
    assert x * ONE == x


def test_inverse_of_omega():
    assert OMEGA.inverse() == CycloNum(-1, -1) == Q_INV
    assert Q * Q_INV == ONE


def test_inverse_of_rational():
    assert CycloNum(2, 0).inverse() == CycloNum(Fraction(1, 2), 0)
    a = CycloNum(2, 0).inverse().a
    assert type(a) is Fraction and a == Fraction(1, 2)


def test_inverse_of_one_plus_omega():
    assert CycloNum(1, 1).inverse() == CycloNum(0, -1)
    assert CycloNum(1, 1) * CycloNum(0, -1) == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sixth_root():
    z = sixth_root()
    assert z == ZETA == CycloNum(1, 1)
    assert z * z == OMEGA
    assert z**3 == CycloNum(-1, 0)
    assert z**6 == ONE


def test_conjugate_and_norm():
    x = CycloNum(Fraction(2, 3), Fraction(-1, 4))
    assert (x * x.conjugate()).b == 0
    assert x.norm() == x.a**2 - x.a * x.b + x.b**2


def test_serialization_roundtrip():
    x = CycloNum(Fraction(-7, 3), Fraction(5, 11))
    assert CycloNum.from_strings(to_strings(x)) == x
    assert to_strings(x) == ["-7/3", "5/11"]


def test_power_negative_exponent():
    x = CycloNum(2, 3)
    assert x**-2 == (x * x).inverse()


def test_to_strings_same_for_int_and_fraction_parts():
    assert to_strings(CycloNum(Fraction(4, 2), Fraction(-3))) == ["2", "-3"]
    assert to_strings(CycloNum(2, -3)) == ["2", "-3"]
    assert to_strings(CycloNum(Fraction(3, 2), 1)) == ["3/2", "1"]
    assert to_strings(CycloNum.from_strings(["6/3", "-1/2"])) == ["2", "-1/2"]


def _stored_by_rule(x):
    """Each part is an int exactly when it is integral, never a float."""
    for part in (x.a, x.b):
        assert type(part) in (int, Fraction)
        assert (type(part) is int) == (Fraction(part).denominator == 1)


def test_integral_fractions_and_bools_are_stored_as_ints():
    for x in (CycloNum(True, False), CycloNum(Fraction(6, 3), Fraction(0)),
              CycloNum(Fraction(3, 2), 0) * 2):
        assert type(x.a) is int and type(x.b) is int
    assert CycloNum(True, False) == ONE


@settings(max_examples=80)
@given(mixed, mixed, st.integers(-3, 3), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(1, 6))
def test_parts_are_ints_exactly_when_integral(x, y, k, pa, pb, den):
    results = [x, x + y, x - y, x * y, -x, x.conjugate(), 2 * x, x + 1,
               CycloNum.from_strings(to_strings(x)), from_pair((pa, pb), den)]
    if x:
        results += [x.inverse(), x**k, y / x, 1 / x]
    elif k >= 0:
        results.append(x**k)
    for r in results:
        _stored_by_rule(r)


@settings(max_examples=80)
@given(st.lists(st.one_of(st.integers(-9, 9), fractions, cyclos), max_size=6))
def test_integer_pairs_least_common_denominator(xs):
    pairs, d = integer_pairs(xs)
    # all-int inputs take d = 1 without the lcm pass, and still agree
    assert d == math.lcm(*(Fraction(part).denominator for x in map(as_cyclo, xs)
                           for part in (x.a, x.b)))
    assert [from_pair(p, d) for p in pairs] == xs
    assert all(type(a) is int is type(b) for a, b in pairs)


def test_hashable_and_equal_across_forms():
    assert CycloNum(Fraction(4, 2), Fraction(0)) == CycloNum(2, 0) == 2
    assert hash(CycloNum(2, 0)) == hash(CycloNum(Fraction(2), Fraction(0)))


@settings(max_examples=60)
@given(cyclos)
def test_field_inverse(x):
    if x:
        assert x * x.inverse() == ONE


@settings(max_examples=60)
@given(cyclos, cyclos, cyclos)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z


#: entry points that take scalars; each reaches them through as_cyclo or
#: the rational coercion under it
SCALAR_ENTRY_POINTS = {
    "integer_pairs": lambda x: integer_pairs([1, x]),
    "transfer_link_pairs": lambda x: transfer_link_pairs(1, [1, x], 3),
    "transfer_link_pairs-t": lambda x: transfer_link_pairs(1, [1, 2], x),
    "eigenvalue": lambda x: eigenvalue(x, [1, 2]),
    "schur_eval": lambda x: schur_eval(Partition([1]), [x, 1]),
    "MPoly.constant": lambda x: MPoly.constant(2, x),
    "ExactMatrix": lambda x: ExactMatrix([[1, x]]),
    "psi_point": lambda x: psi_point(1, [1, x]),
    "psi_point-t": lambda x: psi_point(1, [1, 2], t=x),
}


@pytest.mark.parametrize("bad", [1.5, "3"], ids=["float", "str"])
@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
def test_one_dispatch_one_error(entry, bad):
    with pytest.raises(TypeError):
        SCALAR_ENTRY_POINTS[entry](bad)


def test_polynomial_equality_with_a_non_scalar_is_false():
    x = MPoly.variable(2, 0)
    assert (x == 1.5) is False
    assert (x != "3") is True
    assert MPoly.constant(2, 3) == 3 == MPoly.constant(2, Fraction(6, 2))
