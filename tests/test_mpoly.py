import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpoly_oracle
from grid_oracle import homogenize
from loopsum.cyclo import CycloNum, OMEGA as q, ONE, ZERO, as_cyclo, from_pair
from loopsum.mpoly import (
    ArityMismatchError,
    DuplicateNodeError,
    HomogenizationMismatchError,
    MPoly,
    add_all,
    eval_all,
    interpolate_grid,
)


def z(nvars, i):
    return MPoly.variable(nvars, i)


small_coeffs = st.builds(
    CycloNum,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)


def poly_strategy(nvars=3, max_exp=2):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * nvars)
    return st.dictionaries(exps, small_coeffs, max_size=6).map(
        lambda t: MPoly(nvars, t)
    )


def test_eval_basics():
    p = z(4, 0) * z(4, 1) + z(4, 2) * z(4, 3)
    assert p.eval([1, 1, 1, 1]) == CycloNum(2, 0)
    assert MPoly.constant(3, 5).eval([9, 9, 9]) == CycloNum(5, 0)


def test_eval_at_cubic_root_point():
    # q z2 - z1 vanishes at (1, q^2) because q^3 = 1
    p = z(2, 1) * q - z(2, 0)
    assert p.eval([ONE, q * q]) == ZERO


def test_eval_arity_error():
    with pytest.raises(ArityMismatchError):
        MPoly.constant(2, 1).eval([1])


def test_coeff_of():
    p = z(4, 0) * z(4, 1) + z(4, 2) * z(4, 3) * 2
    assert p.coeff_of([0, 0, 1, 1]) == CycloNum(2, 0)
    assert p.coeff_of([1, 1, 0, 0]) == ONE
    assert MPoly.zero(4).coeff_of([1, 0, 0, 0]) == ZERO


def test_is_homogeneous():
    p = z(4, 0) * z(4, 1) + z(4, 2) * z(4, 3)
    assert p.is_homogeneous() == 2
    assert (z(2, 0) + z(2, 0) * z(2, 1)).is_homogeneous() is None


def test_symmetry_under_swap():
    p = z(2, 0) * z(2, 1)
    assert p.swap_args(0, 1) == p
    assert (z(2, 0) - z(2, 1)).swap_args(0, 1) != z(2, 0) - z(2, 1)


def test_specialize_ratio():
    # z2 := q^2 z1 kills q z2 - z1
    p = z(2, 1) * q - z(2, 0)
    assert not p.specialize_ratio(1, 0, q * q)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(nvars=3, max_exp=4),
       st.sampled_from([q * q, CycloNum(Fraction(-3, 2), 2)]))
def test_specialize_ratio_matches_evaluation(p, s):
    # z_2 := s z_0, checked by evaluating at a point where it holds
    pt = [CycloNum(Fraction(2, 3), 1), CycloNum(5, -1)]
    spec = p.specialize_ratio(2, 0, s)
    assert all(e[2] == 0 for e in mpoly_oracle.unpacked(spec))
    assert spec.eval(pt + [7]) == p.eval(pt + [s * pt[0]])


def test_permute_and_swap():
    p = z(3, 0) * z(3, 1) ** 2
    assert p.swap_args(0, 1) == z(3, 1) * z(3, 0) ** 2
    assert p.permute_args([2, 0, 1]) == z(3, 2) * z(3, 0) ** 2


def _canonical(r: MPoly) -> bool:
    # den > 0 and in lowest terms, and no stored (0, 0) pair: otherwise
    # equal polynomials would compare unequal
    parts = [x for pair in r.terms.values() for x in pair]
    return r.den > 0 and math.gcd(r.den, *parts) == 1 and (0, 0) not in r.terms.values()


def _valid(r: MPoly) -> bool:
    return _canonical(r) and r == MPoly(r.nvars, dict(r.items()))


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), st.permutations(range(5)),
       st.sampled_from([ONE, -ONE, q]))
def test_results_store_no_zero_coefficient(a, b, wide, s):
    # the same operations in 3 variables and after a lift into 5; the
    # symmetrized sym has a zero divided difference in slots 0 and 2
    for x, y in [(a, b), (a.permute_args(wide[:3], 5), b.permute_args(wide[:3], 5))]:
        m = x.nvars
        sym = x + x.swap_args(0, 2)
        results = [x + y, x - y, x - x, x * y, x * y - y * x, -x, (x + y) - y,
                   add_all(m, [x, y, -x]), add_all(m, []), x.specialize_ratio(0, 1, s),
                   (x - x.swap_args(0, 1)).specialize_ratio(0, 1, 1),
                   x.divided_difference(0, 2), sym.divided_difference(0, 2),
                   x.permute_args(list(reversed(range(m)))), x.permute_args(range(m), m + 2)]
        for r in results:
            assert _valid(r)
        assert sym.divided_difference(0, 2) == MPoly.zero(m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-1, max_value=5), max_size=5),
       st.sampled_from([None, 3, 5]))
def test_permute_args_takes_exactly_the_injective_maps(perm, nvars):
    p = z(3, 0) * z(3, 1) ** 2 + z(3, 2)
    width = 3 if nvars is None else nvars
    if len(perm) == 3 and len(set(perm)) == 3 and all(0 <= k < width for k in perm):
        r = p.permute_args(perm, nvars)
        assert _valid(r) and r.nvars == width
        assert r.eval([k + 2 for k in range(width)]) == p.eval([perm[k] + 2 for k in range(3)])
    else:
        with pytest.raises(ArityMismatchError):
            p.permute_args(perm, nvars)


def test_homogenize_roundtrip():
    p = z(3, 0) ** 2 * z(3, 1) + z(3, 2) ** 3
    h = homogenize(p, 4)
    assert h.is_homogeneous() == 4
    assert h == z(4, 0) ** 2 * z(4, 1) * z(4, 3) + z(4, 2) ** 3 * z(4, 3)
    assert h.eval([2, 3, 5, 1]) == p.eval([2, 3, 5])
    with pytest.raises(HomogenizationMismatchError):
        homogenize(p, 2)


def test_divided_difference():
    x, y, w = z(3, 0), z(3, 1), z(3, 2)
    p = x ** 3 * w + q * x * y ** 2 + y * w ** 2 + 5 * x * y
    d = p.divided_difference(0, 1)
    assert d * (y - x) == p.swap_args(0, 1) - p
    assert d == (x * x + x * y + y * y) * w - q * x * y - w ** 2
    # symmetric in the pair: nothing left
    assert (x * y + w).divided_difference(0, 1) == MPoly.zero(3)
    with pytest.raises(ValueError):
        p.divided_difference(1, 1)


def test_reversed_reciprocal_involution():
    p = z(2, 0) ** 2 + z(2, 0) * z(2, 1)
    r = p.reversed_reciprocal(2)
    assert r.reversed_reciprocal(2) == p


def test_json_roundtrip_and_term_order():
    p = z(2, 0) ** 2 + z(2, 1) * 3 + MPoly.constant(2, CycloNum(1, 1))
    data = p.to_json()
    exps = [t["exp"] for t in data["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), tuple(e)))
    assert MPoly.from_json(data) == p


rational_parts = st.builds(
    Fraction, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=6)
)


@st.composite
def rational_polys(draw):
    """Polys in 1-4 variables of mixed total degrees whose parts are
    negative, Fractions, zero or w-parts, so den is often not 1."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    coeffs = st.builds(CycloNum, rational_parts, rational_parts)
    return MPoly(nvars, draw(st.dictionaries(exps, coeffs, max_size=8)))


@settings(max_examples=200, deadline=None)
@given(rational_polys())
@example(MPoly.zero(3))
@example(MPoly(2, {(1, 0): Fraction(1, 2), (0, 2): CycloNum(0, -3), (0, 0): CycloNum(4, 2)}))
def test_to_json_and_str_match_the_cyclonum_serializer(p):
    # to_json and str format the integer pairs over den directly; the
    # oracle builds one CycloNum per term
    terms = dict(p.items())
    assert p.to_json() == mpoly_oracle.to_json(p.nvars, terms)
    assert str(p) == mpoly_oracle.to_str(terms)
    assert MPoly.from_json(p.to_json()) == p


def test_interpolate_constant():
    nodes = [[Fraction(0), Fraction(1)]] * 2
    vals = [CycloNum(7, 0)] * 4
    assert interpolate_grid(vals, nodes) == MPoly.constant(2, 7)


def test_interpolate_linear():
    nodes = [[Fraction(0), Fraction(1)]] * 2
    target = z(2, 0) - z(2, 1)
    vals = [target.eval(pt) for pt in itertools.product(*nodes)]
    assert interpolate_grid(vals, nodes) == target


def test_interpolate_missing_point():
    # a value list that does not cover the grid exactly is rejected
    nodes = [[Fraction(0), Fraction(1)]]
    for vals in ([ONE], [ONE, ONE, ONE]):
        with pytest.raises(ValueError):
            interpolate_grid(vals, nodes)


def test_interpolate_empty_axis():
    # an axis with no nodes is a typed error that names it
    for vals, nodes in (([], [[]]), ([], [[Fraction(1), Fraction(2)], []])):
        with pytest.raises(ValueError, match=f"axis {len(nodes) - 1} has no nodes"):
            interpolate_grid(vals, nodes)


def test_interpolate_duplicate_node():
    nodes = [[Fraction(1), Fraction(1)]]
    with pytest.raises(DuplicateNodeError):
        interpolate_grid([ONE, ONE], nodes)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(nvars=2, max_exp=2))
def test_interpolation_roundtrip(p):
    nodes = [[Fraction(k) for k in (1, 2, 3)]] * 2
    vals = [p.eval(pt) for pt in itertools.product(*nodes)]
    assert interpolate_grid(vals, nodes) == p


@settings(max_examples=40)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == MPoly.zero(3)


@settings(max_examples=30)
@given(poly_strategy(nvars=2), st.lists(small_coeffs, min_size=2, max_size=2))
def test_eval_is_ring_homomorphism(p, point):
    q2 = p * p + p
    assert q2.eval(point) == p.eval(point) * p.eval(point) + p.eval(point)


fractional_coeffs = st.builds(
    CycloNum,
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
coordinates = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.integers(min_value=-9, max_value=9),
    fractional_coeffs,
)


@st.composite
def poly_and_point(draw):
    # nvars 1 leaves the low half empty; 3 and 5 split unevenly
    nvars = draw(st.sampled_from([1, 2, 3, 4, 5]))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    p = MPoly(nvars, draw(st.dictionaries(exps, fractional_coeffs, max_size=6)))
    return p, draw(st.lists(coordinates, min_size=nvars, max_size=nvars))


@settings(max_examples=100, deadline=None)
@given(poly_and_point())
@example((MPoly.zero(4), [Fraction(1, 2), 0, q, 3]))
@example((MPoly(1, {(0,): 2, (3,): CycloNum(1, -1)}), [0]))
@example((MPoly(5, {(0, 0, 0, 0, 0): Fraction(1, 2), (2, 0, 0, 1, 3): CycloNum(1, Fraction(-2, 3)),
                    (0, 0, 3, 0, 0): -1, (0, 1, 0, 0, 0): q}),
          [Fraction(1, 2), 0, q, -3, Fraction(5, 3)]))
def test_eval_matches_term_by_term(case):
    # zero polys, mixed degrees (the folded pads), 0^0 = 1, fractional
    # coefficients, rational and Q(w) coordinates, every split of the halves
    p, point = case
    assert p.eval(point) == mpoly_oracle.evaluate(dict(p.items()), point)
    assert eval_all([p, -p, p * 2], point) == [p.eval(point), -p.eval(point), p.eval(point) * 2]


@st.composite
def oracle_case(draw):
    # fractional coefficients with w-parts, two distinct slots, and a
    # rational or Q(w) scale with a denominator
    nvars = draw(st.sampled_from([2, 3, 4]))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    x, y = (MPoly(nvars, draw(st.dictionaries(exps, fractional_coeffs, max_size=5)))
            for _ in range(2))
    i, j = draw(st.permutations(range(nvars)))[:2]
    scale = draw(st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                           fractional_coeffs))
    return x, y, i, j, scale


@settings(max_examples=100, deadline=None)
@given(oracle_case())
@example((MPoly(2, {(2, 0): CycloNum(Fraction(1, 2), Fraction(-3, 4)), (0, 1): Fraction(5, 6)}),
          MPoly(2, {(1, 1): CycloNum(Fraction(2, 3), 1), (0, 0): Fraction(-1, 4)}),
          0, 1, Fraction(-3, 2)))
def test_pair_storage_matches_cyclonum_oracle(case):
    x, y, i, j, scale = case
    cx, cy = dict(x.items()), dict(y.items())
    product, dd = x * y, x.divided_difference(i, j)
    spec, scaled = x.specialize_ratio(i, j, scale), x * scale
    assert dict(product.items()) == mpoly_oracle.mul(cx, cy)
    assert dict(dd.items()) == mpoly_oracle.divided_difference(cx, i, j)
    assert dict(spec.items()) == mpoly_oracle.specialize_ratio(cx, i, j, scale)
    assert dict(scaled.items()) == {e: c * scale for e, c in cx.items() if c * scale}
    for r in (x, y, product, dd, spec, scaled, x + y, -x):
        assert _canonical(r)
        half = r * Fraction(1, 2)
        assert _canonical(half)
        back = half * 2
        assert (back.terms, back.den) == (r.terms, r.den)
        assert MPoly.from_json(r.to_json()) == r


polys3 = st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
                         fractional_coeffs, max_size=5).map(lambda t: MPoly(3, t))


@settings(max_examples=60, deadline=None)
@given(st.lists(polys3, max_size=4))
@example([MPoly(3, {(1, 0, 0): 2}), MPoly(3, {(1, 0, 0): Fraction(1, 3), (0, 0, 1): Fraction(5, 6)})])
def test_add_all_matches_cyclonum_sum(polys):
    expected: dict = {}
    for p in polys:
        for e, c in p.items():
            expected[e] = expected.get(e, ZERO) + c
    total = add_all(3, (p for p in polys))
    assert dict(total.items()) == {e: c for e, c in expected.items() if c}
    assert _valid(total)
    # every term cancels, whatever the order of the denominators
    assert add_all(3, iter([-total] + polys)) == MPoly.zero(3)



# -- packed exponent keys ------------------------------------------------------


def _decoded(r: MPoly) -> dict:
    """r's terms decoded by the storage rule alone, not through items()."""
    assert all(k & int.from_bytes(b"\x80" * r.nvars, "big") == 0 for k in r.terms)
    assert all(k < 1 << 8 * r.nvars for k in r.terms)
    return {e: from_pair(pair, r.den) for e, pair in mpoly_oracle.unpacked(r).items()}


@st.composite
def packed_case(draw):
    # 0 to 10 variables; exponents up to 127, or small enough that no
    # product overflows
    nvars = draw(st.integers(min_value=0, max_value=10))
    top = draw(st.sampled_from([3, 63, 127]))
    exps = st.tuples(*[st.integers(min_value=0, max_value=top)] * nvars)
    polys = [MPoly(nvars, draw(st.dictionaries(exps, fractional_coeffs, max_size=5)))
             for _ in range(3)]
    return nvars, polys


@settings(max_examples=100, deadline=None)
@given(packed_case(), st.data())
@example((1, [MPoly(1, {(100,): 1}), MPoly(1, {(27,): 2}), MPoly.zero(1)]), None)
def test_packed_keys_match_the_tuple_reference(case, data):
    nvars, (x, y, w) = case
    cx, cy, cw = (dict(p.items()) for p in (x, y, w))
    for p, c in ((x, cx), (y, cy), (w, cw)):
        assert _decoded(p) == c
        assert p.to_json() == mpoly_oracle.to_json(nvars, c)
        assert MPoly.from_json(p.to_json()) == p
    if any(a + b > 127 for e1 in cx for e2 in cy for a, b in zip(e1, e2)):
        with pytest.raises(OverflowError):
            x * y
    else:
        assert _decoded(x * y) == mpoly_oracle.mul(cx, cy)
    assert _decoded(add_all(nvars, [x, y, w])) == mpoly_oracle.add_all([cx, cy, cw])
    width = nvars if data is None else data.draw(st.integers(min_value=nvars, max_value=10))
    perm = list(range(nvars)) if data is None else data.draw(st.permutations(range(width)))[:nvars]
    assert _decoded(x.permute_args(perm, width)) == mpoly_oracle.permute_args(cx, perm, width)
    d = 127 if data is None else data.draw(st.integers(min_value=0, max_value=127))
    if any(k > d for e in cx for k in e):
        with pytest.raises(ValueError):
            x.reversed_reciprocal(d)
    else:
        assert _decoded(x.reversed_reciprocal(d)) == mpoly_oracle.reversed_reciprocal(cx, d)
    if data is not None:
        point = data.draw(st.lists(coordinates, min_size=nvars, max_size=nvars))
        assert eval_all([x, w], point) == [mpoly_oracle.evaluate(c, point) for c in (cx, cw)]
    if nvars >= 2:
        i, j = (0, 1) if data is None else data.draw(st.permutations(range(nvars)))[:2]
        assert _decoded(x.divided_difference(i, j)) == mpoly_oracle.divided_difference(cx, i, j)
        assert _decoded(x.swap_args(i, j)) == mpoly_oracle.permute_args(
            cx, [j if k == i else i if k == j else k for k in range(nvars)], nvars)
        if any(e[i] + e[j] > 127 for e in cx):
            with pytest.raises(OverflowError):
                x.specialize_ratio(i, j, Fraction(-3, 2))
        else:
            assert _decoded(x.specialize_ratio(i, j, Fraction(-3, 2))) == \
                mpoly_oracle.specialize_ratio(cx, i, j, Fraction(-3, 2))


def test_guard_bit_stops_an_exponent_at_127():
    # an exponent of 128 raises; it never carries into the next variable
    x, y = z(2, 0), z(2, 1)
    assert (x ** 100 * x ** 27).coeff_of([127, 0]) == ONE
    assert x ** 127 * y ** 127 == MPoly(2, {(127, 127): 1})
    with pytest.raises(OverflowError):
        x ** 100 * x ** 28
    with pytest.raises(OverflowError):
        y ** 128
    with pytest.raises(OverflowError):
        (y ** 100 * x ** 28 + x).specialize_ratio(1, 0, 2)
    assert (y ** 99 * x ** 28 + x).specialize_ratio(1, 0, 2) == x ** 127 * 2 ** 99 + x


@pytest.mark.parametrize("exps, error", [
    ((128, 0), ValueError), ((0, -1), ValueError), ((1.5, 0), TypeError),
    ((1, 0, 0), ArityMismatchError),
])
def test_exponents_are_validated_at_the_boundary(exps, error):
    with pytest.raises(error):
        MPoly(2, {exps: 1})
    with pytest.raises(error):
        MPoly.from_json({"nvars": 2, "terms": [{"exp": list(exps), "coeff": ["1", "0"]}]})
    with pytest.raises(error):
        z(2, 0).coeff_of(exps)


def test_integral_exponents_of_any_int_type_are_accepted():
    import numpy as np

    p = MPoly(2, {(np.int64(2), True): 3})
    assert p == MPoly(2, {(2, 1): 3}) and p.to_json()["terms"][0]["exp"] == [2, 1]


def test_from_json_rejects_a_repeated_exponent():
    data = z(2, 0).to_json()
    data["terms"].append({"exp": [1, 0], "coeff": ["2", "0"]})
    with pytest.raises(ValueError, match="repeated"):
        MPoly.from_json(data)


def test_interpolate_grid_refuses_exponents_above_127():
    nodes = [[Fraction(k) for k in range(129)]]
    with pytest.raises(ValueError, match="128"):
        interpolate_grid([ONE] * 129, nodes)


def _newton_interpolate(values, grid):
    """Oracle: per-variable Newton divided differences over the tensor grid,
    in Fraction arithmetic, expanded into monomial coefficients."""
    nodes = [[Fraction(x) for x in axis] for axis in grid]
    dims = [len(ax) for ax in nodes]
    flat = [as_cyclo(x) for x in values]
    assert len(flat) == math.prod(dims)
    # the conversions are linear and act on disjoint indices, so after all
    # axes the tensor holds the monomial coefficients directly
    stride = 1
    for axis in range(len(nodes) - 1, -1, -1):
        xs = nodes[axis]
        m = dims[axis]
        block = stride * m
        for outer in range(len(flat) // block):
            for inner in range(stride):
                start = outer * block + inner
                line = [flat[start + k * stride] for k in range(m)]
                for j in range(1, m):
                    for k in range(m - 1, j - 1, -1):
                        line[k] = (line[k] - line[k - 1]) * Fraction(1, xs[k] - xs[k - j])
                # expand the Newton form into ascending monomial coefficients
                poly = [line[m - 1]]
                for k in range(m - 2, -1, -1):
                    xk = xs[k]
                    poly = [line[k] - xk * poly[0]] + [
                        poly[i - 1] - xk * poly[i] for i in range(1, len(poly))
                    ] + [poly[-1]]
                for k in range(m):
                    flat[start + k * stride] = poly[k]
        stride = block
    exponents = itertools.product(*(range(d) for d in dims))
    return MPoly(len(nodes), dict(zip(exponents, flat)))


# distinct nodes per axis, 1 to 4 of them, with 0, negatives and fractions
grid_axes = st.lists(
    st.one_of(st.sampled_from([0, -1, 1, 2, -3]),
              st.fractions(min_value=-5, max_value=5, max_denominator=4)),
    min_size=1, max_size=4, unique_by=Fraction,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(grid_axes, min_size=1, max_size=3), st.data())
def test_interpolate_grid_matches_newton_oracle(grid, data):
    # axes differ, may hold a single node, and the values carry denominators
    size = math.prod(map(len, grid))
    values = data.draw(st.lists(fractional_coeffs, min_size=size, max_size=size))
    assert interpolate_grid(values, grid) == _newton_interpolate(values, grid)


def test_pool_workers_clamped_to_cpus(monkeypatch):
    # no worker process is started at all: --threads far above the CPU
    # count is accepted, and Psi_2 is built in this process
    import multiprocessing.process

    from loopsum import cli, groundstate

    def no_worker(self):
        raise AssertionError(f"worker process {self.name} started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_worker)
    monkeypatch.delitem(groundstate._SYMBOLIC_CACHE, 2, raising=False)
    assert cli.main(["components", "2", "--threads", "100000", "--json"]) == 0
    assert 2 in groundstate._SYMBOLIC_CACHE
