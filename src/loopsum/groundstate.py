"""Groundstate vector of the loop-model transfer matrix, exactly.

The vector Psi_n lives on link patterns and is pinned down by two facts:
at any admissible point it spans the kernel of T_n - Lambda with
Lambda = prod_i (q t - q^{-1} z_i), independently of t, and its component
on the fully nested pattern equals the closed product
prod_{i<j<=n} (q z_i - q^{-1} z_j) * prod_{n<i<j} (q^{-1} z_j - q z_i).

The polynomial components are built from the nested one without
sampling: rotation covariance and the exchange relation at the little
arches determine every other component (psi_symbolic), and the result is
validated against its degree bounds and an exact off-grid eigen residual.
Values at a point (psi_point) are the certified kernel vector of
modular.kernel_vector at the point scaled to integers.

The check_* functions verify the structural identities the vector must
satisfy: vanishing/recursion under z_{i+1} = q^2 z_i, the exchange
relation under swapping neighbours, factorized vanishing on in-sequence
pairs, cyclic and reflection covariance, the distinguished-monomial
property, and t-independence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .cyclo import (
    CycloNum,
    ONE,
    Q,
    Q_INV,
    ZERO,
    _rational,
    from_pair,
    integer_pairs,
    pair_mul,
    pair_qdiff,
)
from .linkpat import (
    LinkPattern,
    arch_remove,
    enumerate_patterns,
    fully_nested,
    pattern_index,
    reflect,
    rotate,
    sequence_decomposition,
)
from .modular import DegenerateKernelError, kernel_vector
from .mpoly import HomogenizationMismatchError, MPoly, add_all, eval_all, product
from .report import CheckReport
from .tmatrix import (
    e_link_matrix,
    eigenvalue,
    kernel_matrix_limbs,
    transfer_link,
    verify_spin_eigenvector,
)

#: q^2 equals q^{-1} at the cubic root of unity; the recursion locus is
#: z_{i+1} = q^2 z_i.
QSQ = Q_INV


# ---------------------------------------------------------------------------
# the normalization anchor
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def base_component(n: int) -> MPoly:
    """Closed form of the component on the fully nested pattern."""
    m = 2 * n
    z = [MPoly.variable(m, k) for k in range(m)]
    pairs = itertools.combinations
    return product(m, [z[i] * Q - z[j] * Q_INV for i, j in pairs(range(n), 2)]
                   + [z[j] * Q_INV - z[i] * Q for i, j in pairs(range(n, m), 2)])


def base_component_value(n: int, zs: Sequence) -> CycloNum:
    """base_component at a point, computed in integer pairs: it is
    homogeneous of degree n(n-1), so scaling the z_i by their common
    denominator d scales it by d^(n(n-1))."""
    z, d = integer_pairs(zs)
    pairs = itertools.combinations
    acc = (1, 0)
    # a pair in n..2n-1 gives q^{-1} z_j - q z_i = -(q z_i - q^{-1} z_j)
    for i, j in [*pairs(range(n), 2), *pairs(range(n, 2 * n), 2)]:
        acc = pair_mul(acc, pair_qdiff(z[i], z[j]))
    if n * (n - 1) // 2 % 2:
        acc = (-acc[0], -acc[1])
    return from_pair(acc, d ** (n * (n - 1)))


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointVector:
    """Exact groundstate values at one parameter point, canonical order."""

    n: int
    z: tuple
    t: Fraction
    values: tuple


def psi_point(
    n: int,
    zs: Sequence,
    t=None,
    spin_certificate: bool = False,
) -> PointVector:
    """Exact groundstate values at a point, normalized on the nested pattern.

    z must be positive rationals (that keeps the normalizing component away
    from zero and the point off every recursion locus).  z and t are scaled
    to integers by s, the lcm of their denominators, which leaves the
    kernel of T - Lambda unchanged; kernel_vector solves there,
    normalized to the nested component at s z, and the vector it returns
    has passed the exact residual check.  By homogeneity, dividing every
    coordinate by s^(n(n-1)) gives the values at z.  When t is omitted a
    retry schedule t = 1, 2, 3, ... skips the degenerate choices.  With
    spin_certificate=True the result is additionally certified against the
    spin-representation transfer matrix.
    """
    z = tuple(_rational(x) for x in zs)
    if len(z) != 2 * n:
        raise ValueError(f"expected {2 * n} parameters, got {len(z)}")
    if any(x <= 0 for x in z):
        raise ValueError("spectral parameters must be positive rationals")
    schedule = [_rational(t)] if t is not None else (Fraction(k) for k in range(1, 13))
    last: Optional[Exception] = None
    for tt in schedule:
        rationals, scale = integer_pairs([tt, *z])
        t_int, *zs_int = (a for a, _ in rationals)
        base = base_component_value(n, zs_int)
        try:
            pairs = kernel_vector(kernel_matrix_limbs(n, zs_int, t_int),
                                  (int(base.a), int(base.b)))
            values = [from_pair(pair, scale ** (n * (n - 1))) for pair in pairs]
            if spin_certificate and not verify_spin_eigenvector(
                n, list(z), tt, values
            ):
                raise RuntimeError("spin-representation certificate failed")
            return PointVector(n, z, tt, tuple(values))
        except DegenerateKernelError as exc:
            last = exc
    raise DegenerateKernelError(
        f"no admissible t in schedule for z={z}"
    ) from last


# ---------------------------------------------------------------------------
# symbolic reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Groundstate:
    """Exact polynomial components of Psi_n, canonical pattern order."""

    n: int
    patterns: tuple
    components: tuple

    def component(self, pattern: LinkPattern) -> MPoly:
        return self.components[pattern_index(self.n)[pattern.pairing]]

    def sum_components(self) -> MPoly:
        return add_all(2 * self.n, self.components)

    def values_at(self, zs) -> list[CycloNum]:
        return eval_all(self.components, list(zs))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "patterns": [p.to_chords_json() for p in self.patterns],
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Groundstate":
        n = data["n"]
        pats = enumerate_patterns(n)
        stored = [LinkPattern.from_chords(c) for c in data["patterns"]]
        if tuple(p.pairing for p in stored) != tuple(p.pairing for p in pats):
            raise ValueError("patterns not in canonical order")
        comps = tuple(MPoly.from_json(c) for c in data["components"])
        if len(comps) != len(pats):
            raise ValueError(f"{len(comps)} components for {len(pats)} patterns")
        if any(c.nvars != 2 * n for c in comps):
            raise ValueError(f"components must have {2 * n} variables")
        return cls(n, pats, comps)


_SYMBOLIC_CACHE: dict[int, Groundstate] = {}


class ExchangeStuckError(RuntimeError):
    """No known component determines a missing one by the exchange relation."""


def _complete_by_exchange(n: int, known: dict) -> list[tuple[int, LinkPattern]]:
    """Fill ``known`` (pattern -> component) with every component of Psi_n
    and return the exchange steps taken, as (i, solved pattern).

    Each component brings its rotation orbit (check_cyclic_reflection).
    Where pi has the little arch (i, i+1), i < 2n, e_i pi = pi closes a
    loop, and as 1 + q = -q^{-1} the exchange relation (check_exchange)
    says: the sum of Psi_pi' over pi' != pi with e_i pi' = pi equals
    (q z_i - q^{-1} z_{i+1}) d_i Psi_pi, d_i the divided difference in
    z_i, z_{i+1}.  A step solves this for the one unknown pi' of a known
    pi and adds it, so there are fewer steps than patterns; where no pi
    has exactly one unknown, ExchangeStuckError is raised.
    """
    m = 2 * n
    patterns = enumerate_patterns(n)
    index = pattern_index(n)
    shift = list(range(1, m)) + [0]  # slot k holds z_{k+2}, the last z_1

    def preimages(i: int, pat: LinkPattern) -> list[LinkPattern]:
        # the pi' != pat with e_i pi' = pat: the 1s in pat's row of e_i
        k = index[pat.pairing]
        return [patterns[s] for s, hit in enumerate(e_link_matrix(n, i).data[k])
                if hit and s != k]

    def add_orbit(pat: LinkPattern) -> None:
        nxt = rotate(pat)
        while nxt not in known:
            known[nxt] = known[pat].permute_args(shift)
            pat, nxt = nxt, rotate(nxt)

    def unknown(i: int, pat: LinkPattern) -> list[LinkPattern]:
        return [p for p in preimages(i, pat) if p not in known]

    for pat in list(known):
        add_orbit(pat)
    steps = []
    while len(known) < len(patterns):
        step = next(((i, pat) for pat in known for i in range(1, m)
                     if len(unknown(i, pat)) == 1), None)
        if step is None:
            raise ExchangeStuckError(f"{len(patterns) - len(known)} components of "
                                     f"Psi_{n} are out of the exchange relation's reach")
        i, pat = step
        (new,) = unknown(i, pat)
        zi, zj = MPoly.variable(m, i - 1), MPoly.variable(m, i)
        known[new] = ((zi * Q - zj * Q_INV) * known[pat].divided_difference(i - 1, i)
                      - add_all(m, (known[p] for p in preimages(i, pat) if p != new)))
        add_orbit(new)
        steps.append((i, new))
    return steps


def psi_symbolic(n: int) -> Groundstate:
    """All components of Psi_n as exact polynomials, built from the
    closed-form nested one (_complete_by_exchange), validated and memoized
    per n; default size cap is n <= 4, n = 5 is possible but long."""
    if n not in _SYMBOLIC_CACHE:
        known = {fully_nested(n): base_component(n)}
        _complete_by_exchange(n, known)
        pats = enumerate_patterns(n)
        g = Groundstate(n, pats, tuple(known[p] for p in pats))
        _validate_symbolic(g)
        _SYMBOLIC_CACHE[n] = g
    return _SYMBOLIC_CACHE[n]


def within_degree_bounds(comp: MPoly, n: int) -> bool:
    """True iff comp is homogeneous of total degree n(n-1) with degree at
    most n-1 in each variable, the bounds of every component of Psi_n."""
    return comp.is_homogeneous() == n * (n - 1) and comp.exponents_below(n)


def _validate_symbolic(g: Groundstate) -> None:
    n = g.n
    for k, comp in enumerate(g.components):
        if not within_degree_bounds(comp, n):
            raise HomogenizationMismatchError(
                f"component {k}: not homogeneous of total degree {n * (n - 1)} "
                f"with degree at most {n - 1} in each variable"
            )
    # spot residual at an off-grid point, exact
    zs = [Fraction(n + 2 + 3 * k, 2) for k in range(2 * n)]
    vals = g.values_at(zs)
    lam = eigenvalue(Fraction(3), zs)
    if transfer_link(Fraction(3), zs, n).apply(vals) != [lam * v for v in vals]:
        raise HomogenizationMismatchError("off-grid eigen residual is nonzero")


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------


def _vanish_prefactor(m: int, i0: int, exclude: Sequence[int]) -> MPoly:
    """prod over k not excluded of (q z_{i0} - z_k), 0-indexed variables."""
    zi = MPoly.variable(m, i0)
    factors = [
        zi * Q - MPoly.variable(m, k) for k in range(m) if k not in exclude
    ]
    return product(m, factors)


def _check_arch_recursion(report: CheckReport, gn: Groundstate, gn1: Groundstate,
                          comps: Sequence[MPoly], I: int, J: int,
                          prefactor: MPoly, **extra) -> MPoly:
    """Specialize z_J = q^2 z_I (0-indexed) in each of comps, which are
    indexed like gn.patterns: where the pattern has the arch (I+1, I+2)
    the result must be prefactor times the lifted size n-1 component
    without it, elsewhere it must vanish.  Adds one case per pattern and
    returns the sum of the specialized components."""
    m = 2 * gn.n
    i = I + 1
    varmap = [k for k in range(m) if k not in (I, J)]
    specs = [comp.specialize_ratio(J, I, QSQ) for comp in comps]
    for pat, spec in zip(gn.patterns, specs):
        if pat.partner(i) == i + 1:
            small = gn1.component(arch_remove(i, pat))
            ok = spec == prefactor * small.permute_args(varmap, m)
            report.add(ok, pattern=pat.to_chords_json(), kind="arch", **extra)
        else:
            report.add(not spec, pattern=pat.to_chords_json(), kind="vanish",
                       **extra)
    return add_all(m, specs)


def _exchange_apply(c_id: MPoly, c_e: MPoly, e, x: Sequence[MPoly]) -> list[MPoly]:
    """c_id x + c_e (e x), componentwise, for a 0/1 link-basis matrix e."""
    return [
        c_id * x[k] + c_e * add_all(c_id.nvars, (x[kk] for kk, hit in enumerate(e.data[k]) if hit))
        for k in range(len(x))
    ]


def check_recursion_adjacent(gn: Groundstate, gn1: Groundstate, i: int) -> CheckReport:
    """At z_{i+1} = q^2 z_i (1 <= i <= 2n-1): components without the arch
    (i, i+1) vanish; components with it reduce to the size n-1 state times
    prod_{k != i,i+1} (q z_i - z_k)."""
    n = gn.n
    m = 2 * n
    if not 1 <= i <= m - 1:
        raise ValueError("adjacent recursion needs 1 <= i <= 2n-1")
    report = CheckReport(f"recursion-adjacent(n={n}, i={i})")
    I, J = i - 1, i
    _check_arch_recursion(report, gn, gn1, gn.components, I, J,
                          _vanish_prefactor(m, I, (I, J)))
    return report


def check_exchange(gn: Groundstate, i: int) -> CheckReport:
    """The neighbour-swap identity on components:

    (q z_{i+1} - q^{-1} z_i) Psi_pi(z)
      = (q z_i - q^{-1} z_{i+1}) Psi_pi(z with i, i+1 swapped)
        + (z_i - z_{i+1}) sum over pi' with e_i pi' = pi of Psi_pi'(swapped).

    psi_symbolic imposes rotation covariance and solves through the rows
    of a few patterns pi with the arch (i, i+1) (_complete_by_exchange):
    i = 3 at n = 3, i = 4 and 1 at n = 4, none at n <= 2.  On its output
    the check is circular only for those rows and their rotations, the
    row of r^k pi at i + k (mod 2n); every other row, at every i and the
    cyclic i = 2n too, is an independent test.
    """
    n = gn.n
    m = 2 * n
    I = i - 1
    J = i % m  # cyclic successor, 0-indexed
    report = CheckReport(f"exchange(n={n}, i={i})")
    zi = MPoly.variable(m, I)
    zj = MPoly.variable(m, J)
    swapped = [c.swap_args(I, J) for c in gn.components]
    rhs = _exchange_apply(zi * Q - zj * Q_INV, zi - zj, e_link_matrix(n, i),
                          swapped)
    lhs_factor = zj * Q - zi * Q_INV
    for pat, comp, r in zip(gn.patterns, gn.components, rhs):
        report.add(lhs_factor * comp == r, pattern=pat.to_chords_json())
    return report


def check_factorization(gn: Groundstate) -> CheckReport:
    """Vanishing at z_j = q^2 z_i for i before j in one sequence of the
    little-arch decomposition, plus swap symmetry of the cofactor across
    adjacent in-sequence pairs."""
    n = gn.n
    m = 2 * n
    report = CheckReport(f"factorization(n={n})")
    for pat, comp in zip(gn.patterns, gn.components):
        for run in sequence_decomposition(pat):
            for a, b in itertools.combinations(run, 2):
                sub = comp.specialize_ratio(b - 1, a - 1, QSQ)
                report.add(
                    not sub,
                    pattern=pat.to_chords_json(),
                    pair=[a, b],
                    kind="vanish",
                )
        for i in range(1, m):
            if pat.partner(i) == i + 1:
                continue  # arch there: not an in-sequence pair
            zi = MPoly.variable(m, i - 1)
            zj = MPoly.variable(m, i)
            lhs = (zj * Q - zi * Q_INV) * comp
            rhs = (zi * Q - zj * Q_INV) * comp.swap_args(i - 1, i)
            report.add(
                lhs == rhs,
                pattern=pat.to_chords_json(),
                pair=[i, i + 1],
                kind="cofactor-symmetry",
            )
    return report


def check_cyclic_reflection(gn: Groundstate) -> CheckReport:
    """Rotation covariance Psi_pi(z_1..z_2n) = Psi_{r pi}(z_2n, z_1, ..)
    and the reflection relation
    prod_k z_k^{n-1} Psi_{s pi}(1/z_2n, .., 1/z_1) = Psi_pi(z)."""
    n = gn.n
    m = 2 * n
    report = CheckReport(f"cyclic-reflection(n={n})")
    # argument rotation: slot 0 holds z_2n, slot k holds z_k for k >= 1
    perm = [m - 1] + list(range(m - 1))
    for pat, comp in zip(gn.patterns, gn.components):
        rot = gn.component(rotate(pat)).permute_args(perm)
        report.add(rot == comp, pattern=pat.to_chords_json(), kind="rotation")
        refl = gn.component(reflect(pat)).reversed_reciprocal(n - 1)
        report.add(refl == comp, pattern=pat.to_chords_json(), kind="reflection")
    return report


def check_monomial_property(gn: Groundstate) -> CheckReport:
    """Each pattern owns its symmetrized monomial family: coefficient 1 in
    its component and 0 in all others."""
    n = gn.n
    m = 2 * n
    report = CheckReport(f"monomial(n={n})")
    for k, pat in enumerate(gn.patterns):
        chords = pat.chords()
        for sigma in itertools.permutations(range(n)):
            exps = [0] * m
            for c, (a, b) in enumerate(chords):
                exps[a - 1] = sigma[c]
                exps[b - 1] = sigma[c]
            ok = all(comp.coeff_of(exps) == (ONE if kk == k else ZERO)
                     for kk, comp in enumerate(gn.components))
            report.add(ok, pattern=pat.to_chords_json(), exponents=exps)
    return report


def check_t_independence(n: int, zs) -> CheckReport:
    """psi_point returns identical vectors at t = 2, 5 and 7."""
    report = CheckReport(f"t-independence(n={n})")
    vecs = [psi_point(n, zs, t=t) for t in (2, 5, 7)]
    for a, b in zip(vecs, vecs[1:]):
        report.add(a.values == b.values, t_pair=[str(a.t), str(b.t)])
    return report


def check_recursion_general(gn: Groundstate, gn1: Groundstate, i: int, j: int) -> CheckReport:
    """Recursion at z_j = q^2 z_i for non-adjacent i, j.

    The moving variable is transported next to z_i with the exchange
    operators (q z_m - q^{-1} z_j) I + (z_m - z_j) e_m, the adjacent
    recursion is applied, and the accumulated scalar is confirmed on the
    sum of components against the symmetric-function recursion.  Pairs
    wrapping past 2n reduce to this case by rotation covariance (which is
    checked separately).
    """
    n = gn.n
    m = 2 * n
    if i == j:
        raise ValueError("distinct positions required")
    d = (j - i) % m
    if i + d > m:
        i_eff, j_eff, reduced = 1, 1 + d, True
    else:
        i_eff, j_eff, reduced = i, i + d, False
    report = CheckReport(f"recursion-general(n={n}, i={i}, j={j})")
    if d == 1:
        inner = check_recursion_adjacent(gn, gn1, i_eff)
        report.cases.extend(inner.cases)
        return report
    I, J = i_eff - 1, j_eff - 1
    x = list(gn.components)
    scalar = MPoly.constant(m, 1)
    zj = MPoly.variable(m, J)
    for mpos in range(J - 1, I, -1):
        zm = MPoly.variable(m, mpos)
        x = _exchange_apply(zj * Q - zm * Q_INV, zj - zm,
                            e_link_matrix(n, mpos + 1), x)
        scalar = scalar * (zm * Q - zj * Q_INV)
    scalar_spec = scalar.specialize_ratio(J, I, QSQ)
    prefactor = _vanish_prefactor(m, I, (I, J)) * scalar_spec
    total = _check_arch_recursion(report, gn, gn1, x, I, J, prefactor,
                                  reduced_by_rotation=reduced)
    varmap = [k for k in range(m) if k not in (I, J)]
    ok = total == prefactor * gn1.sum_components().permute_args(varmap, m)
    report.add(ok, kind="sum-rule-prefactor", reduced_by_rotation=reduced)
    return report


def check_normalization_chain(gn_list: Sequence[Groundstate]) -> CheckReport:
    """Stripping the little arches of the all-arch pattern one at a time
    walks the normalization down to the size-1 state (identically 1)."""
    from .linkpat import consecutive_arches

    report = CheckReport("normalization-chain")
    for gsmall, gbig in zip(gn_list, gn_list[1:]):
        n = gbig.n
        m = 2 * n
        pat = consecutive_arches(n)
        comp = gbig.component(pat)
        lhs = comp.specialize_ratio(1, 0, QSQ)
        prefactor = _vanish_prefactor(m, 0, (0, 1))
        rhs = prefactor * gsmall.component(arch_remove(1, pat)).permute_args(range(2, m), m)
        report.add(lhs == rhs, n=n)
    return report
