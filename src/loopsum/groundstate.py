"""Groundstate vector of the loop-model transfer matrix, exactly.

The vector Psi_n lives on link patterns and is pinned down by two facts:
at any admissible point it spans the kernel of T_n - Lambda with
Lambda = prod_i (q t - q^{-1} z_i), independently of t, and its component
on the fully nested pattern equals the closed product
prod_{i<j<=n} (q z_i - q^{-1} z_j) * prod_{n<i<j} (q^{-1} z_j - q z_i).

Construction is point evaluation plus tensor-grid interpolation: each grid
point is a small exact kernel solve, the per-variable degree bound n-1
makes the interpolation exact, and homogeneity (total degree n(n-1)) lets
one variable be pinned to 1 during sampling.  Every point solve runs
modularly (symmetric CRT over primes, rational reconstruction as fallback)
but every returned vector is certified by an exact residual check and its
nested component, so no probabilistic step survives in the results.

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
from math import lcm
from typing import Optional, Sequence

from .cyclo import (
    CycloNum,
    ONE,
    Q,
    Q_INV,
    ZERO,
    _frac,
    from_pair,
    integer_pairs,
    pair_mul,
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
from .modular import (
    cached_primes,
    crt_lift,
    fraction_mod,
    nullspace_mod_np,
    rational_reconstruct,
)
from .mpoly import HomogenizationMismatchError, MPoly, product, reconstruct_homogeneous
from .report import CheckReport
from .tmatrix import (
    _qdiff,
    e_link_matrix,
    eigenvalue,
    kernel_matrix_limbs,
    limbs_mod,
    limbs_vanish,
    transfer_link,
    verify_spin_eigenvector,
)

#: q^2 equals q^{-1} at the cubic root of unity; the recursion locus is
#: z_{i+1} = q^2 z_i.
QSQ = Q_INV


class DegenerateKernelError(RuntimeError):
    """The kernel of T - Lambda is not one-dimensional at this (z, t)."""


# ---------------------------------------------------------------------------
# the normalization anchor
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def base_component(n: int) -> MPoly:
    """Closed form of the component on the fully nested pattern."""
    m = 2 * n
    factors = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            zi = MPoly.variable(m, i - 1)
            zj = MPoly.variable(m, j - 1)
            factors.append(zi * Q - zj * Q_INV)
    for i in range(n + 1, m + 1):
        for j in range(i + 1, m + 1):
            zi = MPoly.variable(m, i - 1)
            zj = MPoly.variable(m, j - 1)
            factors.append(zj * Q_INV - zi * Q)
    return product(m, factors)


def base_component_value(n: int, zs: Sequence) -> CycloNum:
    """base_component at a point, computed in integer pairs: it is
    homogeneous of degree n(n-1), so scaling the z_i by their common
    denominator d scales it by d^(n(n-1))."""
    z, d = integer_pairs(zs)
    m = 2 * n
    acc = (1, 0)
    for i in range(n):
        for j in range(i + 1, n):
            acc = pair_mul(acc, _qdiff(z[i], z[j]))
    # q^{-1} z_j - q z_i = -(q z_i - q^{-1} z_j)
    for i in range(n, m):
        for j in range(i + 1, m):
            acc = pair_mul(acc, _qdiff(z[i], z[j]))
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


#: Primes below 2^30 keep the modular kernel inside int64.  Elimination:
#: each update is a product of two residues, p^2 < 2^60 < 2^62, and
#: nullspace_mod_np reduces before such products could sum past 2^63.
#: Assembly: the tile sums in reduceat are exact 30-bit limbs,
#: 2^(2n) * 2^30 < 2^63 for n <= 16 whatever p, and limbs_mod scales their
#: residues by residues, again below p^2.
_PRIME_START = (1 << 29) + 1
#: primes combined per kernel solve; about 30 bits each
_MAX_PRIMES = 64


def _symmetric(r: int, m: int) -> int:
    """The representative of r mod m in (-m/2, m/2]."""
    return r - m if 2 * r > m else r


def _kernel_modular(n: int, zs_int, t_int, base_val: CycloNum,
                    pi0: int) -> list[CycloNum]:
    """Kernel vector normalized to base_val at pi0, via CRT over primes.

    The exact matrix T - Lambda is built once, as kernel_matrix_limbs.
    Each batch of primes is one stack of its reductions over F_p, one
    member for each embedding w -> g, g^2 of each prime, eliminated by a
    single nullspace_mod_np call.  The first batch is sized from base_val,
    the value at pi0, which is known before the solve: enough primes for
    its bits plus a margin for the other components.  The (a, b)
    coordinates of the batch are split, lifted once by symmetric CRT and
    certified; rational reconstruction is the fallback for fractional
    values, and each failed certification adds a batch of two primes.  A
    candidate is only accepted with base_val at pi0 and after the exact
    residual check against the same limbs (limbs_vanish), so unlucky primes
    or a short modulus cost retries, never correctness.  At most
    _MAX_PRIMES primes are combined and at most 2 * _MAX_PRIMES are tried,
    skipped ones included.
    """
    import numpy as np

    limbs = kernel_matrix_limbs(n, zs_int, t_int)
    cn = limbs.shape[2]

    def certified(va, vb, den=1) -> bool:
        # the candidate (va + vb w) / den; clearing den does not change
        # whether (T - Lambda) v vanishes
        return (from_pair((va[pi0], vb[pi0]), den) == base_val
                and limbs_vanish(limbs, va, vb))

    residues_a = residues_b = [0] * cn
    modulus = 1
    # rational reconstruction needs about twice the bits of the values;
    # start it below a crude magnitude estimate and retry every other prime
    est_bits = 2 * (n * (n - 1) + 2 * n) * max(
        int(abs(z)).bit_length() + 2 for z in list(zs_int) + [t_int, 1]
    )
    min_primes = max(2, est_bits // 116 + 1)
    # every prime exceeds 2^29; the other components run a few bits past
    # the nested one
    base_bits = max(abs(x).bit_length() for part in (base_val.a, base_val.b)
                    for x in (part.numerator, part.denominator))
    batch = -(-(base_bits + cn.bit_length() + 10) // 29)
    used = lifted = taken = 0
    degenerate_strikes = 0
    while used < _MAX_PRIMES and taken < 2 * _MAX_PRIMES:
        size = min(batch, _MAX_PRIMES - used, 2 * _MAX_PRIMES - taken)
        fresh = cached_primes(taken + size, _PRIME_START)[taken:]
        taken += size
        batch = 2
        members = []
        for p, g in fresh:
            try:
                base_p = (fraction_mod(base_val.a, p), fraction_mod(base_val.b, p))
            except ZeroDivisionError:
                continue
            members.append((p, (g, g * g % p), base_p))
        stack = np.empty((2 * len(members), cn, cn), dtype=np.int64)
        for k, (p, ws, _) in enumerate(members):
            amat, bmat = limbs_mod(limbs, p)
            # a + b w at both embeddings of w: products of residues below
            # 2^30 stay inside int64
            stack[2 * k:2 * k + 2] = (bmat * np.array(ws)[:, None, None] + amat) % p
        bases = nullspace_mod_np(stack, [m[0] for m in members for _ in (0, 1)])
        degenerate = None
        for k, (p, ws, base_p) in enumerate(members):
            per_embed = []
            for e, w in enumerate(ws):
                basis = bases[2 * k + e]
                if len(basis) != 1:
                    # the kernel mod p can only be larger than the exact
                    # one; two independent witnesses mean genuine degeneracy
                    degenerate_strikes += 1
                    if degenerate_strikes >= 2:
                        degenerate = DegenerateKernelError(
                            f"kernel dimension {len(basis)} (mod {p}) at t={t_int}"
                        )
                    per_embed = None
                    break
                if basis[0][pi0] == 0:
                    per_embed = None
                    break
                v = basis[0]
                target = (base_p[0] + base_p[1] * w) % p
                scale = target * pow(v[pi0], -1, p) % p
                per_embed.append([x * scale % p for x in v])
            if degenerate is not None:
                break
            if per_embed is None:
                continue
            # x = a + b g and y = a + b g^2, coordinate by coordinate
            x, y = per_embed
            g, gg = ws
            inv_gg = pow((g - gg) % p, -1, p)
            rb = [(xk - yk) * inv_gg % p for xk, yk in zip(x, y)]
            ra = [(xk - b * g) % p for xk, b in zip(x, rb)]
            residues_a = crt_lift(residues_a, modulus, ra, p)
            residues_b = crt_lift(residues_b, modulus, rb, p)
            modulus *= p
            used += 1
        if used > lifted:
            lifted = used
            va = [_symmetric(a, modulus) for a in residues_a]
            vb = [_symmetric(b, modulus) for b in residues_b]
            if certified(va, vb):
                return [CycloNum(a, b) for a, b in zip(va, vb)]
            if used >= min_primes:
                values = []
                for k in range(cn):
                    fa = rational_reconstruct(residues_a[k], modulus)
                    fb = rational_reconstruct(residues_b[k], modulus)
                    if fa is None or fb is None:
                        values = None
                        break
                    values.append(CycloNum(fa, fb))
                if values is not None:
                    ints, den = integer_pairs(values)
                    if certified([a for a, _ in ints], [b for _, b in ints], den):
                        return values
                min_primes = used + 2
        if degenerate is not None:
            raise degenerate
    raise DegenerateKernelError(
        f"modular kernel did not stabilize for z={zs_int}, t={t_int}"
    )


def psi_point(
    n: int,
    zs: Sequence,
    t=None,
    spin_certificate: bool = False,
) -> PointVector:
    """Exact groundstate values at a point, normalized on the nested pattern.

    z must be positive rationals (that keeps the normalizing component away
    from zero and the point off every recursion locus).  The solve is
    _kernel_modular at z and t scaled to integers by a common factor, which
    leaves the kernel of T - Lambda unchanged; the vector it returns has
    passed the exact residual check.  When t is omitted a retry schedule
    t = 1, 2, 3, ... skips the degenerate choices.  With
    spin_certificate=True the result is additionally certified against the
    spin-representation transfer matrix.
    """
    z = tuple(_frac(x) for x in zs)
    if len(z) != 2 * n:
        raise ValueError(f"expected {2 * n} parameters, got {len(z)}")
    if any(x <= 0 for x in z):
        raise ValueError("spectral parameters must be positive rationals")
    schedule = [_frac(t)] if t is not None else [Fraction(k) for k in range(1, 13)]
    pi0 = pattern_index(n)[fully_nested(n).pairing]
    base_val = base_component_value(n, z)
    last: Optional[Exception] = None
    for tt in schedule:
        scale = lcm(*(x.denominator for x in z), tt.denominator)
        try:
            values = _kernel_modular(n, [int(x * scale) for x in z],
                                     int(tt * scale), base_val, pi0)
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
        acc = MPoly.zero(2 * self.n)
        for c in self.components:
            acc = acc + c
        return acc

    def values_at(self, zs) -> list[CycloNum]:
        return [c.eval(list(zs)) for c in self.components]

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


def _psi_grid_values(n: int, point: tuple) -> list[CycloNum]:
    return list(psi_point(n, point + (Fraction(1),)).values)


def psi_symbolic(n: int, threads: Optional[int] = None) -> Groundstate:
    """Reconstruct all components of Psi_n as exact polynomials.

    Samples the groundstate on the tensor grid {1..n}^(2n-1) x {1} (the
    last variable is pinned by homogeneity), interpolates with per-variable
    degree bound n-1, and re-homogenizes to total degree n(n-1); see
    reconstruct_homogeneous, which also runs the grid on ``threads``
    workers.  The result is validated against the closed-form nested
    component and spot residuals, and memoized per n; default size cap is
    n <= 4, n = 5 is possible but long.
    """
    if n not in _SYMBOLIC_CACHE:
        comps = reconstruct_homogeneous(_psi_grid_values, n, threads)
        g = Groundstate(n, enumerate_patterns(n), tuple(comps))
        _validate_symbolic(g)
        _SYMBOLIC_CACHE[n] = g
    return _SYMBOLIC_CACHE[n]


def _validate_symbolic(g: Groundstate) -> None:
    n = g.n
    if g.component(fully_nested(n)) != base_component(n):
        raise HomogenizationMismatchError(
            "nested component does not match its closed form"
        )
    # spot residual at an off-grid point, exact
    zs = [Fraction(n + 2 + 3 * k, 2) for k in range(2 * n)]
    t = Fraction(3)
    vals = g.values_at(zs)
    lam = eigenvalue(t, zs)
    tm = transfer_link(t, zs, n)
    image = tm.apply(vals)
    if any(image[k] != lam * vals[k] for k in range(len(vals))):
        raise HomogenizationMismatchError("off-grid eigen residual is nonzero")


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------


def _lift_component(poly: MPoly, nbig: int, varmap: Sequence[int]) -> MPoly:
    terms = {}
    for e, c in poly.terms.items():
        ne = [0] * nbig
        for pos, k in enumerate(e):
            ne[varmap[pos]] = k
        terms[tuple(ne)] = c
    return MPoly(nbig, terms)


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
    total = MPoly.zero(m)
    for pat, comp in zip(gn.patterns, comps):
        spec = comp.specialize_ratio(J, I, QSQ)
        total = total + spec
        if pat.partner(i) == i + 1:
            small = gn1.component(arch_remove(i, pat))
            ok = spec == prefactor * _lift_component(small, m, varmap)
            report.add(ok, pattern=pat.to_chords_json(), kind="arch", **extra)
        else:
            report.add(not spec, pattern=pat.to_chords_json(), kind="vanish",
                       **extra)
    return total


def _exchange_apply(c_id: MPoly, c_e: MPoly, e, x: Sequence[MPoly]) -> list[MPoly]:
    """c_id x + c_e (e x), componentwise, for a 0/1 link-basis matrix e."""
    zero = MPoly.zero(c_id.nvars)
    return [
        c_id * x[k]
        + c_e * sum((x[kk] for kk, hit in enumerate(e.data[k]) if hit), zero)
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
        runs = sequence_decomposition(pat).runs
        for run in runs:
            for a_pos in range(len(run)):
                for b_pos in range(a_pos + 1, len(run)):
                    a, b = run[a_pos], run[b_pos]
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
            ok = True
            for kk, comp in enumerate(gn.components):
                want = ONE if kk == k else ZERO
                if comp.coeff_of(exps) != want:
                    ok = False
                    break
            report.add(ok, pattern=pat.to_chords_json(), exponents=exps)
    return report


def check_t_independence(n: int, zs, ts=(2, 5, 7)) -> CheckReport:
    """psi_point returns identical vectors for distinct admissible t."""
    report = CheckReport(f"t-independence(n={n})")
    vecs = [psi_point(n, zs, t=t) for t in ts]
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
    ok = total == prefactor * _lift_component(gn1.sum_components(), m, varmap)
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
        varmap = [k for k in range(m) if k not in (0, 1)]
        prefactor = _vanish_prefactor(m, 0, (0, 1))
        rhs = prefactor * _lift_component(
            gsmall.component(arch_remove(1, pat)), m, varmap
        )
        report.add(lhs == rhs, n=n)
    return report
