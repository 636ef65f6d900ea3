"""Exact symmetric functions and the Bethe-ansatz functional equations.

Schur polynomials evaluate through Jacobi-Trudi, a determinant of complete
homogeneous sums that is exact over Q(w) whether or not values repeat; the
one evaluator serves straight shapes s_lam and skew shapes s_{lam/mu}.  They
also expand as s_lam = sum_alpha K_{lam, sort(alpha)} z^alpha with Kostka
numbers from the horizontal-strip branching rule (Macdonald, Symmetric
Functions and Hall Polynomials, I.5; Stanley, EC2, 7.10); the two routes
share no code.  The bialternant det(x_i^(lam_j + n - j)) / Vandermonde is
kept only in the tests, as the oracle for both.

The six-vertex partition function with domain wall boundaries at the cubic
root of unity is the Schur function of the staircase-doubled shape
Y_n = (n-1, n-1, n-2, n-2, ..., 1, 1); it obeys the recursion

    Z_n |_{z_{i+1} = q^2 z_i} = prod_{j != i, i+1} (q z_i - z_j) * Z_{n-1}

which, with symmetry and the degree bounds, pins it completely.

The companion objects live in one auxiliary variable t: the degree-3n
alternant F_n(t) whose roots are q z_i together with the Bethe roots, its
cube-root-of-unity identity F(t) + q^2 F(q t) + q F(q^2 t) = 0
(equivalently a_{3k+1} = 0), the Schur ratio
Q_n(t) = s_{Y_{n+1}}(w, t) / s_{Y~_n}(w) at w = q z, and the T-Q relation
with eigenvalue prod_i (q t - q^{-1} z_i).  The algebraic-Bethe-ansatz
vector over the roots of Q is built exactly, through the spin route's one
monodromy, in the splitting algebra of Q (aba_residual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cyclo import (
    CycloNum,
    ONE,
    Q,
    Q_INV,
    ZERO,
    _rational,
    accumulate,
    as_cyclo,
    from_pair,
    integer_pairs,
    pair_mul,
)
from .groundstate import psi_point
from .mpoly import MPoly
from .report import CheckReport
from .solver import ExactMatrix, det
from .tmatrix import eigenvalue, embed, monodromy_apply, transfer_apply_spin


class DegenerateDenominatorError(ValueError):
    """A Schur-function denominator vanished; resample the point."""


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        p = tuple(map(_rational, parts))
        if any(type(x) is not int for x in p):
            raise ValueError(f"{p} has a part that is not an integer")
        while p and p[-1] == 0:
            p = p[:-1]
        if any(a < b for a, b in zip(p, p[1:])):
            raise ValueError(f"{p} is not weakly decreasing")
        if any(x < 0 for x in p):
            raise ValueError("negative part")
        object.__setattr__(self, "parts", p)

    def size(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        return len(self.parts)


def y_partition(n: int) -> Partition:
    """Two rows each of length n-1, n-2, ..., 1."""
    parts = []
    for k in range(n - 1, 0, -1):
        parts += [k, k]
    return Partition(parts)


def y_tilde_partition(n: int) -> Partition:
    """y_partition(n) with one extra row of length n on top."""
    return Partition((n,) + y_partition(n).parts)


def _h_values(xs: list[tuple[int, int]], kmax: int) -> list[tuple[int, int]]:
    """Complete homogeneous sums h_0..h_kmax of xs, integer pairs in and
    out, by the one-variable extension recurrence."""
    h = [(1, 0)] + [(0, 0)] * kmax
    for x in xs:
        for k in range(1, kmax + 1):
            a, b = pair_mul(x, h[k - 1])
            h[k] = (h[k][0] + a, h[k][1] + b)
    return h


def schur_eval(shape: Partition, xs: Sequence, inner: Partition = Partition(())) -> CycloNum:
    """Exact value of the skew Schur polynomial s_{shape/inner}(xs), by
    Jacobi-Trudi: det h_{lam_i - mu_j - i + j} (Macdonald I.5.4).  The
    default empty inner shape gives the straight s_shape(xs).

    The sums h_k run in integer pairs: s_{shape/inner} is homogeneous of
    degree |shape| - |inner|, so scaling xs by their common denominator d
    scales it by d^(|shape| - |inner|)."""
    x, d = integer_pairs(xs)
    lam, r = shape.parts, shape.length()
    mu = inner.parts + (0,) * (r - inner.length())
    if len(mu) > r or any(m > l for l, m in zip(lam, mu)):
        return ZERO  # inner does not fit inside shape
    if not r:
        return ONE
    h = [from_pair(v) for v in _h_values(x, lam[0] + r)]

    def entry(i, j):
        k = lam[i] - mu[j] - i + j
        return h[k] if k >= 0 else ZERO

    value = det(ExactMatrix([[entry(i, j) for j in range(r)] for i in range(r)]))
    return value / d ** (shape.size() - inner.size())


def z_partition_function(n: int, zs: Sequence) -> CycloNum:
    """The domain-wall partition function s_{Y_n}(z_1..z_2n)."""
    if len(zs) != 2 * n:
        raise ValueError(f"expected {2 * n} arguments")
    return schur_eval(y_partition(n), zs)


_SCHUR_CACHE: dict[int, MPoly] = {}


def _kostka(shape: tuple, content: tuple, memo: dict) -> int:
    """The Kostka number K_{shape, content}, content weakly decreasing with
    no zeros.  The boxes of a tableau holding its largest entry form a
    horizontal strip of content[-1] boxes; removing it leaves an inner shape
    nu, shape[i+1] <= nu[i] <= shape[i], with the other parts as content."""
    from itertools import product

    if len(shape) > len(content):
        return 0  # a column would repeat an entry
    if not content:
        return 1
    key = (shape, content)
    if key not in memo:
        size = sum(shape) - content[-1]
        inner = product(*(range(b, a + 1) for a, b in zip(shape, shape[1:] + (0,))))
        memo[key] = sum(_kostka(tuple(x for x in nu if x), content[:-1], memo)
                        for nu in inner if sum(nu) == size)
    return memo[key]


def schur_symbolic(n: int, threads: int | None = None) -> MPoly:
    """s_{Y_n} as an exact polynomial in 2n variables, memoized per n: the
    sum of K_{Y_n, sort(alpha)} z^alpha over the exponent vectors alpha of
    degree n(n-1) with entries at most n-1, nonzero terms only.  Each alpha
    joins a low half lo in range(n)^n to a high half of degree n(n-1) -
    |lo|; a half's content code sum_v (2n+1)^half_v adds over the halves
    and names the content of alpha (no value occurs 2n+1 times), so there
    is one Kostka number per code; alpha's MPoly key is lo's key shifted
    past hi's n bytes.  Nothing is sampled; ``threads`` is ignored."""
    from itertools import product

    if n not in _SCHUR_CACHE:
        shape, degree, base = y_partition(n).parts, n * (n - 1), 2 * n + 1
        halves = [(h, int.from_bytes(bytes(h), "big"), sum(base**v for v in h), sum(h))
                  for h in product(range(n), repeat=n)]
        by_degree: list[list] = [[] for _ in range(degree + 1)]
        for h, key, code, d in halves:
            by_degree[d].append((h, key, code))
        memo: dict = {}
        coeffs: dict[int, tuple] = {}  # content code -> (K, 0), or () where K = 0
        terms = {}
        for lo, lo_key, lo_code, d in halves:
            for hi, hi_key, hi_code in by_degree[degree - d]:
                code = lo_code + hi_code
                c = coeffs.get(code)
                if c is None:
                    k = _kostka(shape, tuple(sorted(filter(None, lo + hi), reverse=True)), memo)
                    c = coeffs[code] = (k, 0) if k else ()
                if c:
                    terms[lo_key << 8 * n | hi_key] = c
        _SCHUR_CACHE[n] = MPoly._raw(2 * n, terms)
    return _SCHUR_CACHE[n]


def check_z_recursion(n: int, i: int, zs_rest: Sequence) -> CheckReport:
    """Z_n at z_{i+1} = q^2 z_i against prod_{j != i,i+1} (q z_i - z_j) Z_{n-1}.

    ``zs_rest`` supplies the 2n-1 free values (z_{i+1} is derived).
    """
    if not 1 <= i <= 2 * n - 1:
        raise ValueError("need 1 <= i <= 2n-1")
    rest = [as_cyclo(x) for x in zs_rest]
    if len(rest) != 2 * n - 1:
        raise ValueError(f"expected {2 * n - 1} free values")
    zi = rest[i - 1]
    zs = rest[: i] + [Q * Q * zi] + rest[i:]
    lhs = z_partition_function(n, zs)
    small = [zj for j, zj in enumerate(zs, start=1) if j not in (i, i + 1)]
    prefactor = math.prod((Q * zi - zj for zj in small), start=ONE)
    rhs = prefactor * z_partition_function(n - 1, small)
    report = CheckReport(f"z-recursion(n={n}, i={i})")
    report.add(lhs == rhs, point=[str(z) for z in zs])
    return report


# ---------------------------------------------------------------------------
# univariate helpers (coefficients ascending in t)
# ---------------------------------------------------------------------------


def poly_eval(coeffs: list[CycloNum], t: CycloNum) -> CycloNum:
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_mul(a: list[CycloNum], b: list[CycloNum]) -> list[CycloNum]:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def f_poly(n: int, zs: Sequence) -> list[CycloNum]:
    """The monic degree-3n polynomial in t with roots q z_i and the Bethe
    roots: the alternant det[w_i^e ; t^e] at w = q z over the powers e <= 3n
    not equal to 1 mod 3, divided by its own t^{3n} coefficient, the minor
    over the powers below 3n.  That minor is +-Vandermonde(w) s_{Y~_n}(w).

    Coefficients ascend; entry 3k+1 vanishes for k < n.
    """
    if len(zs) != 2 * n:
        raise ValueError(f"expected {2 * n} arguments")
    w = [Q * as_cyclo(z) for z in zs]
    coeffs = _alternant_in_t(w, [e for e in range(3 * n + 1) if e % 3 != 1])
    den = coeffs[-1]
    if not den:
        raise DegenerateDenominatorError("denominator determinant vanished")
    return [c / den for c in coeffs]


def q_poly(n: int, zs: Sequence) -> list[CycloNum]:
    """The monic Bethe-root polynomial as a ratio of Schur functions,
    Q(t) = s_{Y_{n+1}}(w, t) / s_{Y~_n}(w) at w = q z, with coefficient k
    the skew value s_{Y_{n+1}/(k)}(w) (Macdonald I.5.10).  For distinct z it
    is f_poly divided by prod_i (t - q z_i); it needs no distinct z."""
    if len(zs) != 2 * n:
        raise ValueError(f"expected {2 * n} arguments")
    w = [Q * as_cyclo(z) for z in zs]
    den = schur_eval(y_tilde_partition(n), w)
    if not den:
        raise DegenerateDenominatorError("s_{Y~_n}(q z) vanished")
    lam = y_partition(n + 1)
    return [schur_eval(lam, w, Partition([k])) / den for k in range(n + 1)]


def _scale_argument(coeffs: list[CycloNum], s: CycloNum) -> list[CycloNum]:
    """Coefficients of P(s * t)."""
    out = []
    power = ONE
    for c in coeffs:
        out.append(c * power)
        power = power * s
    return out


def check_f_identity(n: int, zs: Sequence) -> CheckReport:
    """F(t) + q^2 F(q t) + q F(q^2 t) = 0 and the equivalent coefficient
    statement a_{3k+1} = 0."""
    report = CheckReport(f"f-identity(n={n})")
    f = f_poly(n, zs)
    combo = [
        c0 + Q * Q * c1 + Q * c2
        for c0, c1, c2 in zip(f, _scale_argument(f, Q), _scale_argument(f, Q * Q))
    ]
    report.add(all(not c for c in combo), kind="functional-identity")
    report.add(
        all(not f[3 * k + 1] for k in range(n)), kind="coefficient-condition"
    )
    for z in zs:
        report.add(not poly_eval(f, Q * as_cyclo(z)), kind="root", z=str(z))
    return report


def check_tq(n: int, zs: Sequence) -> CheckReport:
    """The T-Q relation with eigenvalue prod_i (q t - q^{-1} z_i):

    T(t) Q(t) = -q prod_i (q^{-1} t - q z_i) q^{2n} Q(q^2 t)
                - q^{-1} prod_i (t - z_i) q^n Q(q t)

    where the two shifted products of Bethe-root factors have been
    rewritten through Q itself.  A second case checks the Schur ratio Q
    against the alternant: Q(t) prod_i (t - q z_i) = f_poly.  The two share
    no code; the alternant needs distinct z.
    """
    report = CheckReport(f"t-q(n={n})")
    qq = q_poly(n, zs)
    report.add(len(qq) - 1 == n, kind="degree", degree=len(qq) - 1)

    tpoly = [ONE]
    p1 = [ONE]
    p2 = [ONE]
    roots = [ONE]
    for z in zs:
        z = as_cyclo(z)
        tpoly = poly_mul(tpoly, [-(Q_INV * z), Q])
        p1 = poly_mul(p1, [-(Q * z), Q_INV])
        p2 = poly_mul(p2, [-z, ONE])
        roots = poly_mul(roots, [-(Q * z), ONE])
    lhs = poly_mul(tpoly, qq)
    q2n = Q ** (2 * n)
    qn = Q**n
    rhs_a = [(-Q) * q2n * c for c in poly_mul(p1, _scale_argument(qq, Q * Q))]
    rhs_b = [(-Q_INV) * qn * c for c in poly_mul(p2, _scale_argument(qq, Q))]
    ok = all(l == a + b for l, a, b in zip(lhs, rhs_a, rhs_b, strict=True))
    report.add(ok, kind="functional-equation")
    report.add(poly_mul(qq, roots) == f_poly(n, zs), kind="schur-ratio")
    return report


def _alternant_in_t(w: list[CycloNum], exps: list[int]) -> list[CycloNum]:
    """det[w_i^e ; t^e] (rows w_1..w_m, then the t row; one column per
    exponent in exps) as ascending coefficients in t, expanded along the t
    row."""
    last = len(exps) - 1
    coeffs = [ZERO] * (max(exps) + 1)
    for k, e in enumerate(exps):
        kept = exps[:k] + exps[k + 1 :]
        minor = det(ExactMatrix([[wi**ee for ee in kept] for wi in w]))
        coeffs[e] = minor if (last + k) % 2 == 0 else -minor
    return coeffs


# ---------------------------------------------------------------------------
# exact algebraic-Bethe-ansatz vector over the splitting algebra of Q(t)
# ---------------------------------------------------------------------------


def _reduce(p: MPoly, rests: list[MPoly]) -> MPoly:
    """p modulo the tower, top variable first: rests[k] = t_k^d - Q_k, d = n - k
    the degree of Q_k in t_k (k from 0), stands in for t_k^d until no exponent
    of t_k reaches d; it has no higher variable, so no step undoes another."""
    n = len(rests)
    for k in reversed(range(n)):
        d, field = (n - k) << 8 * (n - 1 - k), 127 << 8 * (n - 1 - k)  # t_k's byte of a key
        while high := {e: c for e, c in p.terms.items() if e & field >= d}:
            low = {e: c for e, c in p.terms.items() if e & field < d}
            shifted = {e - d: c for e, c in high.items()}
            p = MPoly._raw(n, low, p.den) + MPoly._raw(n, shifted, p.den) * rests[k]
    return p


def aba_residual(n: int, zs: Sequence) -> dict:
    """Build psi = B(t_1)...B(t_n)|up...up> over the Bethe roots t_k of
    Q(t) exactly, and count its failures, each 0 for a Bethe vector.

    No root is computed: t_k is the class of t_k in the universal
    splitting algebra of Q (Ekedahl & Laksov), the quotient of
    Q(w)[t_1..t_n] by the tower Q_1 = Q(t_1), Q_{k+1} = the divided
    difference of Q_k in t_k, t_{k+1}.  The B(t_k) commute, so every
    coordinate of psi is symmetric in the roots and reduces to a constant.
    The tower uses the monic integral D^n Q(s/D) and the parameters D z,
    D a common denominator, which scales psi, T and Lambda by powers of D.

    ``residual`` counts the coordinates with T(u) psi != Lambda(u) psi at
    u = -1; ``eigenvalue_error`` the coordinates outside Q(w), plus one if
    psi = 0; ``subspace_angle`` the coordinates where psi is not a nonzero
    multiple of the embedded psi_point vector.
    """
    if n > 3:
        raise ValueError("exact Bethe-vector check capped at n = 3")
    qq = q_poly(n, zs)
    pairs, d = integer_pairs([*qq[:-1], *zs])
    zd = [from_pair(p) for p in pairs[n:]]
    t = [MPoly.variable(n, k) for k in range(n)]
    qk = sum((from_pair(p) * d ** (n - 1 - j) * t[0] ** j for j, p in enumerate(pairs[:n])),
             t[0] ** n)
    rests = [t[0] ** n - qk]
    for k in range(1, n):
        qk = qk.divided_difference(k - 1, k)
        rests.append(t[k] ** (n - k) - qk)

    vec: dict = {0: ONE}
    for tk in t:
        image = monodromy_apply(zd, tk, vec, aux=1)
        vec = {bits: _reduce(c, rests) for (bits, a), c in image.items() if a == 0}
    outside = sum(1 for c in vec.values() if c.terms.keys() - {0})  # key 0: the constant
    psi = {bits: c.coeff_of((0,) * n) for bits, c in vec.items() if 0 in c.terms}

    u = -1
    diff = transfer_apply_spin(zd, u, psi)
    lam = eigenvalue(u, zd)
    for bits, c in psi.items():
        accumulate(diff, bits, -lam * c)

    ref = embed(n, psi_point(n, zs).values)
    b0 = min(ref)
    p0, r0 = psi.get(b0, ZERO), ref[b0]
    off = sum(1 for b in ref.keys() | psi.keys()
              if psi.get(b, ZERO) * r0 != ref.get(b, ZERO) * p0)
    return {
        "n": n,
        "residual": len(diff),
        "eigenvalue_error": outside + int(not psi),
        "subspace_angle": off + int(not p0),
    }
