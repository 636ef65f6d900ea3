"""The grid route to polynomial components, kept as a test oracle.

A polynomial in 2n variables, homogeneous of total degree n(n-1) with
degree at most n-1 in each variable, is fixed by its values on the grid
{1..n}^(2n-1) x {1}: homogeneity pins the last variable, and the degree
bound makes tensor-grid interpolation exact.  Production builds Psi_n by
the exchange relation and the Schur polynomial by Kostka numbers; this
rebuilds either from point values alone.
"""

import itertools
from fractions import Fraction

from loopsum.groundstate import psi_point
from loopsum.mpoly import HomogenizationMismatchError, MPoly, interpolate_grid
from mpoly_oracle import unpacked


def psi_grid_values(n: int, point: tuple) -> list:
    return list(psi_point(n, point + (Fraction(1),)).values)


def homogenize(poly: MPoly, total_degree: int) -> MPoly:
    """poly with a new last variable that raises every term to total_degree."""
    if any(sum(e) > total_degree for e in unpacked(poly)):
        raise HomogenizationMismatchError(f"a term exceeds total degree {total_degree}")
    return MPoly(poly.nvars + 1,
                 {e + (total_degree - sum(e),): c for e, c in poly.items()})


def reconstruct_homogeneous(evaluate, n: int) -> list:
    """The polynomials whose values at (point..., 1) are evaluate(n, point)
    on the grid, interpolated and re-homogenized, serially."""
    m = 2 * n
    nodes = [[Fraction(k) for k in range(1, n + 1)] for _ in range(m - 1)]
    samples = [evaluate(n, point) for point in itertools.product(*nodes)]
    out = []
    for k, values in enumerate(zip(*samples)):
        poly = homogenize(interpolate_grid(values, nodes), n * (n - 1))
        if poly.degree_in(m - 1) > n - 1:
            raise HomogenizationMismatchError(
                f"component {k}: re-homogenized degree exceeds bound {n - 1}"
            )
        out.append(poly)
    return out
