"""Tropical Riemann theta functions of a rational Gram lattice.

For a lattice with inner product [.,.] the tropical Riemann theta function
is the piecewise affine function

    theta(nu) = min over integer u of  [u, u]/2 + [u, nu] ,

its lattice-periodic norm modification is

    ntheta(nu) = theta(nu) + [nu, nu]/2 = (1/2) min over u of [nu+u, nu+u],

and for a shift vector kappa the translates are theta(nu + kappa) and
their values re-based to vanish at the origin.  On rational points all
values are exact rationals; the minimum is certified by the exact
closest-vector search.  Integrating 2 * ntheta over the unit coordinate
torus reproduces the normalized second moment of the Voronoi cell, which
gives the quadrature cross-check implemented here: the midpoint sum is
computed exactly in integers, one row sweep of integer lower envelopes,
and rounded to float once.  x -> -x maps the midpoint grid onto itself,
so the sweep covers the half of the rows with first coordinate at most
1/2 and counts each unpaired middle row once; the work budget still
counts every grid point.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import product
from math import isqrt, prod
from operator import mul

from . import _linalg
from .lattice import (
    GramLattice,
    _as_int,
    _covering_box_sq,
    _gram_image,
    closest_vector,
    closest_vectors_all,
    _check_point,
)

__all__ = [
    "trop_theta",
    "trop_theta_norm",
    "trop_theta_shifted",
    "trop_theta_shifted0",
    "trop_theta_norm_shifted0",
    "functional_equation_residual",
    "torus_reduce",
    "moment_by_quadrature",
    "QuadratureGridError",
]

# Most grid points x candidates one quadrature may test (A2, grid 200: 640 000).
QUADRATURE_BUDGET = 10**7


class QuadratureGridError(ValueError):
    """A grid below 2, or one that would exceed QUADRATURE_BUDGET."""


def trop_theta(lat: GramLattice, nu) -> Fraction:
    """min over lattice u of [u,u]/2 + [u,nu]; always <= 0 (u = 0 competes).

    The minimizer is the closest lattice vector to -nu: completing the
    square gives [u,u]/2 + [u,nu] = ([nu+u, nu+u] - [nu,nu]) / 2.
    """
    nu = _check_point(lat, nu)
    return _theta_term(lat, closest_vector(lat, tuple(-c for c in nu)), nu)


def _theta_term(lat: GramLattice, u, nu) -> Fraction:
    """[u,u]/2 + [u,nu] = (m u^T A u + 2 (Au) . s) / (2 den m), nu = s / m."""
    s, m = _linalg.integer_row(nu)
    au = _gram_image(lat, u)
    return Fraction(m * sum(map(mul, u, au)) + 2 * sum(map(mul, au, s)), 2 * lat._den * m)


def trop_theta_norm(lat: GramLattice, nu) -> Fraction:
    """Half the squared distance from nu to the lattice; periodic in nu."""
    nu = _check_point(lat, nu)
    dist_sq, _ = closest_vectors_all(lat, tuple(-c for c in nu))
    return Fraction(dist_sq, 2)


def _shift(lat: GramLattice, kappa, nu) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(kappa, nu + kappa) for the shifted thetas, after checking both points;
    warns, at the caller of the shifted theta, if kappa is not 2-torsion."""
    kappa = _check_point(lat, kappa)
    nu = _check_point(lat, nu)
    if any((2 * c).denominator != 1 for c in kappa):
        warnings.warn(
            "shift vector is not 2-torsion on the torus; values are still "
            "well defined but do not correspond to a symmetric divisor",
            stacklevel=3,
        )
    return kappa, tuple(a + b for a, b in zip(nu, kappa))


def trop_theta_shifted(lat: GramLattice, kappa, nu) -> Fraction:
    """Theta translated by kappa: value at nu + kappa."""
    return trop_theta(lat, _shift(lat, kappa, nu)[1])


def trop_theta_shifted0(lat: GramLattice, kappa, nu) -> Fraction:
    """Translated theta re-based to vanish at nu = 0."""
    kappa, shifted = _shift(lat, kappa, nu)
    return trop_theta(lat, shifted) - trop_theta(lat, kappa)


def trop_theta_norm_shifted0(lat: GramLattice, kappa, nu) -> Fraction:
    """Norm-modified translated theta re-based to vanish at nu = 0.

    Equals ntheta(nu + kappa) - ntheta(kappa); its minimum over the torus
    is -ntheta(kappa), attained at nu = -kappa mod the lattice.
    """
    kappa, shifted = _shift(lat, kappa, nu)
    return trop_theta_norm(lat, shifted) - trop_theta_norm(lat, kappa)


def functional_equation_residual(lat: GramLattice, nu, u) -> Fraction:
    """theta(nu) - theta(nu + u) - [u, nu] - [u, u]/2 for a lattice vector u.

    Identically zero (substitute w -> w - u in the defining minimum);
    exposed so the exact-zero property can be asserted on arbitrary
    rational inputs.
    """
    nu = _check_point(lat, nu)
    uu = _check_point(lat, u)
    if any(c.denominator != 1 for c in uu):
        raise ValueError(f"lattice vector {tuple(u)!r} has a non-integer entry")
    uu = tuple(c.numerator for c in uu)
    translated = trop_theta(lat, tuple(a + b for a, b in zip(nu, uu)))
    return trop_theta(lat, nu) - translated - _theta_term(lat, uu, nu)


def torus_reduce(lat: GramLattice, nu) -> tuple[Fraction, ...]:
    """Canonical torus representative in the half-open box [0, 1)^g."""
    nu = _check_point(lat, nu)
    return tuple(c - (c.numerator // c.denominator) for c in nu)


def moment_by_quadrature(lat: GramLattice, grid_n: int) -> float:
    """Midpoint-rule estimate of twice the mean of ntheta over the torus.

    Converges to the exact normalized second moment of the Voronoi cell
    as grid_n grows.  The midpoint sum is computed exactly and rounded to
    float once.  A midpoint is x = p / (2n) with p odd, and on the
    integer Gram A = den G

        den 4n^2 |x - u|^2 = p^T A p + (4n^2 u^T A u - 4n (Au) . p),

    so each row of the last coordinate sums its p^T A p terms in closed
    form plus the lower envelope of one integer line in p_last per
    candidate u.  The map x -> -x, p -> 2n - p, sends the grid onto itself
    and keeps min_u |x - u|^2, so only the rows with p_1 <= n are swept:
    those with p_1 < n count twice, the row p_1 = n (odd n only) once,
    and rank 1 has one row.  QUADRATURE_BUDGET still counts all n^g grid
    points.  The candidates fill a certified box: the
    covering radius obeys rho^2 <= (g/4) trace(G), so the minimizing
    lattice vector for any point of the unit box has i-th coordinate
    within sqrt((G^-1)_ii rho^2) of it.
    """
    n, g = _as_int(grid_n, "grid", QuadratureGridError), lat.rank
    if n < 2:
        raise QuadratureGridError("grid must be >= 2")
    radii = [isqrt(s.numerator // s.denominator) for s in _covering_box_sq(lat)]
    count = prod(2 * r + 2 for r in radii)
    if n**g * count > QUADRATURE_BUDGET:
        raise QuadratureGridError(
            f"{n}^{g} grid points x {count} candidates exceed "
            f"the budget of {QUADRATURE_BUDGET} evaluations")
    a = lat._int_gram
    last = g - 1
    # One line per candidate u: slope -4n (Au)_last in p_last, intercept
    # 4n^2 u^T A u less 4n (Au)_i p_i over the other coordinates.
    lines = []
    for u in product(*(range(-r, r + 2) for r in radii)):
        au = _gram_image(lat, u)
        lines.append((-4 * n * au[last], 4 * n * n * sum(map(mul, au, u)),
                      [4 * n * x for x in au[:last]]))
    lines.sort(key=lambda line: -line[0])  # slopes decreasing
    odd = range(1, 2 * n, 2)
    rows = product(range(1, n + 1, 2), *[odd] * (last - 1)) if last else [()]
    s2 = n * (4 * n * n - 1) // 3
    total = 0
    for prefix in rows:
        hull: list[tuple[int, int]] = []  # lower envelope, slopes decreasing
        for slope, const, coef in lines:
            c = const - sum(map(mul, coef, prefix))
            if hull and hull[-1][0] == slope:
                if hull[-1][1] <= c:
                    continue
                hull.pop()
            # drop the top line while the new one meets the line below it
            # no later than the top line does
            while len(hull) >= 2:
                (b1, c1), (b2, c2) = hull[-2], hull[-1]
                if (c - c1) * (b1 - b2) > (c2 - c1) * (b1 - slope):
                    break
                hull.pop()
            hull.append((slope, c))
        # the row's sum of p^T A p, p = (prefix, t): sum t = n^2, sum t^2 = s2
        aq = [sum(map(mul, row, prefix)) for row in a]
        row_total = n * sum(map(mul, aq, prefix)) + 2 * n * n * aq[last] + a[last][last] * s2
        j, top = 0, len(hull) - 1
        b, c = hull[0]
        for t in odd:
            while j < top and hull[j + 1][0] * t + hull[j + 1][1] <= b * t + c:
                j += 1
                b, c = hull[j]
            row_total += b * t + c
        total += row_total if not prefix or prefix[0] == n else 2 * row_total
    return float(Fraction(total, lat._den * 4 * n * n * n**g))
