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
gives the quadrature cross-check implemented here.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import product
from math import ceil, floor, sqrt

from .lattice import (
    GramLattice,
    _covering_box_sq,
    closest_vector,
    closest_vectors_all,
    inner,
    norm_sq,
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
    u = closest_vector(lat, tuple(-c for c in nu))
    return Fraction(norm_sq(lat, u), 2) + inner(lat, u, nu)


def trop_theta_norm(lat: GramLattice, nu) -> Fraction:
    """Half the squared distance from nu to the lattice; periodic in nu."""
    nu = _check_point(lat, nu)
    dist_sq, _ = closest_vectors_all(lat, tuple(-c for c in nu))
    return Fraction(dist_sq, 2)


def _warn_if_not_two_torsion(kappa):
    if any((2 * c).denominator != 1 for c in kappa):
        warnings.warn(
            "shift vector is not 2-torsion on the torus; values are still "
            "well defined but do not correspond to a symmetric divisor",
            stacklevel=3,
        )


def trop_theta_shifted(lat: GramLattice, kappa, nu) -> Fraction:
    """Theta translated by kappa: value at nu + kappa."""
    kappa = _check_point(lat, kappa)
    nu = _check_point(lat, nu)
    _warn_if_not_two_torsion(kappa)
    return trop_theta(lat, tuple(a + b for a, b in zip(nu, kappa)))


def trop_theta_shifted0(lat: GramLattice, kappa, nu) -> Fraction:
    """Translated theta re-based to vanish at nu = 0."""
    kappa = _check_point(lat, kappa)
    nu = _check_point(lat, nu)
    _warn_if_not_two_torsion(kappa)
    shifted = trop_theta(lat, tuple(a + b for a, b in zip(nu, kappa)))
    return shifted - trop_theta(lat, kappa)


def trop_theta_norm_shifted0(lat: GramLattice, kappa, nu) -> Fraction:
    """Norm-modified translated theta re-based to vanish at nu = 0.

    Equals ntheta(nu + kappa) - ntheta(kappa); its minimum over the torus
    is -ntheta(kappa), attained at nu = -kappa mod the lattice.
    """
    kappa = _check_point(lat, kappa)
    nu = _check_point(lat, nu)
    _warn_if_not_two_torsion(kappa)
    shifted = trop_theta_norm(lat, tuple(a + b for a, b in zip(nu, kappa)))
    return shifted - trop_theta_norm(lat, kappa)


def functional_equation_residual(lat: GramLattice, nu, u) -> Fraction:
    """theta(nu) - theta(nu + u) - [u, nu] - [u, u]/2 for a lattice vector u.

    Identically zero (substitute w -> w - u in the defining minimum);
    exposed so the exact-zero property can be asserted on arbitrary
    rational inputs.
    """
    nu = _check_point(lat, nu)
    uu = tuple(Fraction(c) for c in u)
    if any(c.denominator != 1 for c in uu):
        raise ValueError(f"lattice vector {tuple(u)!r} has a non-integer entry")
    if len(uu) != lat.rank:
        raise ValueError("lattice vector length does not match rank")
    translated = trop_theta(lat, tuple(a + b for a, b in zip(nu, uu)))
    return (
        trop_theta(lat, nu)
        - translated
        - inner(lat, uu, nu)
        - Fraction(norm_sq(lat, uu), 2)
    )


def torus_reduce(lat: GramLattice, nu) -> tuple[Fraction, ...]:
    """Canonical torus representative in the half-open box [0, 1)^g."""
    nu = _check_point(lat, nu)
    return tuple(c - (c.numerator // c.denominator) for c in nu)


def moment_by_quadrature(lat: GramLattice, grid_n: int) -> float:
    """Midpoint-rule estimate of twice the mean of ntheta over the torus.

    Converges to the exact normalized second moment of the Voronoi cell
    as grid_n grows.  Evaluation is in float arithmetic for speed, but
    the minimization runs over a certified candidate box: the covering
    radius obeys rho^2 <= (g/4) trace(G), so the minimizing lattice
    vector for any point of the unit box has i-th coordinate within
    sqrt((G^-1)_ii * rho^2) of it.  Deterministic: fixed grid, fixed
    candidate order, left-to-right summation.
    """
    if grid_n < 2:
        raise QuadratureGridError("grid must be >= 2")
    g = lat.rank
    gram = [[float(x) for x in row] for row in lat.gram]
    radii = [sqrt(float(s)) + 1e-9 for s in _covering_box_sq(lat)]
    candidates = list(
        product(*(range(ceil(-r), floor(1 + r) + 1) for r in radii))
    )
    if grid_n**g * len(candidates) > QUADRATURE_BUDGET:
        raise QuadratureGridError(
            f"{grid_n}^{g} grid points x {len(candidates)} candidates exceed "
            f"the budget of {QUADRATURE_BUDGET} evaluations")
    total = 0.0
    inv_n = 1.0 / grid_n
    for cell in product(range(grid_n), repeat=g):
        x = [(c + 0.5) * inv_n for c in cell]
        best = None
        for u in candidates:
            d = [x[i] - u[i] for i in range(g)]
            val = 0.0
            for i in range(g):
                row = gram[i]
                di = d[i]
                for j in range(g):
                    val += di * row[j] * d[j]
            if best is None or val < best:
                best = val
        total += best
    return total / grid_n**g
