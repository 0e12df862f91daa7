"""Local height machinery of a multiplicative-reduction (Tate) elliptic
curve, in both evaluation models.

Archimedean model: the curve is C*/q^Z with modulus 0 < |q| < 1, and the
canonical local height of a point with lift z is

    lambda(z) = (l/2) B2( log|z| / log|q| ) - log|theta(z)|,
    theta(z)  = (1 - z) prod_{n>=1} (1 - q^n z)(1 - q^n / z),
    B2(t)     = t^2 - t + 1/6   (second Bernoulli polynomial),

with l = -log|q|.  The quasi-periodicity theta(qz) = -theta(z)/z makes
lambda invariant under z -> qz.  The normalization matches Tate's
classical tables (the constant shift l/12 is built into B2's constant
term).

lambda depends only on the curve and the point, not on the period basis
(Silverman, GTM 151, ch. VI), so both public functions first reduce
tau = log q / (2 pi i) into the SL2(Z) fundamental domain and the point
u = log z / (2 pi i) into half a period parallelogram.  Then
|q| < 4.4e-3 and |q|^(1/2) <= |z| <= 1, and at most 6 factor pairs
reach 1e-15 for any input.  ``tate_theta_log_abs`` is
(l/2) B2(t) - lambda at the given q and z, with lambda from the reduced
pair; the raw product is never summed.

Valuation model: only the tropicalization nu = -log|z| matters, and the
height of the canonical-metric section restricted to the skeleton circle
of circumference sqrt(l) is the exact rational

    nu (nu - l) / (2 l),   0 <= nu <= l.

This equals the origin-based norm-modified tropical theta of the rank-1
lattice [[l]] shifted by half a period, an identity asserted against
:mod:`tropmoment.troptheta` in the tests.  At integer nu = i it gives the
multiplicity i (i - l) / (2 l) of a theta section along component i of
the special fiber.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

from .heights import (
    _TWO_PI,
    DEFAULT_TERMS,
    SeriesValue,
    _check_terms,
    _q_product,
    _reduce_period,
)
from .lattice import _as_complex, _as_fraction, _as_int

__all__ = [
    "AtDivisorError",
    "BadModulusError",
    "OutOfRangeError",
    "b2",
    "tate_theta_log_abs",
    "tate_local_height",
    "tate_local_height_tropical",
    "component_multiplicity",
]

_DIVISOR_TOL = 1e-9


class AtDivisorError(ValueError):
    """z is (numerically) on the divisor q^Z where theta vanishes."""


class BadModulusError(ValueError):
    pass


class OutOfRangeError(ValueError):
    pass


def b2(t):
    """Second Bernoulli polynomial t^2 - t + 1/6.

    Exact on Fraction input, float on float input.
    """
    return t * t - t + (1.0 / 6.0 if isinstance(t, float) else Fraction(1, 6))


def _check_modulus(q: complex) -> complex:
    q = _as_complex(q, "q", BadModulusError)
    abs_q = math.hypot(q.real, q.imag)
    if not sys.float_info.min <= abs_q < 1.0:
        raise BadModulusError(
            f"|q| must be a normal binary64 number in (0, 1), got |q| = {abs_q!r}"
        )
    return q


def _check_off_divisor(q: complex, z) -> tuple[complex, float, float]:
    """``(z, log|q|, log|z|)`` with z as a complex number.  Reject a z that
    ``complex()`` refuses, z within relative distance 1e-9 of some q^n, and
    a |z| whose reciprocal or modulus leaves the binary64 range."""
    z = _as_complex(z, "z", OutOfRangeError)
    if z == 0:
        raise AtDivisorError("z must be nonzero")
    abs_z = math.hypot(z.real, z.imag)
    if not sys.float_info.min <= abs_z <= sys.float_info.max:
        raise OutOfRangeError(
            f"|z| = {abs_z!r} is outside the normal binary64 range"
        )
    abs_q = abs(q)
    log_abs_z, log_abs_q = math.log(abs_z), math.log(abs_q)
    n0 = round(log_abs_z / log_abs_q)
    for n in (n0 - 1, n0, n0 + 1):
        log_ratio = log_abs_z - n * log_abs_q  # log |z / q^n|
        if abs(log_ratio) >= 1.0:  # far from the divisor
            continue
        # z / q^n from its modulus and unit-modulus factors: no power of q
        # is formed, so none overflows or underflows
        ratio = math.exp(log_ratio) * (z / abs_z) / (q / abs_q) ** n
        if abs(ratio - 1.0) < _DIVISOR_TOL:
            raise AtDivisorError(
                f"z is within relative tolerance {_DIVISOR_TOL} of q^{n}"
            )
    return z, log_abs_q, log_abs_z


def tate_theta_log_abs(
    q: complex, z: complex, n_terms: int = DEFAULT_TERMS
) -> SeriesValue:
    """log|theta(z)| for theta(z) = (1-z) prod (1 - q^n z)(1 - q^n / z), as
    (l/2) B2(log|z|/log|q|) - lambda(z) with lambda from the reduced pair
    of ``tate_local_height``, alongside the tail bound of that pair's
    product.  In log form it satisfies log|theta(qz)| = log|theta(z)| -
    log|z|.
    """
    lam, b2_term = _evaluate(q, z, n_terms)
    return SeriesValue(b2_term - lam.value, lam.tail_bound)


def tate_local_height(q: complex, z: complex, n_terms: int = DEFAULT_TERMS) -> float:
    """Tate's absolute local height (l/2) B2(log|z|/log|q|) - log|theta(z)|.

    Invariant under z -> qz: the B2 step (l/2)(B2(t+1) - B2(t)) = -log|z|
    cancels the quasi-periodicity of theta exactly.  It is also invariant
    under a change of period basis, so q and z are first replaced by a
    pair with |q| < 4.4e-3 and |q|^(1/2) <= |z| <= 1 (T and S on tau,
    u -> u / (c tau + d), then z -> qz and z -> 1/z), whose product
    reaches 1e-15 within 6 factor pairs; n_terms caps that count.  Every
    q and z that the checks accept gives a finite value.
    """
    return _evaluate(q, z, n_terms)[0].value


def _evaluate(q: complex, z: complex, n_terms: int = DEFAULT_TERMS) -> tuple[SeriesValue, float]:
    """``(lambda(z), (l/2) B2(log|z|/log|q|))`` after the input checks:
    lambda from the reduced pair, with the tail bound of that pair's
    product, and the B2 term at the given q and z."""
    q = _check_modulus(q)
    z, log_abs_q, log_abs_z = _check_off_divisor(q, z)
    n_terms = _check_terms(n_terms)
    b2_term = (-log_abs_q / 2.0) * b2(log_abs_z / log_abs_q)
    if q.imag < 0 or (q.imag == 0 and z.imag < 0):  # one of each conjugate pair
        q, z = q.conjugate(), z.conjugate()
    # tau = log q / (2 pi i), u = log z / (2 pi i); abs() reads Im q = -0.0 as 0
    tau = complex(math.atan2(abs(q.imag), q.real), -log_abs_q) / _TWO_PI
    u = complex(math.atan2(z.imag, z.real), -log_abs_z) / _TWO_PI
    tau, u, _ = _reduce_period(tau, u)
    u -= math.floor(u.imag / tau.imag) * tau  # 0 <= Im u < Im tau
    if 2.0 * u.imag > tau.imag:
        u = tau - u
    z = cmath.exp(_TWO_PI * 1j * u)  # 0 once |z| underflows
    series = _q_product(tau, z, n_terms)
    log_theta = math.log(abs(1.0 - z)) + series.value
    lam = (_TWO_PI * tau.imag / 2.0) * b2(u.imag / tau.imag) - log_theta
    return SeriesValue(lam, series.tail_bound), b2_term


def tate_local_height_tropical(ell, nu) -> Fraction:
    """Skeleton value nu (nu - l) / (2 l) for 0 <= nu <= l, exact."""
    ell, nu = _as_fraction(ell), _as_fraction(nu)
    if ell <= 0:
        raise BadModulusError("l must be positive")
    if not 0 <= nu <= ell:
        raise OutOfRangeError(f"nu must lie in [0, {ell}], got {nu}")
    return nu * (nu - ell) / (2 * ell)


def component_multiplicity(i: int, ell: int) -> Fraction:
    """Multiplicity i (i - l) / (2 l) of the theta section along special
    fiber component i; zero at i = 0, symmetric under i -> l - i."""
    ell = _as_int(ell, "l", BadModulusError)
    if ell < 1:
        raise BadModulusError("l must be a positive integer")
    i = _as_int(i, "component index", OutOfRangeError)
    if not 0 <= i < ell:
        raise OutOfRangeError(f"component index must lie in [0, {ell}), got {i}")
    return Fraction(i * (i - ell), 2 * ell)
