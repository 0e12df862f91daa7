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
(Silverman, GTM 151, ch. VI), so ``tate_local_height`` first reduces
tau = log q / (2 pi i) into the SL2(Z) fundamental domain and the point
u = log z / (2 pi i) into half a period parallelogram.  Then
|q| <= e^(-pi sqrt 3) and |q|^(1/2) <= |z| <= 1, and about 7 factor pairs
reach 1e-15 for any input.  ``tate_theta_log_abs`` sums the raw product.

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

from .heights import _BLOCK, _TAIL_TARGET, DEFAULT_TERMS, SeriesValue, _term_count
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
_TWO_PI = 2.0 * math.pi
# -log of the least normal binary64 number: past it q is not a normal number,
# and every factor of theta with n >= 1 differs from 1 by less than |q|^(1/2)
_LOG_FLOAT_MIN = -math.log(sys.float_info.min)


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


def _check_terms(n_terms) -> int:
    n_terms = _as_int(n_terms, "n_terms", ValueError)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    return n_terms


def tate_theta_log_abs(
    q: complex, z: complex, n_terms: int = DEFAULT_TERMS
) -> SeriesValue:
    """log|theta(z)| for theta(z) = (1-z) prod (1 - q^n z)(1 - q^n / z).

    The term count is chosen first: the first n whose tail bound falls
    below 1e-15, or n_terms, found from logs and settled with the bound's
    own expression, so the reported bound is that of the term-by-term sum.
    A count past SERIES_TERM_BUDGET raises SeriesBudgetError.  The leading
    factors with |q^n| max(|z|, 1/|z|) > 2 each take their own log; the
    rest are multiplied in blocks of 16 pairs, with one log per block.  A z
    so far from the unit circle that no factor up to n_terms gives a bound
    raises OutOfRangeError.  In log form the product satisfies
    log|theta(qz)| = log|theta(z)| - log|z|.
    """
    q = _check_modulus(q)
    z, log_q, _ = _check_off_divisor(q, z)
    return _theta_log_abs(q, z, log_q, _check_terms(n_terms))


def _theta_log_abs(q: complex, z: complex, log_q: float, n_terms: int) -> SeriesValue:
    """The series of ``tate_theta_log_abs`` for checked q, z and n_terms,
    with log_q = log|q|."""
    abs_q = abs(q)
    big = max(abs(z), 1.0 / abs(z))
    z_inv = 1.0 / z
    spread = abs(z) + abs(z_inv)
    gap = 1.0 - abs_q

    def tail(n: int) -> float:
        power = abs_q ** (n + 1)
        head = power * big
        return (power * spread) / (gap * (1.0 - head)) if head < 1.0 else math.inf

    estimate = (
        math.log(_TAIL_TARGET) + math.log(gap) - math.log(spread)
    ) / log_q - 1.0
    stop, bound = _term_count(n_terms, estimate, tail)
    far = min(stop, max(0, math.ceil(math.log(big / 2.0) / -log_q) - 1))
    total = math.log(abs(1.0 - z))
    q_pow = complex(1.0)
    for _ in range(far):  # |q^n z| or |q^n / z| past 2: one log per factor
        q_pow *= q
        total += math.log(abs(1.0 - q_pow * z))
        total += math.log(abs(1.0 - q_pow * z_inv))
    prod = complex(1.0)
    for n in range(far + 1, stop + 1):
        q_pow *= q
        prod *= (1.0 - q_pow * z) * (1.0 - q_pow * z_inv)
        if not n % _BLOCK:  # one log per block
            total += math.log(abs(prod))
            prod = complex(1.0)
    total += math.log(abs(prod))
    if bound == math.inf or not math.isfinite(total):
        raise OutOfRangeError(
            f"no tail bound within {n_terms} terms: |z| = {abs(z)!r} is too "
            f"far from the unit circle for |q| = {abs_q!r}"
        )
    return SeriesValue(total, bound)


def tate_local_height(q: complex, z: complex, n_terms: int = DEFAULT_TERMS) -> float:
    """Tate's absolute local height (l/2) B2(log|z|/log|q|) - log|theta(z)|.

    Invariant under z -> qz: the B2 step (l/2)(B2(t+1) - B2(t)) = -log|z|
    cancels the quasi-periodicity of theta exactly.  It is also invariant
    under a change of period basis, so q and z are first replaced by a
    pair with |q| <= e^(-pi sqrt 3) and |q|^(1/2) <= |z| <= 1 (T and S on
    tau, u -> u / (c tau + d), then z -> qz and z -> 1/z), whose product
    reaches 1e-15 within about 7 factor pairs; n_terms caps that count.
    Every q and z that the checks accept gives a finite value.
    """
    q = _check_modulus(q)
    z, log_abs_q, log_abs_z = _check_off_divisor(q, z)
    n_terms = _check_terms(n_terms)
    if q.imag < 0 or (q.imag == 0 and z.imag < 0):  # one of each conjugate pair
        q, z = q.conjugate(), z.conjugate()
    # tau = log q / (2 pi i), u = log z / (2 pi i); abs() reads Im q = -0.0 as 0
    tau = complex(math.atan2(abs(q.imag), q.real), -log_abs_q) / _TWO_PI
    u = complex(math.atan2(z.imag, z.real), -log_abs_z) / _TWO_PI
    # T and S until |Re tau| <= 1/2 and |tau|^2 >= 0.999 (so Im tau > 0.865);
    # S is (0 -1; 1 0), so it maps u to u / tau
    while True:
        tau -= round(tau.real)
        if tau.real * tau.real + tau.imag * tau.imag >= 0.999:
            break
        u /= tau
        tau = -1.0 / tau
    u -= math.floor(u.imag / tau.imag) * tau  # 0 <= Im u < Im tau
    if 2.0 * u.imag > tau.imag:
        u = tau - u
    ell = _TWO_PI * tau.imag
    z = cmath.exp(_TWO_PI * 1j * u)  # 0 once |z| underflows
    if ell > _LOG_FLOAT_MIN:  # theta(z) = 1 - z to within |q|^(1/2) < e^-354
        log_theta = math.log(abs(1.0 - z))
    else:
        log_theta = _theta_log_abs(cmath.exp(_TWO_PI * 1j * tau), z, -ell, n_terms).value
    return (ell / 2.0) * b2(u.imag / tau.imag) - log_theta


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
