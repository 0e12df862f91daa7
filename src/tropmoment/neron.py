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

import math
import sys
from fractions import Fraction

from .heights import _BLOCK, _TAIL_TARGET, DEFAULT_TERMS, SeriesValue, _term_count

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
    q = complex(q)
    abs_q = math.hypot(q.real, q.imag)
    if not sys.float_info.min <= abs_q < 1.0:
        raise BadModulusError(
            f"|q| must be a normal binary64 number in (0, 1), got |q| = {abs_q!r}"
        )
    return q


def _check_off_divisor(q: complex, z: complex):
    """Reject z within relative distance 1e-9 of some q^n, and a |z| whose
    reciprocal or modulus leaves the binary64 range."""
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
    z = complex(z)
    _check_off_divisor(q, z)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    abs_q = abs(q)
    big = max(abs(z), 1.0 / abs(z))
    z_inv = 1.0 / z
    spread = abs(z) + abs(z_inv)
    gap = 1.0 - abs_q

    def tail(n: int) -> float:
        power = abs_q ** (n + 1)
        head = power * big
        return (power * spread) / (gap * (1.0 - head)) if head < 1.0 else math.inf

    log_q = math.log(abs_q)
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
    cancels the quasi-periodicity of theta exactly.
    """
    theta = tate_theta_log_abs(q, z, n_terms)  # validates q and z
    return _local_height(q, z, theta)


def _local_height(q: complex, z: complex, theta: SeriesValue) -> float:
    """The local height from ``theta = tate_theta_log_abs(q, z, ...)``,
    whose call has already validated q and z."""
    log_q = math.log(abs(q))
    ell = -log_q
    t = math.log(abs(z)) / log_q
    return (ell / 2.0) * b2(t) - theta.value


def tate_local_height_tropical(ell, nu) -> Fraction:
    """Skeleton value nu (nu - l) / (2 l) for 0 <= nu <= l, exact."""
    ell = Fraction(ell)
    nu = Fraction(nu)
    if ell <= 0:
        raise BadModulusError("l must be positive")
    if not 0 <= nu <= ell:
        raise OutOfRangeError(f"nu must lie in [0, {ell}], got {nu}")
    return nu * (nu - ell) / (2 * ell)


def component_multiplicity(i: int, ell: int) -> Fraction:
    """Multiplicity i (i - l) / (2 l) of the theta section along special
    fiber component i; zero at i = 0, symmetric under i -> l - i."""
    if ell < 1:
        raise BadModulusError("l must be a positive integer")
    if not 0 <= i < ell:
        raise OutOfRangeError(f"component index must lie in [0, {ell}), got {i}")
    return Fraction(i * (i - ell), 2 * ell)
