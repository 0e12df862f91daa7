"""Archimedean elliptic invariants and the assembled height identities.

The discriminant modular form is evaluated through its q-product,

    log|delta(tau)| = log|q| + 24 * sum_{n>=1} log|1 - q^n|,
    q = exp(2 pi i tau),   Im tau > 0,

with a reported truncation bound, at the period reduced into the SL2(Z)
fundamental domain first: delta has weight 12, so log|delta(tau)| =
log|delta(tau')| - 12 log|c tau + d| for tau' = (a tau + b)/(c tau + d).
There Im tau' > 0.865, so |q| < 4.4e-3, and at most 6 terms reach
1e-15 for any period.  The reduction and the short product are shared
with Tate's theta in :mod:`tropmoment.neron`.  The archimedean local
invariant of an elliptic curve with period tau is

    -(1/24) * ( log|delta(tau)| + 6 log(2 Im tau) )

and is strictly positive on the upper half plane; the non-archimedean
local invariant at a place with minimal-discriminant valuation n is the
exact rational n/12.

Two closed forms of the stable height of a semistable elliptic curve are
assembled here: the classical per-place formula

    12 [k:Q] h = sum_v ord_v log Nv
                 - sum_sigma log( (2 pi)^12 |delta(tau_sigma)| (Im tau_sigma)^6 )

and the local-invariant form 2g*h' - kappa0*g + (sum I_v log Nv +
2 sum I_sigma)/[k:Q] with kappa0 = log(pi*sqrt(2)) and h' = 0 for
elliptic curves (the theta divisor is 2-torsion).  Their difference is an
algebraic identity per archimedean embedding; the report helper returns
both sides and the residual.

Convention: the archimedean places are the complex embeddings of the
field, each of the [k:Q] embeddings listed separately (so a conjugate
pair appears twice).  Some references index by places instead; inputs
here must follow the embedding convention, hence #arch == degree.

Archimedean quantities are binary64 floats; non-archimedean ones are
exact rationals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .lattice import _as_complex, _as_fraction, _as_int

__all__ = [
    "KAPPA0",
    "SeriesValue",
    "NonArchPlace",
    "EllipticPlaces",
    "HeightReport",
    "NonPositiveImaginaryPartError",
    "NegativeOrderError",
    "FloatRangeError",
    "log_abs_delta",
    "arch_local_invariant",
    "nonarch_local_invariant",
    "faltings_height_elliptic",
    "height_identity_rhs",
    "function_field_height",
    "height_identity_report",
]

KAPPA0 = math.log(math.pi * math.sqrt(2.0))

DEFAULT_TERMS = 64
_TAIL_TARGET = 1e-15
_TWO_PI = 2.0 * math.pi
# -log of the least normal binary64 number: past it q is not a normal number
_LOG_FLOAT_MIN = -math.log(sys.float_info.min)


class NonPositiveImaginaryPartError(ValueError):
    pass


class NegativeOrderError(ValueError):
    pass


class FloatRangeError(ValueError):
    """An input whose binary64 evaluation would overflow or underflow.  For
    one period of an :class:`EllipticPlaces`, ``index`` is its position;
    for a sum over the embeddings it stays None."""

    index: int | None = None


class SeriesValue(NamedTuple):
    """A truncated-series value together with its truncation tail bound."""

    value: float
    tail_bound: float


@dataclass(frozen=True)
class NonArchPlace:
    """Non-archimedean local data: discriminant valuation and log Nv."""

    ord_delta: int
    log_nv: float

    def __post_init__(self):
        if type(self.ord_delta) is not int:  # an int reads as itself
            object.__setattr__(
                self, "ord_delta", _as_int(self.ord_delta, "ord_delta", NegativeOrderError))
        if self.ord_delta < 0:
            raise NegativeOrderError("ord_delta must be >= 0")
        log_nv = self.log_nv
        # an int, a float or a Fraction is kept as a float, a float as itself
        if type(log_nv) is not float and isinstance(log_nv, (int, float, Fraction)):
            try:
                log_nv = float(log_nv)
            except OverflowError:  # an int or a Fraction past the float range
                log_nv = math.inf
            object.__setattr__(self, "log_nv", log_nv)
        if type(log_nv) is not float or not log_nv > 0:
            raise ValueError(f"log_nv must be a positive number, got {self.log_nv!r}")
        if log_nv == math.inf:
            raise FloatRangeError("log_nv exceeds the binary64 range")
        if _weight(self) == math.inf:
            raise FloatRangeError("ord_delta * log_nv exceeds the binary64 range")


def _weight(place: NonArchPlace) -> float:
    """ord_delta * log_nv, the place's term of the classical formula."""
    try:
        return place.ord_delta * place.log_nv
    except OverflowError:  # an ord_delta past the float range
        return math.inf


@dataclass(frozen=True)
class EllipticPlaces:
    """Per-place data of a semistable elliptic curve over a degree-d field.

    ``arch`` lists the period tau of every complex embedding, so it must
    have exactly ``degree`` entries; each is kept as the complex number
    that ``complex()`` reads from it.
    """

    degree: int
    nonarch: tuple[NonArchPlace, ...]
    arch: tuple[complex, ...]

    def __post_init__(self):
        if type(self.degree) is not int:
            object.__setattr__(self, "degree", _as_int(self.degree, "degree", ValueError))
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if len(self.arch) != self.degree:
            raise ValueError(
                f"{len(self.arch)} archimedean embeddings given, "
                f"degree is {self.degree}"
            )
        object.__setattr__(self, "arch", tuple(map(_check_tau, self.arch)))
        total = 0.0
        for i, place in enumerate(self.nonarch):
            total += _weight(place)
            if total == math.inf:
                raise FloatRangeError(
                    f"the sum of ord_delta * log_nv up to nonarch[{i}] "
                    "exceeds the binary64 range"
                )


@dataclass(frozen=True)
class HeightReport:
    lhs: float
    rhs: float
    residual: float
    terms: dict = field(compare=False)


def _check_tau(tau: complex) -> complex:
    tau = _as_complex(tau, "period", NonPositiveImaginaryPartError)
    if not tau.imag > 0:
        raise NonPositiveImaginaryPartError(
            f"period must lie in the upper half plane, got {tau!r}"
        )
    if math.isnan(tau.real):  # an infinite one overflows in _reduce_period
        raise FloatRangeError(f"period {tau!r} has a NaN real part")
    return tau


def _check_terms(n_terms) -> int:
    n_terms = _as_int(n_terms, "n_terms", ValueError)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    return n_terms


def log_abs_delta(tau: complex, n_terms: int = DEFAULT_TERMS) -> SeriesValue:
    """log|delta(tau)| = log|delta(tau')| - 12 sum_k log|tau_k| for the
    reduced period tau' of ``_reduce_period``, since delta has weight 12;
    log|delta(tau')| = log|q'| + 12 ``_q_product(tau', 1)``, with that
    product's tail bound, times 12, alongside.  A period whose value leaves
    binary64 raises FloatRangeError.
    """
    return _log_abs_delta(_check_tau(tau), n_terms)


def _reduce_period(tau: complex, u: complex = 0j) -> tuple[complex, complex, float]:
    """``(tau', u', log|c tau + d|)`` for tau' = (a tau + b) / (c tau + d) in
    the SL2(Z) fundamental domain and u' = u / (c tau + d): T and S until
    |Re tau'| <= 1/2 and |tau'|^2 >= 0.999, so that Im tau' > 0.865 (Cohen,
    GTM 138, Alg. 7.4.2).  S sends tau to -1/tau and u to u / tau, and
    log|c tau + d| is the sum of log|tau_k| over the tau_k before each S.
    An S-image past the float range raises OverflowError."""
    log_j = 0.0
    while True:
        tau -= round(tau.real)
        if tau.real * tau.real + tau.imag * tau.imag >= 0.999:
            return tau, u, log_j
        log_j += math.log(abs(tau))
        u /= tau
        tau = -1.0 / tau


def _q_product(tau: complex, z: complex, n_terms: int) -> SeriesValue:
    """sum_{n>=1} log|(1 - q^n z)(1 - q^n / z)| for q = exp(2 pi i tau), on a
    reduced pair: Im tau > 0.865 and |q|^(1/2) <= |z| <= 1.  It stops at the
    first n whose tail bound |q|^(n+1) (|z| + 1/|z|) / ((1 - |q|)(1 -
    |q|^(n+1) / |z|)) drops below 1e-15, at most 6 terms, or at n_terms, and
    returns that bound.  Once |q| is below the normal binary64 numbers
    every factor is 1 to within |q|^(1/2) < e^-354, and the sum is 0."""
    ell = _TWO_PI * tau.imag  # -log|q|
    if ell > _LOG_FLOAT_MIN:
        return SeriesValue(0.0, 2.0 * math.exp(-ell / 2.0))
    abs_q, abs_z = math.exp(-ell), abs(z)
    # Re tau mod 1 first, so that tau and tau + 1 give the same q bit for bit
    angle = _TWO_PI * (tau.real - math.floor(tau.real))
    q = complex(abs_q * math.cos(angle), abs_q * math.sin(angle))
    z_inv = 1.0 / z
    spread = (abs_z + 1.0 / abs_z) / (1.0 - abs_q)
    power = abs_q
    q_pow = prod = complex(1.0)
    for _ in range(n_terms):
        q_pow *= q
        prod *= (1.0 - q_pow * z) * (1.0 - q_pow * z_inv)
        power *= abs_q  # |q|^(n+1)
        bound = power * spread / (1.0 - power / abs_z)
        if bound < _TAIL_TARGET:
            break
    return SeriesValue(math.log(abs(prod)), bound)


# Unchecked form for periods already checked
def _log_abs_delta(tau: complex, n_terms: int) -> SeriesValue:
    n_terms = _check_terms(n_terms)
    try:
        reduced, _, log_j = _reduce_period(tau)
        ell = _TWO_PI * reduced.imag  # -log|q'|
        if ell == math.inf:
            raise OverflowError
    except OverflowError:  # tau' or log|q'| past the float range
        raise FloatRangeError(
            f"log|delta(tau)| at tau = {tau!r} exceeds the binary64 range"
        ) from None
    series = _q_product(reduced, 1.0, n_terms)
    return SeriesValue(12.0 * (series.value - log_j) - ell, 12.0 * series.tail_bound)


def arch_local_invariant(tau: complex, n_terms: int = DEFAULT_TERMS) -> float:
    """-(1/24) ( log|delta(tau)| + 6 log(2 Im tau) ); strictly positive."""
    tau = _check_tau(tau)
    return _arch_local_invariant(tau, _log_abs_delta(tau, n_terms).value)


def _arch_local_invariant(tau: complex, log_delta: float) -> float:
    """The invariant of a checked period from log|delta(tau)|."""
    return -(log_delta + 6.0 * math.log(2.0 * tau.imag)) / 24.0


def nonarch_local_invariant(ord_delta: int) -> Fraction:
    """ord_delta / 12, exactly; zero iff good reduction."""
    ord_delta = _as_int(ord_delta, "ord_delta", NegativeOrderError)
    if ord_delta < 0:
        raise NegativeOrderError("ord_delta must be >= 0")
    return Fraction(ord_delta, 12)


def faltings_height_elliptic(
    places: EllipticPlaces, n_terms: int = DEFAULT_TERMS
) -> float:
    """Stable height from the classical per-place closed form.

    Sums are accumulated left to right in input order for reproducibility.
    """
    return _faltings_height(places, _log_deltas(places, n_terms))


def _log_deltas(places: EllipticPlaces, n_terms: int) -> list[float]:
    """log|delta(tau)| of each archimedean embedding, in input order."""
    log_deltas = []
    for i, tau in enumerate(places.arch):
        try:
            log_deltas.append(_log_abs_delta(tau, n_terms).value)
        except FloatRangeError as exc:
            exc.index = i
            raise
    return log_deltas


def _faltings_height(places: EllipticPlaces, log_deltas: list[float]) -> float:
    nonarch_sum = 0.0
    for place in places.nonarch:
        nonarch_sum += place.ord_delta * place.log_nv
    arch_sum = 0.0
    for tau, log_delta in zip(places.arch, log_deltas):
        arch_sum += (
            12.0 * math.log(2.0 * math.pi)
            + log_delta
            + 6.0 * math.log(tau.imag)
        )
    height = (nonarch_sum - arch_sum) / (12.0 * places.degree)
    if not math.isfinite(height):
        raise FloatRangeError(
            "the sum over the archimedean embeddings exceeds the binary64 range")
    return height


def height_identity_rhs(
    g: int,
    h_nt_theta: float,
    nonarch,
    arch,
    degree: int,
) -> float:
    """Right-hand side of the height identity.

    ``nonarch`` holds (moment, log_nv) pairs with exact rational moments;
    ``arch`` holds the archimedean invariants.  Assembles

        2 g h' - kappa0 g + ( sum moment * log Nv + 2 sum I ) / degree.
    """
    degree = _as_int(degree, "degree", ValueError)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    g = _as_int(g, "g", ValueError)
    if g < 1:
        raise ValueError("g must be >= 1")
    local = 0.0
    for moment, log_nv in nonarch:
        local += float(moment) * log_nv
    for inv in arch:
        local += 2.0 * inv
    return 2.0 * g * h_nt_theta - KAPPA0 * g + local / degree


def function_field_height(g: int, h_nt_theta, moments) -> Fraction:
    """Function-field height: 2 g h' + sum of the local moments, exact."""
    g = _as_int(g, "g", ValueError)
    if g < 1:
        raise ValueError("g must be >= 1")
    total = 2 * g * _as_fraction(h_nt_theta)
    for m in moments:
        total += _as_fraction(m)
    return total


def height_identity_report(
    places: EllipticPlaces, n_terms: int = DEFAULT_TERMS
) -> HeightReport:
    """Both sides of the g = 1 height identity and their residual.

    LHS is the classical per-place formula; RHS is the local-invariant
    assembly with h' = 0 and non-archimedean moments ord/12.  The residual
    vanishes up to series truncation and float rounding.
    """
    log_deltas = _log_deltas(places, n_terms)
    lhs = _faltings_height(places, log_deltas)
    nonarch_terms = []
    for place in places.nonarch:
        moment = nonarch_local_invariant(place.ord_delta)
        nonarch_terms.append(
            {"ord_delta": place.ord_delta, "log_nv": place.log_nv, "moment": moment})
    arch_terms = []
    for tau, log_delta in zip(places.arch, log_deltas):
        arch_terms.append({"tau": tau, "invariant": _arch_local_invariant(tau, log_delta)})
    rhs = height_identity_rhs(
        g=1,
        h_nt_theta=0.0,
        nonarch=[(t["moment"], t["log_nv"]) for t in nonarch_terms],
        arch=[t["invariant"] for t in arch_terms],
        degree=places.degree,
    )
    terms = {"degree": places.degree, "nonarch": nonarch_terms, "arch": arch_terms}
    return HeightReport(lhs=lhs, rhs=rhs, residual=lhs - rhs, terms=terms)
