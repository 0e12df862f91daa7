"""Archimedean elliptic invariants and the assembled height identities.

The discriminant modular form is evaluated through its q-product,

    log|delta(tau)| = log|q| + 24 * sum_{n>=1} log|1 - q^n|,
    q = exp(2 pi i tau),   Im tau > 0,

with a reported truncation bound.  The archimedean local invariant of an
elliptic curve with period tau is

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
import warnings
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
    "SeriesBudgetError",
    "SERIES_TERM_BUDGET",
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
# Most terms one q-series may sum: 10**6 Tate factor pairs take about 0.3 s.
SERIES_TERM_BUDGET = 10**6
# Factors multiplied before one log is taken.  Each factor 1 - w has
# |w| <= 2, so a block of 16 (or 16 pairs) stays below 3^32, and it stays
# far from underflow, as |1 - w| is small for at most a few w.
_BLOCK = 16


class NonPositiveImaginaryPartError(ValueError):
    pass


class NegativeOrderError(ValueError):
    pass


class FloatRangeError(ValueError):
    """An input whose binary64 evaluation would overflow or underflow."""


class SeriesBudgetError(ValueError):
    """A series that would sum more than SERIES_TERM_BUDGET terms.  The sums
    over the embeddings of :class:`EllipticPlaces` set ``index`` to the
    position of the period that raised it."""

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
    if tau.imag < 0.1:
        warnings.warn(
            "Im tau < 0.1: no modular reduction is applied; the series "
            "needs many terms and the input may be a mistake",
            stacklevel=3,
        )
    return tau


def log_abs_delta(tau: complex, n_terms: int = DEFAULT_TERMS) -> SeriesValue:
    """log|delta(tau)| by the truncated q-product.

    The term count is chosen first: the first n whose tail bound
    48 |q|^(n+1) / (1-|q|)^2 drops below 1e-15, or n_terms.  The factors
    are then multiplied in blocks of 16, with one log per block, and the
    bound at that n is returned alongside.  A count past
    SERIES_TERM_BUDGET raises SeriesBudgetError.
    """
    return _log_abs_delta(_check_tau(tau), n_terms)


def _term_count(n_terms: int, estimate: float, tail) -> tuple[int, float]:
    """``(n, tail(n))`` for the first n in 1..n_terms with
    ``tail(n) < 1e-15``, or for n_terms if there is none: the term at which
    the series stops, and its bound.  The search starts from ``estimate``,
    found from logs, and steps by one, so that the bound's own expression
    ``tail``, falling in n, decides.  A count past SERIES_TERM_BUDGET
    raises SeriesBudgetError."""
    cap = min(n_terms, SERIES_TERM_BUDGET + 1)
    n = min(max(math.ceil(estimate), 1), cap)
    bound = tail(n)
    if bound < _TAIL_TARGET:
        while n > 1:
            below = tail(n - 1)
            if not below < _TAIL_TARGET:
                break
            n, bound = n - 1, below
    else:
        while n < cap and not bound < _TAIL_TARGET:
            n += 1
            bound = tail(n)
    if n > SERIES_TERM_BUDGET:
        raise SeriesBudgetError(
            f"the q-series needs more than its budget of {SERIES_TERM_BUDGET} "
            "terms: |q| is too close to 1"
        )
    return n, bound


# Unchecked forms for periods already checked: one warning per input.
def _log_abs_delta(tau: complex, n_terms: int) -> SeriesValue:
    n_terms = _as_int(n_terms, "n_terms", ValueError)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    q = _q_in_range(tau)
    abs_q = abs(q)
    gap_sq = (1.0 - abs_q) ** 2

    def tail(n: int) -> float:
        return 48.0 * abs_q ** (n + 1) / gap_sq

    log_q = math.log(abs_q)  # = -2 pi Im tau
    estimate = math.log(_TAIL_TARGET / 48.0 * gap_sq) / log_q - 1.0
    stop, bound = _term_count(n_terms, estimate, tail)
    total = log_q
    q_pow = prod = complex(1.0)
    for n in range(1, stop + 1):
        q_pow *= q
        prod *= 1.0 - q_pow  # |1 - q^n| lies in [1 - |q|, 2]
        if not n % _BLOCK:  # one log per block
            total += 24.0 * math.log(abs(prod))
            prod = complex(1.0)
    total += 24.0 * math.log(abs(prod))
    return SeriesValue(total, bound)


def _q_in_range(tau: complex) -> complex:
    """q = exp(2 pi i tau), whose modulus must be a normal binary64 number
    below 1: past Im tau of about 112 it underflows (log|q| is then
    undefined or inexact), and below about 2e-17 it rounds to 1 (the tail
    bound divides by 1 - |q|)."""
    q = _cexp_2pii(tau)
    if not sys.float_info.min <= abs(q) < 1.0:
        raise FloatRangeError(
            f"Im tau = {tau.imag!r} gives |q| = exp(-2 pi Im tau) = {abs(q)!r}, "
            "outside the normal binary64 numbers below 1"
        )
    return q


def _cexp_2pii(tau: complex) -> complex:
    # exp(2 pi i tau); Re tau is reduced mod 1 first so that tau and
    # tau + 1 produce the same q bit for bit
    r = math.exp(-2.0 * math.pi * tau.imag)
    angle = 2.0 * math.pi * (tau.real - math.floor(tau.real))
    return complex(r * math.cos(angle), r * math.sin(angle))


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
        except SeriesBudgetError as exc:
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
    return (nonarch_sum - arch_sum) / (12.0 * places.degree)


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
