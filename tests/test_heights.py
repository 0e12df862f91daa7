import cmath
import math
import random
import warnings
from fractions import Fraction

import pytest

from conftest import count_calls
from tropmoment import heights
from tropmoment.heights import (
    KAPPA0,
    EllipticPlaces,
    SERIES_TERM_BUDGET,
    FloatRangeError,
    NegativeOrderError,
    NonArchPlace,
    NonPositiveImaginaryPartError,
    SeriesBudgetError,
    arch_local_invariant,
    faltings_height_elliptic,
    function_field_height,
    height_identity_report,
    height_identity_rhs,
    log_abs_delta,
    nonarch_local_invariant,
)

F = Fraction


def _oracle_log_abs_delta(tau: complex, n_terms: int) -> float:
    """Independent evaluation: cmath powers, reversed summation order."""
    q = cmath.exp(2j * math.pi * tau)
    terms = [24.0 * math.log(abs(1.0 - q**n)) for n in range(1, n_terms + 1)]
    return math.fsum(reversed(terms)) + math.log(abs(q))


def _oracle_delta_tail(tau: complex, n_terms: int) -> float:
    """The bound 48 |q|^(n+1) / (1-|q|)^2 at which the term-by-term loop
    stops: at the first n where it drops below 1e-15, or at n_terms.  |q|
    is the package's, so that the bound compares bit for bit."""
    abs_q = abs(heights._q_in_range(complex(tau)))
    for n in range(1, n_terms + 1):
        tail = 48.0 * abs_q ** (n + 1) / (1.0 - abs_q) ** 2
        if tail < 1e-15:
            break
    return tail


@pytest.mark.filterwarnings("ignore:Im tau < 0.1")
def test_log_abs_delta_matches_term_by_term_oracle_seeded():
    # the oracle forms q from tau as given, the package after reducing
    # Re tau mod 1; a reduced tau keeps their q within an ulp or two
    rng = random.Random(19)
    for _ in range(600):
        # |q| in [0.03, 0.9], or Im tau up to 10
        if rng.random() < 0.7:
            im = -math.log(rng.uniform(0.03, 0.9)) / (2 * math.pi)
        else:
            im = rng.uniform(0.56, 10)
        tau = complex(rng.uniform(-0.5, 0.5), im)
        n_terms = rng.choice([1, 2, 16, 64, 256, 2000])
        got = log_abs_delta(tau, n_terms)
        assert got.tail_bound == _oracle_delta_tail(tau, n_terms)
        expected = _oracle_log_abs_delta(tau, n_terms)
        assert abs(got.value - expected) <= 1e-13 * max(1.0, abs(expected))


@pytest.mark.filterwarnings("ignore:Im tau < 0.1")
def test_log_abs_delta_series_budget():
    # Im tau = 1e-9 needs about 1e10 terms: refused before any factor
    with pytest.raises(SeriesBudgetError):
        log_abs_delta(1e-9j, 10**9)
    places = EllipticPlaces(degree=2, nonarch=(), arch=(1j, 1e-9j))
    with pytest.raises(SeriesBudgetError) as caught:
        height_identity_report(places, 10**9)
    assert caught.value.index == 1
    # within the budget the same period still evaluates
    assert log_abs_delta(1e-9j, SERIES_TERM_BUDGET).tail_bound > 1.0


def test_log_abs_delta_self_convergence_at_i():
    v50 = log_abs_delta(1j, 50).value
    oracle = _oracle_log_abs_delta(1j, 200)
    assert abs(v50 - oracle) < 1e-12


def test_log_abs_delta_period_one_exact():
    for tau in (1j, 0.3 + 0.7j, -2.25 + 1.5j):
        assert log_abs_delta(tau, 80).value == log_abs_delta(tau + 1, 80).value


def test_log_abs_delta_leading_term_at_high_imaginary_part():
    tau = 10j
    got = log_abs_delta(tau, 50).value
    oracle = -20.0 * math.pi + (_oracle_log_abs_delta(tau, 50) + 20.0 * math.pi)
    assert abs(got - oracle) < 1e-8
    # the q-series corrections at Im tau = 10 are astronomically small
    assert abs(got - (-20.0 * math.pi)) < 1e-26


def test_log_abs_delta_tail_bound_is_honest():
    for tau in (0.2 + 0.3j, 0.9j, -0.4 + 0.5j):
        for n in (8, 16, 32):
            series = log_abs_delta(tau, n)
            refined = log_abs_delta(tau, 8 * n)
            assert abs(series.value - refined.value) <= series.tail_bound + 1e-15


def test_log_abs_delta_rejects_lower_half_plane():
    with pytest.raises(NonPositiveImaginaryPartError):
        log_abs_delta(1 - 1j)


def test_log_abs_delta_warns_for_tiny_imaginary_part():
    with pytest.warns(UserWarning):
        log_abs_delta(0.05j, 400)


def test_small_imaginary_part_warns_once_per_input():
    def count_warnings(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        return sum("Im tau < 0.1" in str(w.message) for w in caught)

    assert count_warnings(lambda: height_identity_report(
        EllipticPlaces(degree=1, nonarch=(), arch=(0.05j,)))) == 1
    assert count_warnings(lambda: log_abs_delta(0.05j)) == 1
    assert count_warnings(lambda: arch_local_invariant(0.05j)) == 1


def test_arch_invariant_positive_at_standard_points():
    assert arch_local_invariant(1j) > 0
    cm = complex(0.5, math.sqrt(3) / 2)
    assert arch_local_invariant(cm) > 0
    assert arch_local_invariant(cm) == arch_local_invariant(cm + 1)


def test_arch_invariant_positive_seeded():
    rng = random.Random(2024)
    for _ in range(100):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.3, 10))
        inv = arch_local_invariant(tau)
        assert inv > 0
        assert abs(inv - arch_local_invariant(tau, 128)) < 1e-12


def test_arch_invariant_modular_slash_invariance():
    # |delta| (Im tau)^6 is invariant under tau -> -1/tau
    def slash(tau):
        return log_abs_delta(tau, 200).value + 6.0 * math.log(tau.imag)

    assert abs(slash(2j) - slash(0.5j)) < 1e-9
    assert abs(slash(1j) - slash(-1 / 1j)) < 1e-12


def test_nonarch_invariant_values():
    assert nonarch_local_invariant(0) == 0
    assert nonarch_local_invariant(5) == F(5, 12)
    assert nonarch_local_invariant(12) == 1
    with pytest.raises(NegativeOrderError):
        nonarch_local_invariant(-1)


def test_faltings_height_good_reduction_closed_form():
    places = EllipticPlaces(degree=1, nonarch=(), arch=(1j,))
    got = faltings_height_elliptic(places)
    expected = -(12 * math.log(2 * math.pi) + log_abs_delta(1j).value) / 12.0
    assert got == expected


def test_faltings_height_bad_place_linearity():
    base = EllipticPlaces(degree=1, nonarch=(), arch=(1j,))
    bumped = EllipticPlaces(
        degree=1,
        nonarch=(NonArchPlace(ord_delta=12, log_nv=math.log(2)),),
        arch=(1j,),
    )
    delta = faltings_height_elliptic(bumped) - faltings_height_elliptic(base)
    assert abs(delta - math.log(2)) < 1e-14


def test_faltings_height_conjugate_pair_averages():
    tau = 0.3 + 1.7j
    conj_embedding = complex(-tau.real, tau.imag)
    deg1 = EllipticPlaces(degree=1, nonarch=(), arch=(tau,))
    deg2 = EllipticPlaces(degree=2, nonarch=(), arch=(tau, conj_embedding))
    assert abs(
        faltings_height_elliptic(deg1) - faltings_height_elliptic(deg2)
    ) < 1e-13


def test_places_validation():
    with pytest.raises(ValueError):
        EllipticPlaces(degree=2, nonarch=(), arch=(1j,))
    with pytest.raises(NonPositiveImaginaryPartError):
        EllipticPlaces(degree=1, nonarch=(), arch=(1 - 2j,))
    with pytest.raises(NegativeOrderError):
        NonArchPlace(ord_delta=-3, log_nv=1.0)
    with pytest.raises(ValueError):
        NonArchPlace(ord_delta=3, log_nv=0.0)


def test_rhs_reduces_to_constant_term():
    assert height_identity_rhs(1, 0.0, [], [], 1) == -KAPPA0
    assert height_identity_rhs(3, 0.0, [], [], 2) == -3 * KAPPA0


def test_rhs_matches_classical_formula_g1():
    rng = random.Random(31)
    for _ in range(20):
        degree = rng.randint(1, 3)
        nonarch = tuple(
            NonArchPlace(rng.randint(0, 20), rng.uniform(0.5, 3.0))
            for _ in range(rng.randint(0, 3))
        )
        arch = tuple(
            complex(rng.uniform(-1, 1), rng.uniform(0.3, 10))
            for _ in range(degree)
        )
        places = EllipticPlaces(degree=degree, nonarch=nonarch, arch=arch)
        lhs = faltings_height_elliptic(places)
        rhs = height_identity_rhs(
            1,
            0.0,
            [(nonarch_local_invariant(p.ord_delta), p.log_nv) for p in nonarch],
            [arch_local_invariant(t) for t in arch],
            degree,
        )
        assert abs(lhs - rhs) < 1e-10


def test_function_field_height_example():
    assert function_field_height(1, 0, [F(1, 12), F(1, 6)]) == F(1, 4)


def test_function_field_height_is_exact():
    value = function_field_height(2, F(3, 7), [F(5, 12)])
    assert value == 4 * F(3, 7) + F(5, 12)
    assert isinstance(value, F)


def test_height_identity_report_examples():
    cases = [
        EllipticPlaces(degree=1, nonarch=(), arch=(1j,)),
        EllipticPlaces(
            degree=1,
            nonarch=(
                NonArchPlace(4, math.log(3)),
                NonArchPlace(7, math.log(5)),
            ),
            arch=(0.5 + 3j,),
        ),
        EllipticPlaces(
            degree=3,
            nonarch=(NonArchPlace(11, math.log(7)),),
            arch=(1j, 0.25 + 2j, -0.4 + 0.8j),
        ),
    ]
    for places in cases:
        report = height_identity_report(places)
        assert abs(report.residual) < 1e-10
        assert report.residual == report.lhs - report.rhs


def test_height_identity_report_sums_one_q_product_per_embedding(monkeypatch):
    places = EllipticPlaces(
        degree=3,
        nonarch=(NonArchPlace(11, math.log(7)),),
        arch=(1j, 0.25 + 2j, -0.4 + 0.8j),
    )
    calls = count_calls(monkeypatch, heights, "_log_abs_delta")
    report = height_identity_report(places)
    assert [args[0] for args in calls] == list(places.arch)
    # both sides read the same floats as their public forms
    assert report.lhs == faltings_height_elliptic(places)
    assert [t["invariant"] for t in report.terms["arch"]] == [
        arch_local_invariant(tau) for tau in places.arch]


def test_height_identity_monotone_in_bad_places():
    base = EllipticPlaces(degree=1, nonarch=(), arch=(1j,))
    more = EllipticPlaces(
        degree=1, nonarch=(NonArchPlace(6, math.log(11)),), arch=(1j,)
    )
    rep0, rep1 = height_identity_report(base), height_identity_report(more)
    assert rep1.lhs > rep0.lhs
    assert abs(rep1.residual) < 1e-10


@pytest.mark.filterwarnings("ignore:Im tau < 0.1")
def test_periods_and_places_outside_the_float_range_are_rejected():
    # |q| = exp(-2 pi Im tau) underflows to 0, or rounds to 1
    for tau in (1e300j, 200j, 1e-300j, 0.5 + 1e-20j):
        with pytest.raises(FloatRangeError):
            log_abs_delta(tau)
    assert math.isfinite(log_abs_delta(112j).value)
    with pytest.raises(FloatRangeError):
        NonArchPlace(ord_delta=100, log_nv=1e308)
    with pytest.raises(FloatRangeError):
        NonArchPlace(ord_delta=10**400, log_nv=1.0)
    big = NonArchPlace(ord_delta=1, log_nv=1e308)
    with pytest.raises(FloatRangeError, match="nonarch\\[1\\]"):
        EllipticPlaces(degree=1, nonarch=(big, big), arch=(1j,))
