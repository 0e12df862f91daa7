import cmath
import math
import random
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import count_calls
from tropmoment import heights
from tropmoment.heights import (
    KAPPA0,
    EllipticPlaces,
    FloatRangeError,
    NegativeOrderError,
    NonArchPlace,
    NonPositiveImaginaryPartError,
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


def test_log_abs_delta_matches_term_by_term_oracle_seeded():
    # the oracle sums the raw product at tau as given, converged; the
    # package reduces tau first and sums at most 6 terms
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
        expected = _oracle_log_abs_delta(tau, 2000)
        tolerance = 1e-13 * max(1.0, abs(expected))
        if n_terms < 8:  # cut before the reduced series converges: the bound covers it
            tolerance += got.tail_bound
        assert abs(got.value - expected) <= tolerance


def test_log_abs_delta_series_budget():
    # Im tau = 1e-9 is reduced to 1e9 i first: no term count is large
    # enough to matter, and the value is the closed form
    expected = -2 * math.pi / 1e-9 - 12 * math.log(1e-9)
    got = log_abs_delta(1e-9j, 10**9)
    assert got == log_abs_delta(1e-9j, 10**6) == log_abs_delta(1e-9j)
    assert abs(got.value - expected) <= 1e-13 * abs(expected)
    places = EllipticPlaces(degree=2, nonarch=(), arch=(1j, 1e-9j))
    report = height_identity_report(places, 10**9)
    assert report.terms["arch"][1]["invariant"] == arch_local_invariant(1e-9j)
    assert math.isfinite(report.lhs) and abs(report.residual) <= 1e-13 * abs(report.lhs)


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
    # Im tau = 0.05 is reduced, not warned about, and matches the raw
    # product summed to convergence
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_abs_delta(0.05j, 400).value
    expected = _oracle_log_abs_delta(0.05j, 2000)
    assert abs(got - expected) <= 1e-13 * abs(expected)


def test_small_imaginary_part_warns_once_per_input():
    def count_warnings(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        return len(caught)

    assert count_warnings(lambda: height_identity_report(
        EllipticPlaces(degree=1, nonarch=(), arch=(0.05j,)))) == 0
    assert count_warnings(lambda: log_abs_delta(0.05j)) == 0
    assert count_warnings(lambda: arch_local_invariant(0.05j)) == 0


def test_log_abs_delta_closed_form_near_the_cusp():
    # log|delta(iy)| = log|delta(i/y)| - 12 log y, and at i/y the
    # q-product is 1 to within exp(-2 pi / y)
    for y in (1e-3, 1e-9, 1e-300):
        expected = -2 * math.pi / y - 12 * math.log(y)
        assert abs(log_abs_delta(complex(0, y)).value - expected) <= 1e-13 * abs(expected)


def test_log_abs_delta_at_an_underflowed_q():
    # |q| = exp(-400 pi) is below the binary64 range: log|delta| = log|q|
    got = log_abs_delta(200j)
    assert got.value == -400 * math.pi
    assert got.tail_bound <= 24 * math.exp(-200 * math.pi)


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


def test_integer_arguments_are_read_as_ints():
    with pytest.raises(NegativeOrderError, match=re.escape("ord_delta must be an int, got 1.5")):
        nonarch_local_invariant(1.5)
    with pytest.raises(ValueError, match=re.escape("g must be an int, got 1.5")):
        height_identity_rhs(1.5, 0.0, [], [], 1)
    # a bool reads as the int it is, as operator.index reads it
    assert nonarch_local_invariant(True) == F(1, 12)


def test_place_order_must_be_an_int():
    with pytest.raises(NegativeOrderError, match=re.escape("ord_delta must be an int, got 1.5")):
        NonArchPlace(1.5, 1.0)
    place = NonArchPlace(True, 1.0)
    assert (type(place.ord_delta), place.ord_delta) == (int, 1)


@pytest.mark.parametrize("log_nv, expected", [(2, 2.0), (1.5, 1.5), (F(3, 2), 1.5)])
def test_place_log_nv_is_kept_as_a_float(log_nv, expected):
    place = NonArchPlace(1, log_nv)
    assert (type(place.log_nv), place.log_nv) == (float, expected)
    report = height_identity_report(EllipticPlaces(degree=1, nonarch=(place,), arch=(1j,)))
    assert type(report.terms["nonarch"][0]["log_nv"]) is float
    assert abs(report.residual) < 1e-12


@pytest.mark.parametrize("log_nv", [Decimal("1.5"), "1.5", 1.5 + 0j])
def test_place_log_nv_of_another_type_is_rejected(log_nv):
    with pytest.raises(ValueError, match="log_nv must be a positive number"):
        NonArchPlace(1, log_nv)


def test_place_log_nv_past_the_float_range_is_rejected():
    with pytest.raises(FloatRangeError, match="log_nv exceeds"):
        NonArchPlace(1, 10**400)
    with pytest.raises(FloatRangeError, match="log_nv exceeds"):
        NonArchPlace(1, F(10**400, 3))
    # an infinite log Nv with ord_delta = 0 would make every report nan
    with pytest.raises(FloatRangeError, match="log_nv exceeds"):
        NonArchPlace(0, math.inf)


def test_places_degree_must_be_an_int():
    with pytest.raises(ValueError, match=re.escape("degree must be an int, got 1.0")):
        EllipticPlaces(degree=1.0, nonarch=(), arch=(1j,))


def test_identity_rhs_degree_must_be_an_int():
    with pytest.raises(ValueError, match=re.escape("degree must be an int, got 1.5")):
        height_identity_rhs(1, 0.0, [], [], 1.5)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        height_identity_rhs(1, 0.0, [], [], 0)
    with pytest.raises(ValueError, match="g must be >= 1"):
        height_identity_rhs(0, 0.0, [], [], 1)
    assert height_identity_rhs(1, 0.0, [], [], 1) == -KAPPA0


def test_places_keep_the_periods_they_check():
    places = EllipticPlaces(degree=1, nonarch=(), arch=("1j",))
    assert places.arch == (1j,) and type(places.arch[0]) is complex
    got = height_identity_report(places)
    want = height_identity_report(EllipticPlaces(degree=1, nonarch=(), arch=(1j,)))
    assert (got.lhs, got.rhs, got.residual, got.terms) == (
        want.lhs, want.rhs, want.residual, want.terms)


def test_periods_that_are_not_numbers_raise_value_errors():
    for bad in (None, [1j], object()):
        with pytest.raises(NonPositiveImaginaryPartError, match="must be a complex number"):
            log_abs_delta(bad)
        with pytest.raises(NonPositiveImaginaryPartError, match="must be a complex number"):
            arch_local_invariant(bad)
        with pytest.raises(NonPositiveImaginaryPartError, match="must be a complex number"):
            EllipticPlaces(degree=1, nonarch=(), arch=(bad,))


def test_series_term_counts_must_be_ints():
    places = EllipticPlaces(degree=1, nonarch=(), arch=(1j,))
    for call in (lambda: log_abs_delta(1j, 2.5), lambda: arch_local_invariant(1j, "64"),
                 lambda: faltings_height_elliptic(places, 2.5),
                 lambda: height_identity_report(places, 64.0)):
        with pytest.raises(ValueError, match="n_terms must be an int"):
            call()
    with pytest.raises(ValueError, match="n_terms must be >= 1"):
        log_abs_delta(1j, 0)


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
    for log_nv in (0.0, "2", None, 1j):
        with pytest.raises(ValueError, match="log_nv must be a positive number"):
            NonArchPlace(ord_delta=3, log_nv=log_nv)


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


def test_function_field_height_needs_an_integer_genus():
    for g in (1.5, 1.0, F(1), "1"):
        with pytest.raises(ValueError, match=re.escape(f"g must be an int, got {g!r}")):
            function_field_height(g, F(1, 3), [F(1, 12)])
    with pytest.raises(ValueError, match="g must be >= 1"):
        function_field_height(0, F(1, 3), [])


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


def test_period_with_a_nan_real_part_is_rejected():
    # an infinite real part overflows in the reduction; a NaN one is refused
    # by the same FloatRangeError before it reaches round()
    for tau in (complex(math.nan, 1), complex(math.inf, 1)):
        for call in (log_abs_delta, arch_local_invariant,
                     lambda t: height_identity_report(
                         EllipticPlaces(degree=1, nonarch=(), arch=(t,)))):
            with pytest.raises(FloatRangeError):
                call(tau)
    with pytest.raises(FloatRangeError, match="NaN real part"):
        log_abs_delta(complex(math.nan, 1))


def test_periods_and_places_outside_the_float_range_are_rejected():
    # refused only where log|delta| itself leaves binary64: -2 pi Im tau
    # overflows, or the S-image of a subnormal Im tau does
    for tau in (1e308j, 1e-310j, 0.25 + 1e-310j):
        with pytest.raises(FloatRangeError, match="exceeds the binary64 range"):
            log_abs_delta(tau)
    # the periods whose q underflows or rounds to 1 evaluate
    for tau, expected in ((1e300j, -2e300 * math.pi), (200j, -400 * math.pi),
                          (1e-300j, -2e300 * math.pi + 12 * 300 * math.log(10)),
                          # S, T by -2, S: log|delta(i / 4e-20)| - 12 log|(1/2) 4e-20|
                          (0.5 + 1e-20j, -math.pi / 2e-20 - 12 * math.log(2e-20))):
        got = log_abs_delta(tau).value
        assert math.isfinite(got) and abs(got - expected) <= 1e-13 * abs(expected)
    assert math.isfinite(log_abs_delta(112j).value)
    # a report names the embedding whose period overflows, and a sum over
    # the embeddings that overflows has no index
    with pytest.raises(FloatRangeError) as caught:
        height_identity_report(EllipticPlaces(degree=2, nonarch=(), arch=(1j, 1e308j)))
    assert caught.value.index == 1
    for call in (height_identity_report, faltings_height_elliptic):
        with pytest.raises(FloatRangeError, match="archimedean embeddings") as caught:
            call(EllipticPlaces(degree=2, nonarch=(), arch=(2e307j, 2e307j)))
        assert caught.value.index is None
    with pytest.raises(FloatRangeError):
        NonArchPlace(ord_delta=100, log_nv=1e308)
    with pytest.raises(FloatRangeError):
        NonArchPlace(ord_delta=10**400, log_nv=1.0)
    big = NonArchPlace(ord_delta=1, log_nv=1e308)
    with pytest.raises(FloatRangeError, match="nonarch\\[1\\]"):
        EllipticPlaces(degree=1, nonarch=(big, big), arch=(1j,))
