import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import oracle_tate_theta_log_abs
from tropmoment import heights, neron
from tropmoment.lattice import validate
from tropmoment.neron import (
    AtDivisorError,
    BadModulusError,
    OutOfRangeError,
    b2,
    component_multiplicity,
    tate_local_height,
    tate_local_height_tropical,
    tate_theta_log_abs,
)
from tropmoment.troptheta import trop_theta_norm_shifted0

F = Fraction


def test_b2_values():
    assert b2(F(0)) == F(1, 6)
    assert b2(F(1, 2)) == -F(1, 12)
    assert b2(F(1)) == F(1, 6)


def test_b2_step_identity_exact():
    rng = random.Random(5)
    for _ in range(30):
        t = F(rng.randint(-40, 40), rng.randint(1, 12))
        assert b2(t + 1) - b2(t) == 2 * t


def test_theta_self_convergence():
    short = tate_theta_log_abs(0.5, -1.0, 64)
    long = tate_theta_log_abs(0.5, -1.0, 256)
    assert abs(short.value - long.value) < 1e-12
    assert abs(short.value - long.value) <= short.tail_bound + 1e-15


def test_theta_quasi_periodicity_seeded():
    rng = random.Random(6)
    for _ in range(100):
        r = rng.uniform(0.05, 0.7)
        phi = rng.uniform(0, 2 * math.pi)
        q = r * cmath.exp(1j * phi)
        z = cmath.exp(1j * rng.uniform(0.3, 2 * math.pi - 0.3)) * math.exp(
            rng.uniform(-0.2, 0.2)
        )
        lhs = tate_theta_log_abs(q, q * z, 256).value
        rhs = tate_theta_log_abs(q, z, 256).value - math.log(abs(z))
        assert abs(lhs - rhs) < 1e-10


def test_theta_at_divisor_raises():
    with pytest.raises(AtDivisorError):
        tate_theta_log_abs(0.5, 1.0 + 1e-12)
    with pytest.raises(AtDivisorError):
        tate_theta_log_abs(0.5, 0.125 * (1 + 1e-12))  # q^3
    with pytest.raises(AtDivisorError, match="z must be nonzero"):
        tate_local_height(0.5, 0)
    # far from the divisor: fine
    tate_theta_log_abs(0.5, -1.0)


def test_theta_bad_modulus():
    for q in (0.0, 1.0, 1.5, -2.0, None, [0.5], "q"):
        with pytest.raises(BadModulusError):
            tate_theta_log_abs(q, -1.0)
        with pytest.raises(BadModulusError):
            tate_local_height(q, -1.0)


def test_theta_outside_the_float_range_is_rejected():
    with pytest.raises(BadModulusError):
        tate_theta_log_abs(1e-320, 0.5 + 0.1j)  # subnormal |q|
    with pytest.raises(BadModulusError):
        tate_theta_log_abs(1e308 + 1e308j, 0.5)  # |q| overflows
    for z in (5e-324, 1.7e308 + 1.7e308j):  # 1/|z| or |z| overflows
        with pytest.raises(OutOfRangeError):
            tate_theta_log_abs(0.1, z)
    # every z that the checks accept evaluates, also where the raw product
    # has no tail bound within the terms asked for
    for q, z, n_terms in ((0.1, 1e308 + 1e308j, 64), (0.5, 5.0, 1)):
        got = tate_theta_log_abs(q, z, n_terms)
        expected, _ = oracle_tate_theta_log_abs(q, z, 5000)
        assert abs(got.value - expected) <= got.tail_bound + 1e-13 * abs(expected)
    # a lift far from the unit circle is still placed against the divisor,
    # and off it evaluates
    with pytest.raises(AtDivisorError, match="q\\^-300"):
        tate_theta_log_abs(0.1, 1e300 * (1 + 1e-12), 400)
    assert math.isfinite(tate_theta_log_abs(0.1, 3e300, 400).tail_bound)


def test_local_height_reads_the_checked_q_and_z():
    assert tate_local_height("0.5", -1.0) == tate_local_height(0.5, -1.0)
    assert tate_local_height("0.3+0.2j", "-0.7+0.1j", 256) == tate_local_height(
        0.3 + 0.2j, -0.7 + 0.1j, 256)


def test_points_that_are_not_numbers_are_rejected():
    for bad in (None, [0.5], "z"):
        with pytest.raises(OutOfRangeError, match="z must be a complex number"):
            tate_local_height(0.5, bad)
        with pytest.raises(OutOfRangeError, match="z must be a complex number"):
            tate_theta_log_abs(0.5, bad)


def test_theta_term_counts_must_be_ints():
    for call in (lambda: tate_theta_log_abs(0.5, -1.0, 2.5),
                 lambda: tate_local_height(0.5, -1.0, 300.0),
                 lambda: tate_local_height(0.5, -1.0, "64")):
        with pytest.raises(ValueError, match="n_terms must be an int"):
            call()


def test_theta_matches_term_by_term_oracle_seeded():
    # |z| from the unit circle out to e^+-600, and term counts from one
    # to many; the oracle sums the raw product to convergence, and the
    # package derives log|theta| from the reduced pair
    rng = random.Random(19)
    for _ in range(1000):
        q = rng.uniform(0.03, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if rng.random() < 0.2:
            q = math.copysign(abs(q), q.real)  # real moduli, as in the conjugation test
        log_r = rng.choice([0.0, rng.uniform(-1, 1), rng.uniform(-40, 40),
                            rng.uniform(-600, 600)])
        z = math.exp(log_r) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        n_terms = rng.choice([1, 2, 16, 64, 256, 2000])
        try:
            expected, _ = oracle_tate_theta_log_abs(q, z, 5000)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                tate_theta_log_abs(q, z, n_terms)
            continue
        got = tate_theta_log_abs(q, z, n_terms)
        tolerance = 1e-13 * max(1.0, abs(expected))
        if n_terms < 8:  # cut before the reduced series converges: the bound covers it
            tolerance += got.tail_bound
        assert abs(got.value - expected) <= tolerance


def test_theta_series_budget():
    # |q| this close to 1 would take about 4e9 raw terms; the reduced pair
    # takes a few, whatever the count asked for
    series = tate_theta_log_abs(0.99999999, -1.0, 10**9)
    assert series == tate_theta_log_abs(0.99999999, -1.0, 1000)
    assert series == tate_theta_log_abs(0.99999999, -1.0, 10**6)
    assert series.tail_bound < 1e-15
    # log|theta(-1)| = (l/2) B2(0) - lambda(-1), from the same pair
    ell = -math.log(0.99999999)
    lam = tate_local_height(0.99999999, -1.0, 10**9)
    assert abs(series.value - (ell / 12 - lam)) <= 1e-12 * abs(series.value)


def test_lambda_periodicity_seeded():
    rng = random.Random(7)
    for _ in range(100):
        r = rng.uniform(0.05, 0.7)
        phi = rng.uniform(0, 2 * math.pi)
        q = r * cmath.exp(1j * phi)
        z = cmath.exp(1j * rng.uniform(0.3, 2 * math.pi - 0.3)) * math.exp(
            rng.uniform(-0.2, 0.2)
        )
        assert abs(
            tate_local_height(q, q * z, 256) - tate_local_height(q, z, 256)
        ) < 1e-10


def test_lambda_conjugation_symmetry_real_modulus():
    rng = random.Random(8)
    for _ in range(20):
        q = rng.uniform(0.05, 0.7)
        z = cmath.exp(1j * rng.uniform(0.3, math.pi - 0.3)) * math.exp(
            rng.uniform(-0.2, 0.2)
        )
        assert tate_local_height(q, z) == tate_local_height(q, z.conjugate())


def test_tropical_values():
    assert tate_local_height_tropical(12, 0) == 0
    assert tate_local_height_tropical(12, 12) == 0
    for ell in (2, 3, F(9, 2)):
        assert tate_local_height_tropical(ell, F(ell) / 2) == -F(ell) / 8
    with pytest.raises(OutOfRangeError):
        tate_local_height_tropical(3, 4)
    with pytest.raises(OutOfRangeError):
        tate_local_height_tropical(3, -1)
    with pytest.raises(BadModulusError):
        tate_local_height_tropical(0, 0)


def test_tropical_range():
    ell = F(7, 2)
    for k in range(29):
        nu = F(k, 8)
        if nu > ell:
            break
        value = tate_local_height_tropical(ell, nu)
        assert -ell / 8 <= value <= 0


def test_component_multiplicity_values():
    assert component_multiplicity(0, 5) == 0
    assert component_multiplicity(1, 2) == -F(1, 4)
    with pytest.raises(OutOfRangeError):
        component_multiplicity(5, 5)
    with pytest.raises(OutOfRangeError):
        component_multiplicity(-1, 5)
    with pytest.raises(BadModulusError, match="l must be a positive integer"):
        component_multiplicity(0, 0)


def test_component_multiplicity_needs_integer_arguments():
    # no component 1/2, and no modulus 2.0: refused, not evaluated
    with pytest.raises(OutOfRangeError, match="component index must be an int"):
        component_multiplicity(F(1, 2), 2)
    with pytest.raises(BadModulusError, match="l must be an int, got 2.0"):
        component_multiplicity(1, 2.0)
    with pytest.raises(BadModulusError, match="l must be an int"):
        component_multiplicity(F(1, 2), "2")
    assert component_multiplicity(True, 2) == component_multiplicity(1, 2)


def test_component_multiplicity_symmetry():
    for ell in range(2, 21):
        for i in range(1, ell):
            assert component_multiplicity(i, ell) == component_multiplicity(
                ell - i, ell
            )


def test_component_multiplicity_equals_tropical_height():
    for ell in range(1, 16):
        for i in range(ell):
            assert component_multiplicity(i, ell) == tate_local_height_tropical(
                ell, i
            )


def test_cross_module_identity_with_theta():
    # skeleton heights equal the origin-based half-period theta translate
    # of the rank-1 lattice [[l]]; metric nu corresponds to coordinate nu/l
    for ell in (2, 3, 5, 12):
        lat = validate([[ell]])
        kappa = (F(1, 2),)
        for k in range(7 * ell + 1):
            nu = F(k, 7)
            assert tate_local_height_tropical(ell, nu) == trop_theta_norm_shifted0(
                lat, kappa, (nu / ell,)
            )


def test_lambda_matches_tropical_envelope_smoke():
    # deep in the annulus the theta fluctuation is bounded by about
    # exp(-min(nu, l - nu)), so lambda sampled on |z| = exp(-nu) sits
    # within 1e-2 of the skeleton value nu(nu-l)/(2l) shifted by the
    # l/12 normalization
    ell = 12
    q = math.exp(-ell)
    for nu in (5, 6, 7):
        radius = math.exp(-nu)
        samples = [
            tate_local_height(q, radius * cmath.exp(2j * math.pi * k / 64))
            for k in range(64)
        ]
        target = float(tate_local_height_tropical(ell, nu) + F(ell, 12))
        assert abs(min(samples) - target) < 1e-2


def _raw_local_height(q, z, theta_log_abs):
    """(l/2) B2(log|z|/log|q|) - log|theta(z)| at the unreduced q and z."""
    log_q = math.log(abs(q))
    return (-log_q / 2) * b2(math.log(abs(z)) / log_q) - theta_log_abs


def test_reduced_local_height_matches_term_by_term_oracle_seeded():
    # the raw product summed to 1e-15 term by term, against the reduced pair
    rng = random.Random(25)
    for _ in range(1000):
        q = rng.uniform(0.03, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if rng.random() < 0.2:
            q = math.copysign(abs(q), q.real)
        log_r = rng.choice([0.0, rng.uniform(-1, 1), rng.uniform(-40, 40)])
        z = math.exp(log_r) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        theta, _ = oracle_tate_theta_log_abs(q, z, 5000)
        expected = _raw_local_height(q, z, theta)
        scale = max(1.0, abs(expected + theta), abs(theta))
        assert abs(tate_local_height(q, z) - expected) <= 1e-12 * scale


def test_local_height_is_invariant_under_sl2z_seeded():
    # (tau, u) -> (g tau, u / (c tau + d)) for seeded g in SL2(Z) with
    # entries up to 5: the same curve and point in another period basis
    rng = random.Random(26)
    for _ in range(300):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2.0))
        u = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau
        while True:
            a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
            if a * d - b * c == 1:
                break
        j = c * tau + d
        expected = tate_local_height(cmath.exp(2j * math.pi * tau), cmath.exp(2j * math.pi * u))
        got = tate_local_height(cmath.exp(2j * math.pi * (a * tau + b) / j),
                                cmath.exp(2j * math.pi * u / j))
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_reduced_local_height_is_periodic_at_the_default_terms():
    # |q| up to 0.7: the raw 64-term product misses 1e-10 on 13 of these
    rng = random.Random(20260810)
    for _ in range(4000):
        r = rng.uniform(0.05, 0.7)
        q = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z = cmath.exp(1j * rng.uniform(0.3, 2 * math.pi - 0.3)) * math.exp(
            rng.uniform(-0.2, 0.2)
        )
        assert abs(tate_local_height(q, q * z) - tate_local_height(q, z)) < 1e-12


def test_reduced_local_height_is_finite_at_extreme_moduli():
    # after S, q and z underflow: q near 1 in any direction, and a tiny q
    for q in (0.99999999, -0.99999999, 0.9999999999j, 1e-300):
        assert math.isfinite(tate_local_height(q, 1e150))
    # and so do pairs whose raw product has no bound within these counts
    for q, z, n_terms in ((0.5, 5.0, 1), (0.99999999, -1.0, 10**9)):
        assert math.isfinite(tate_theta_log_abs(q, z, n_terms).value)
        assert math.isfinite(tate_local_height(q, z, n_terms))
    # lambda(-1) = pi^2 / (6 l) + O(l) as l -> 0
    ell = -math.log(0.99999999)
    expected = -math.pi**2 / (6 * ell)
    assert abs(tate_local_height(0.99999999, -1.0, 10**9) - expected) < 1e-6 * abs(expected)


def test_reduced_series_takes_at_most_eight_pairs(monkeypatch):
    # the fewest terms that give the same sum and bound as the call itself
    counts = {"delta": [], "tate": []}
    q_product = heights._q_product

    def counted(tau, z, n_terms):
        series = q_product(tau, z, n_terms)
        n = 1
        while q_product(tau, z, n) != series:
            n += 1
        counts["delta" if z == 1.0 else "tate"].append(n)
        return series

    monkeypatch.setattr(heights, "_q_product", counted)
    monkeypatch.setattr(neron, "_q_product", counted)
    rng = random.Random(27)
    for _ in range(500):
        n_terms = rng.choice([8, 64, 10**9])
        gap = 10 ** rng.uniform(-8, math.log10(0.999))  # 1 - |q| from 1e-8 to 0.999
        q = (1 - gap) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z = math.exp(rng.uniform(-300, 300)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        tate_local_height(q, z, n_terms)
        tate_theta_log_abs(q, z, n_terms)
        tau = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-3, math.log10(200)))
        heights.log_abs_delta(tau, n_terms)
    assert len(counts["tate"]) == 1000 and len(counts["delta"]) == 500
    assert max(counts["tate"] + counts["delta"]) <= 8
