import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import oracle_tate_theta_log_abs
from tropmoment.heights import SERIES_TERM_BUDGET, SeriesBudgetError
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
    # far from the divisor: fine
    tate_theta_log_abs(0.5, -1.0)


def test_theta_bad_modulus():
    for q in (0.0, 1.0, 1.5, -2.0):
        with pytest.raises(BadModulusError):
            tate_theta_log_abs(q, -1.0)


def test_theta_outside_the_float_range_is_rejected():
    with pytest.raises(BadModulusError):
        tate_theta_log_abs(1e-320, 0.5 + 0.1j)  # subnormal |q|
    with pytest.raises(BadModulusError):
        tate_theta_log_abs(1e308 + 1e308j, 0.5)  # |q| overflows
    for z in (5e-324, 1.7e308 + 1.7e308j):  # 1/|z| or |z| overflows
        with pytest.raises(OutOfRangeError):
            tate_theta_log_abs(0.1, z)
    # no factor within the terms gives a tail bound
    with pytest.raises(OutOfRangeError, match="no tail bound"):
        tate_theta_log_abs(0.1, 1e308 + 1e308j)
    with pytest.raises(OutOfRangeError, match="no tail bound"):
        tate_theta_log_abs(0.5, 5.0, 1)  # |q|^2 |z| >= 1
    # a lift far from the unit circle is still placed against the divisor,
    # and still evaluates once the terms reach it
    with pytest.raises(AtDivisorError, match="q\\^-300"):
        tate_theta_log_abs(0.1, 1e300 * (1 + 1e-12), 400)
    assert math.isfinite(tate_theta_log_abs(0.1, 3e300, 400).tail_bound)


def test_theta_matches_term_by_term_oracle_seeded():
    # |z| from the unit circle out to e^+-600, where the leading factors
    # take their own logs; the term counts cover one, part of and many
    # blocks, and counts too small for any tail bound
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
            expected = oracle_tate_theta_log_abs(q, z, n_terms)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                tate_theta_log_abs(q, z, n_terms)
            continue
        got = tate_theta_log_abs(q, z, n_terms)
        assert got.tail_bound == expected[1]
        assert abs(got.value - expected[0]) <= 1e-13 * max(1.0, abs(expected[0]))


def test_theta_series_budget():
    # |q| this close to 1 needs about 4e9 terms; the count is known before
    # any factor is formed, so the refusal is immediate
    with pytest.raises(SeriesBudgetError):
        tate_theta_log_abs(0.99999999, -1.0, 10**9)
    # the same modulus within n_terms <= the budget is evaluated as before
    series = tate_theta_log_abs(0.99999999, -1.0, 1000)
    assert series.tail_bound > 1.0
    # a count of exactly the budget is allowed
    assert tate_theta_log_abs(0.99999999, -1.0, SERIES_TERM_BUDGET).tail_bound > 1e-15


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
