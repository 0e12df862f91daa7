import random
from fractions import Fraction

import pytest

from conftest import oracle_quadrature, random_pd_gram, random_point
from tropmoment.lattice import norm_sq, validate
from tropmoment.polytope import second_moment
from tropmoment.troptheta import (
    functional_equation_residual,
    moment_by_quadrature,
    torus_reduce,
    trop_theta,
    trop_theta_norm,
    trop_theta_norm_shifted0,
    trop_theta_shifted,
    trop_theta_shifted0,
)

F = Fraction
A2 = validate([[2, 1], [1, 2]])
ID2 = validate([[1, 0], [0, 1]])


def test_theta_vanishes_at_origin():
    for lat in (A2, ID2, validate([[7]])):
        assert trop_theta(lat, (0,) * lat.rank) == 0


def test_theta_rank1_values():
    # brute force over u in {-3..3}: value 0 at coordinate 1/2 (tie with
    # u = -1), and -ell/4 at coordinate 3/4
    for ell in (2, 7, F(9, 2)):
        lat = validate([[ell]])
        assert trop_theta(lat, (F(1, 2),)) == 0
        assert trop_theta(lat, (F(3, 4),)) == -F(ell) / 4


def test_theta_identity2_ones():
    assert trop_theta(ID2, (1, 1)) == -1


def test_theta_nonpositive():
    rng = random.Random(11)
    for _ in range(30):
        lat = validate(random_pd_gram(rng))
        assert trop_theta(lat, random_point(rng, lat.rank)) <= 0


def test_norm_identity_exact():
    rng = random.Random(22)
    for _ in range(30):
        lat = validate(random_pd_gram(rng))
        nu = random_point(rng, lat.rank)
        assert trop_theta_norm(lat, nu) == trop_theta(lat, nu) + norm_sq(lat, nu) / 2


def test_norm_zero_on_lattice_points():
    rng = random.Random(33)
    for lat in (A2, validate([[5]])):
        assert trop_theta_norm(lat, (0,) * lat.rank) == 0
        for _ in range(5):
            u = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
            assert trop_theta_norm(lat, u) == 0


def test_norm_rank1_half():
    for ell in (2, 7, 12):
        assert trop_theta_norm(validate([[ell]]), (F(1, 2),)) == F(ell, 8)


def test_norm_lattice_invariance():
    rng = random.Random(44)
    for _ in range(30):
        lat = validate(random_pd_gram(rng))
        nu = random_point(rng, lat.rank)
        u = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        shifted = tuple(a + b for a, b in zip(nu, u))
        assert trop_theta_norm(lat, shifted) == trop_theta_norm(lat, nu)


def test_functional_equation_zero_shift():
    rng = random.Random(55)
    lat = A2
    nu = random_point(rng, 2)
    assert functional_equation_residual(lat, nu, (0, 0)) == 0


def test_functional_equation_identity2():
    rng = random.Random(66)
    for _ in range(10):
        nu = random_point(rng, 2)
        assert functional_equation_residual(ID2, nu, (1, 0)) == 0


def test_functional_equation_a2_example():
    assert functional_equation_residual(A2, (F(1, 3), F(1, 7)), (2, -1)) == 0


def test_functional_equation_rejects_non_integer_shift():
    lat = validate([[7]])
    for u in ((F(1, 2),), (2.7,), ("1/3",)):
        with pytest.raises(ValueError, match="non-integer"):
            functional_equation_residual(lat, (F(1, 5),), u)
    assert functional_equation_residual(lat, (F(1, 5),), (F(4, 2),)) == 0


def test_functional_equation_seeded():
    rng = random.Random(77)
    for _ in range(100):
        lat = validate(random_pd_gram(rng, max_rank=3))
        nu = random_point(rng, lat.rank)
        u = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        assert functional_equation_residual(lat, nu, u) == 0


def test_integer_valued_on_integer_points_for_even_diagonal():
    rng = random.Random(88)
    grams = [[[2, 1], [1, 2]], [[2]], [[4, -1], [-1, 2]],
             [[2, 1, 0], [1, 4, -2], [0, -2, 6]]]
    for gram in grams:
        lat = validate(gram)
        for _ in range(10):
            point = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
            assert trop_theta(lat, point).denominator == 1


def test_shift_by_zero_is_plain_theta():
    rng = random.Random(99)
    for _ in range(10):
        lat = validate(random_pd_gram(rng))
        nu = random_point(rng, lat.rank)
        zero = (F(0),) * lat.rank
        assert trop_theta_shifted(lat, zero, nu) == trop_theta(lat, nu)


def test_shifted0_vanishes_at_origin():
    rng = random.Random(110)
    for _ in range(10):
        lat = validate(random_pd_gram(rng))
        kappa = tuple(F(rng.randint(-3, 3), 2) for _ in range(lat.rank))
        zero = (F(0),) * lat.rank
        assert trop_theta_shifted0(lat, kappa, zero) == 0
        assert trop_theta_norm_shifted0(lat, kappa, zero) == 0


def test_halved_lattice_shift_formula_rank1():
    # shift by half a period: values on [0, ell] in metric units follow
    # nu(nu - ell)/(2 ell); coordinates are metric/ell
    for ell in (2, 3, 5):
        lat = validate([[ell]])
        kappa = (F(1, 2),)
        for k in range(7 * ell + 1):
            nu = F(k, 7)
            got = trop_theta_norm_shifted0(lat, kappa, (nu / ell,))
            assert got == nu * (nu - ell) / (2 * ell)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_shifted0_minimum_at_minus_kappa():
    rng = random.Random(120)
    for _ in range(8):
        lat = validate(random_pd_gram(rng, max_rank=2))
        g = lat.rank
        kappa = tuple(F(rng.randint(-6, 6), 4) for _ in range(g))
        floor_min = -trop_theta_norm(lat, kappa)
        at_minus_kappa = trop_theta_norm_shifted0(
            lat, kappa, tuple(-c for c in kappa)
        )
        assert at_minus_kappa == floor_min
        # grid search: nothing below the floor
        grid = [F(k, 7) for k in range(7)]
        if g == 1:
            points = [(x,) for x in grid]
        else:
            points = [(x, y) for x in grid for y in grid]
        for p in points:
            assert trop_theta_norm_shifted0(lat, kappa, p) >= floor_min


def test_non_two_torsion_shift_warns():
    with pytest.warns(UserWarning):
        trop_theta_shifted(A2, (F(1, 3), F(0)), (F(0), F(0)))


def test_torus_reduce():
    lat = A2
    assert torus_reduce(lat, (F(7, 3), F(-1, 4))) == (F(1, 3), F(3, 4))


def test_quadrature_rank1():
    est = moment_by_quadrature(validate([[5]]), 1000)
    assert abs(est - 5 / 12) <= 1e-4 * 5


def test_quadrature_identity2():
    est = moment_by_quadrature(ID2, 200)
    assert abs(est - 1 / 6) <= 1e-3


def test_quadrature_a2():
    est = moment_by_quadrature(A2, 200)
    assert abs(est - float(F(5, 18))) <= 1e-3


def test_quadrature_matches_exact_for_random_lattices():
    rng = random.Random(130)
    for _ in range(5):
        lat = validate(random_pd_gram(rng, max_rank=2))
        exact = float(second_moment(lat))
        est = moment_by_quadrature(lat, 64)
        assert abs(est - exact) <= max(3e-2 * exact, 1e-3)


def test_quadrature_rejects_tiny_grid():
    with pytest.raises(ValueError):
        moment_by_quadrature(ID2, 1)


def _sheared(gram, shear):
    """S^T G S: the same lattice in the basis given by the columns of S."""
    g = len(gram)
    return [[sum(shear[k][i] * gram[k][l] * shear[l][j]
                 for k in range(g) for l in range(g)) for j in range(g)]
            for i in range(g)]


A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
SHEARED_A2 = _sheared([[2, 1], [1, 2]], [[1, 3], [0, 1]])
SHEARED_A3 = _sheared(A3, [[1, 2, 1], [0, 1, 2], [0, 0, 1]])


def test_quadrature_equals_exact_midpoint_sum():
    # the sweep must reproduce the per-point, per-candidate minimum exactly,
    # rounded once: on random rational Grams of rank 1 to 3 and on sheared
    # bases, whose candidate lines cross inside the unit box
    rng = random.Random(140)
    cases = [(random_pd_gram(rng, max_rank=3), rng.choice((2, 3, 4, 5, 7)))
             for _ in range(60)]
    cases += [(gram, n) for gram in (SHEARED_A2, A3, SHEARED_A3)
              for n in (2, 3, 6, 7)]
    cases += [(SHEARED_A2, 24), (SHEARED_A2, 25)]
    for gram, n in cases:
        lat = validate(gram)
        assert moment_by_quadrature(lat, n) == float(oracle_quadrature(gram, n)), (gram, n)


def test_quadrature_closed_form_for_diagonal_grams():
    # on diag(d_1, ..., d_g) the minimum splits per coordinate, and the mean
    # squared distance of n midpoints to Z is (1/12)(1 - 1/n^2) for even n
    # and (1/12)(1 + 2/n^2) for odd n
    def closed_form(trace, n):
        return trace * F(1, 12) * (1 + F(-1 if n % 2 == 0 else 2, n * n))

    for gram, grids in (
        ([[F(7, 3)]], (2, 3, 5, 7, 10, 200, 1000)),
        ([[1, 0], [0, 1]], (2, 3, 5, 7, 10, 200)),
        ([[F(1, 2), 0], [0, 5]], (2, 3, 5, 7, 10)),
        ([[3, 0, 0], [0, F(2, 7), 0], [0, 0, 1]], (2, 3, 5, 7, 10)),
    ):
        trace = sum(F(gram[i][i]) for i in range(len(gram)))
        for n in grids:
            got = moment_by_quadrature(validate(gram), n)
            assert got == float(closed_form(trace, n)), (gram, n)
