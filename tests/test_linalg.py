import random
from fractions import Fraction

from conftest import _det_int, oracle_qform, oracle_rank, oracle_solve
from tropmoment import _linalg

F = Fraction


def test_solve_several_right_hand_sides():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        while True:
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if _det_int(a) != 0:
                break
        rhs = [[rng.randint(-6, 6) for _ in range(n)]
               for _ in range(rng.randint(1, 4))]
        nums, den = _linalg.int_solve(a, rhs)
        assert den > 0
        oracle = oracle_solve(a, rhs)
        for c in range(len(rhs)):
            for i in range(n):
                assert F(nums[c][i], den) == oracle[c][i]


def test_int_solve_needs_a_row_swap_and_normalizes_the_sign():
    # zero leading pivot, negative determinant
    nums, den = _linalg.int_solve([[0, 1], [1, 0]], [[2, 3], [5, 7]])
    assert den == 1
    assert nums == [[3, 2], [7, 5]]
    nums, den = _linalg.int_solve([[1, 2], [3, 4]], [[1, 0]])
    assert den == 2 and nums == [[-4, 3]]


def test_singular_system_returns_none():
    assert _linalg.int_solve([[1, 2], [2, 4]], [[1, 1]]) is None


def test_integer_row_scales_by_the_lcm():
    assert _linalg.integer_row([F(1, 2), F(2, 3), 5]) == ([3, 4, 30], 6)


def test_int_ldl_reproduces_the_quadratic_form():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 5)
        while True:
            b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if _det_int(b) != 0:
                break
        a = [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        u, w, scale = _linalg.int_ldl(a)
        for k in range(n):
            assert u[k][k] == _det_int([row[:k + 1] for row in a[:k + 1]])
            assert all(u[k][j] == 0 for j in range(k))
        for _ in range(5):
            x = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            value = sum(w[k] * sum(u[k][j] * x[j] for j in range(k, n)) ** 2
                        for k in range(n))
            assert F(value, scale) == oracle_qform(a, x)


def _low_rank_matrix(rng, nrows, ncols, rank):
    """Product of random nrows x rank and rank x ncols integer factors,
    with some rows and columns set to zero."""
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    m = [[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(ncols)]
         for i in range(nrows)]
    for i in rng.sample(range(nrows), rng.randint(0, nrows // 2)):
        m[i] = [0] * ncols
    for j in rng.sample(range(ncols), rng.randint(0, ncols // 2)):
        for row in m:
            row[j] = 0
    return m


def test_int_rank_matches_fraction_elimination():
    rng = random.Random(13)
    cases = [[], [[0]], [[0, 0, 0]], [[0] * 4 for _ in range(3)], [[0], [0], [5]]]
    for _ in range(400):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(_low_rank_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols))))
    for m in cases:
        assert _linalg.int_rank(m) == oracle_rank(m)
