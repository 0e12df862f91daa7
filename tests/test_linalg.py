import random
from fractions import Fraction

from conftest import oracle_solve
from tropmoment import _linalg

F = Fraction


def test_solve_several_right_hand_sides():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        while True:
            a = [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            if _linalg.int_det([_linalg.integer_row(r)[0] for r in a]) != 0:
                break
        rhs = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
               for _ in range(rng.randint(1, 4))]
        assert _linalg.solve(a, rhs) == oracle_solve(a, rhs)


def test_int_solve_needs_a_row_swap_and_normalizes_the_sign():
    # zero leading pivot, negative determinant
    nums, den = _linalg.int_solve([[0, 1], [1, 0]], [[2, 3], [5, 7]])
    assert den == 1
    assert nums == [[3, 2], [7, 5]]
    nums, den = _linalg.int_solve([[1, 2], [3, 4]], [[1, 0]])
    assert den == 2 and nums == [[-4, 3]]


def test_singular_system_returns_none():
    assert _linalg.int_solve([[1, 2], [2, 4]], [[1, 1]]) is None
    assert _linalg.solve([[F(1, 2), 1], [1, 2]], [[0, 1]]) is None


def test_integer_row_scales_by_the_lcm():
    assert _linalg.integer_row([F(1, 2), F(2, 3), 5]) == ([3, 4, 30], 6)
