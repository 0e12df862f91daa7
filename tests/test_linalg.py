import random
from fractions import Fraction

import pytest

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


def _low_rank_matrix(rng, nrows, ncols, rank, size=3):
    """Product of random nrows x rank and rank x ncols integer factors with
    entries in [-size, size], with some rows and columns set to zero."""
    left = [[rng.randint(-size, size) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-size, size) for _ in range(ncols)] for _ in range(rank)]
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
    # facet-shaped: the vertex rows of a facet, 40 to 700 rows of 6 to 8
    # columns with entries up to 10^6, of full or short rank
    for _ in range(16):
        nrows, ncols = rng.randint(40, 700), rng.randint(6, 8)
        cases.append(_low_rank_matrix(rng, nrows, ncols, rng.randint(1, ncols), size=350))
    for _ in range(4):
        nrows, ncols = rng.randint(40, 700), rng.randint(6, 8)
        cases.append([[rng.randint(-10**6, 10**6) for _ in range(ncols)] for _ in range(nrows)])
    # the first nonzero column comes late: leading columns are skipped
    cases += [[[0, 0, 0, 1], [0, 0, 0, 2]], [[0, 0, 3], [0, 0, 0], [0, 1, 1]],
              [[0, 0, 1, 2, 3], [0, 0, 2, 4, 6], [0, 0, 0, 0, 1]]]
    for _ in range(200):
        nrows, ncols = rng.randint(1, 9), rng.randint(2, 8)
        m = _low_rank_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        lead = rng.randint(1, ncols - 1)
        for row in m:
            row[:lead] = [0] * lead
        cases.append(m)
    for m in cases:
        assert _linalg.int_rank(m) == oracle_rank(m)


def _leading_minor(a, k):
    return _det_int([row[:k] for row in a[:k]])


def _zero_leading_minor(rng, n):
    """A random n x n integer matrix whose leading minor of a random order
    k < n is zero: row k - 1 starts as a combination of the rows above."""
    a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    k = rng.randint(1, n - 1)
    coeffs = [rng.randint(-2, 2) for _ in range(k - 1)]
    a[k - 1][:k] = [sum(c * a[i][j] for i, c in enumerate(coeffs)) for j in range(k)]
    assert _leading_minor(a, k) == 0
    return a


def _zero_column(rng, n):
    """A random n x n integer matrix with a zero column before a nonzero
    one: singular, and its elimination skips that column."""
    a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    j = rng.randrange(n - 1)
    for row in a:
        row[j] = 0
    return a


def test_int_det_matches_the_oracle_through_swaps_and_singular_matrices():
    rng = random.Random(21)
    cases = [[[0, 1], [1, 0]], [[0, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 2, 0], [0, 0, 3], [5, 0, 0]]]
    for _ in range(300):
        n = rng.randint(2, 6)
        cases.append(_zero_leading_minor(rng, n))
        cases.append(_low_rank_matrix(rng, n, n, rng.randint(0, n - 1)))
        cases.append(_zero_column(rng, n))
    signs = {(d > 0) - (d < 0) for d in map(_det_int, cases)}
    assert signs == {-1, 0, 1}
    for a in cases:
        assert _linalg.int_det(a) == _det_int(a), a
    assert _linalg.int_det([]) == 1


def test_int_solve_through_zero_leading_minors_and_negative_determinants():
    rng = random.Random(22)
    negative = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        a = _zero_leading_minor(rng, n)
        det = _det_int(a)
        rhs = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        if det == 0:
            assert _linalg.int_solve(a, rhs) is None
            continue
        negative += det < 0
        nums, den = _linalg.int_solve(a, rhs)
        assert den == abs(det)
        oracle = oracle_solve(a, rhs)
        assert [[F(v, den) for v in x] for x in nums] == oracle, (a, rhs)
    assert negative >= 50
    for _ in range(100):
        n = rng.randint(2, 6)
        a = _zero_column(rng, n)
        assert _linalg.int_solve(a, [[rng.randint(-6, 6) for _ in range(n)]]) is None, a


def _first_nonpositive_minor(a):
    return next((k for k in range(1, len(a) + 1) if _leading_minor(a, k) <= 0), None)


def test_int_ldl_stops_at_the_first_nonpositive_leading_minor():
    # symmetric matrices whose leading k x k block is C^T C: singular when
    # the last column of C is the sum of the others (a zero minor; where the
    # whole matrix is not singular, elimination swaps a row in there), or
    # with its last diagonal entry lowered (often a negative minor)
    rng = random.Random(23)
    seen = {"swap": 0, "negative": 0}
    for _ in range(400):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        c = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k + 1)]
        zero = rng.random() < 0.5
        if zero:
            for row in c:
                row[-1] = sum(row[:-1])
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                a[i][j] = sum(r[i] * r[j] for r in c) if i < k and j < k else a[min(i, j)][max(i, j)]
        if not zero:
            a[k - 1][k - 1] -= rng.randint(0, 40)
        index = _first_nonpositive_minor(a)
        if index is None:
            assert [row[i] for i, row in enumerate(_linalg.int_ldl(a)[0])] == [
                _leading_minor(a, i) for i in range(1, n + 1)]
            continue
        if _leading_minor(a, index) < 0:
            seen["negative"] += 1
        elif _det_int(a) != 0:
            seen["swap"] += 1
        with pytest.raises(_linalg.NonPositivePivot) as info:
            _linalg.int_ldl(a)
        assert info.value.index == index, a
    assert seen["swap"] >= 50 and seen["negative"] >= 50, seen
    # a zero row and column, or a copy of an earlier one, before a nonzero
    # one: elimination skips that column
    at_copy = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 1)]
        a = [[sum(r[i] * r[j] for r in c) for j in range(n)] for i in range(n)]
        j = rng.randrange(n - 1)
        i = rng.randrange(j + 1)
        source = [0] * n if i == j else a[i][:]
        for k in range(n):
            a[j][k] = a[k][j] = source[k]
        a[j][j] = source[i]
        with pytest.raises(_linalg.NonPositivePivot) as info:
            _linalg.int_ldl(a)
        assert info.value.index == _first_nonpositive_minor(a), a
        at_copy += info.value.index == j + 1
    assert at_copy >= 50, at_copy
