"""Exact dense linear algebra over the rationals and integers.

Everything in this package runs at desk scale (matrix sizes bounded by the
lattice rank plus a handful of graph nodes), so these routines optimize for
exactness and determinism, not asymptotics.  Determinants, solves, the LDL
form and ranks read one fraction-free (Bareiss) forward elimination,
``_eliminate``, which brings any integer rows to echelon form, skips a
column with no pivot and returns the rank; a solve then finishes by
fraction-free back substitution, for every right-hand side at once.
Rational input is scaled to integers first (``integer_row``) so that the
hot paths stay in plain ``int`` arithmetic.
"""

from __future__ import annotations

from math import lcm


class NonPositivePivot(Exception):
    """Raised by ``int_ldl`` at the first leading principal minor <= 0;
    carries its 1-based index."""

    def __init__(self, index: int):
        super().__init__(f"pivot {index} is not positive")
        self.index = index


def _eliminate(m: list[list[int]], n: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) echelon form of the first ``n`` columns of
    the integer rows ``m``, in place; longer rows carry their extra entries
    along.  Every division is exact.  A column whose entries at and below
    the current row are all zero is skipped, and the row stays for the next
    column; otherwise a zero pivot swaps in the first lower row that is
    nonzero in its column.  Without skips or swaps, ``m[k][k]`` is the
    leading principal minor of order k + 1; the rows past the rank end up
    zero in the first ``n`` columns.  Returns ``(rank, sign)``: the number
    of pivots and the sign of the row swaps."""
    rank, sign, prev = 0, 1, 1
    rows = len(m)
    for k in range(n):
        if rank == rows:
            break
        row_k = m[rank]
        if row_k[k] == 0:
            for i in range(rank + 1, rows):
                if m[i][k] != 0:
                    m[rank], m[i] = m[i], row_k
                    row_k = m[rank]
                    sign = -sign
                    break
            else:
                continue
        pivot = row_k[k]
        width = len(row_k)
        for i in range(rank + 1, rows):
            row_i = m[i]
            f = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
        rank += 1
    return rank, sign


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the swap sign times the
    last entry after ``_eliminate``, its last pivot or 0."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    return _eliminate(m, n)[1] * m[n - 1][n - 1]


def int_solve(a: list[list[int]], rhs: list[list[int]]) -> tuple[list[list[int]], int] | None:
    """Solve a square integer system for several right-hand sides at once:
    ``_eliminate`` on ``[a | b_1 ... b_k]`` (``rhs`` lists the ``b_c``), then
    fraction-free back substitution.  With ``d`` the last pivot, ``d x_c[i]``
    is an integer (Cramer's rule), so each division is exact.  Returns
    ``(nums, den)`` with ``den = |det(a)| > 0`` and ``x_c[i] = nums[c][i] /
    den``, or ``None`` if the matrix is singular."""
    n = len(a)
    m = [a[r] + [b[r] for b in rhs] for r in range(n)]
    if _eliminate(m, n)[0] < n:
        return None
    d = m[n - 1][n - 1] if n else 1
    nums = []
    for c in range(n, n + len(rhs)):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            s = d * row[c]
            for j in range(i + 1, n):
                s -= row[j] * x[j]
            x[i] = s // row[i]
        nums.append(x)
    if d < 0:
        nums = [[-v for v in x] for x in nums]
        d = -d
    return nums, d


def int_ldl(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free LDL of a symmetric integer matrix A: ``_eliminate``,
    read without row swaps.  Returns ``(u, w, W)`` with ``x^T A x =
    sum_k w[k] (sum_{j>=k} u[k][j] x_j)^2 / W``, where the pivot ``u[k][k]``
    is the leading minor ``D_{k+1}`` and ``w[k] = W / (D_k D_{k+1})``.
    Raises :class:`NonPositivePivot` at the first pivot <= 0.  A swap or a
    skipped column happens only at a zero leading minor, and leaves a
    swapped-in row or a zero pivot at its index."""
    u = [list(row) for row in rows]
    order = u[:]
    _eliminate(u, len(u))
    minors = [1]
    for k, row in enumerate(u):
        if row is not order[k] or row[k] <= 0:
            raise NonPositivePivot(k + 1)
        minors.append(row[k])
    pairs = [minors[k] * minors[k + 1] for k in range(len(u))]
    scale = lcm(*pairs)
    return u, [scale // p for p in pairs], scale


def int_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix: the pivots of ``_eliminate``."""
    return _eliminate([list(row) for row in rows], len(rows[0]) if rows else 0)[0]


def integer_row(values) -> tuple[list[int], int]:
    """Scale ints and Fractions by the lcm of their denominators:
    ``(ints, lcm)``."""
    # Pairwise, not lcm(*...): on CPython 3.11 star-call argument tuples
    # piled up in the tuple free lists, ~1 MB per tau-resistance pass.
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den

