"""Exact rational Gram-lattice arithmetic.

A lattice of rank g is presented by a symmetric positive definite Gram
matrix G with rational entries.  Lattice vectors are integer coordinate
tuples with respect to the implicit basis, ambient points are rational
coordinate tuples, and the inner product of ambient points x, y is
x^T G y, exact: summed in integers on A below and divided once.

Each lattice holds G once as integer rows A = den G and their
fraction-free LDL (``_linalg.int_ldl``).  Closest-vector queries run a
Schnorr-Euchner branch and bound on the LDL in integers, so results
(including ties) are certified.  Voronoi relevant vectors are found by
the classical coset criterion: a nonzero v is relevant iff +-v are the
unique minimizers of the squared norm in the coset v + 2Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import inf
from operator import mul

from . import _linalg

__all__ = [
    "GramLattice",
    "LatticeError",
    "NotSymmetricError",
    "NotPositiveDefiniteError",
    "DimensionMismatchError",
    "validate",
    "inner",
    "norm_sq",
    "closest_vector",
    "closest_vectors_all",
    "relevant_vectors",
]


class LatticeError(ValueError):
    pass


class NotSymmetricError(LatticeError):
    pass


class NotPositiveDefiniteError(LatticeError):
    """Raised with the 1-based index of the first failing leading minor."""

    def __init__(self, minor_index: int):
        super().__init__(
            f"matrix is not positive definite "
            f"(leading principal minor {minor_index} is not positive)"
        )
        self.minor_index = minor_index


class DimensionMismatchError(LatticeError):
    pass


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise LatticeError(f"irrational/float entry {value!r} rejected; use p/q")
    return Fraction(value)


@dataclass(frozen=True)
class GramLattice:
    """A rank-g free lattice with a positive definite rational Gram matrix,
    also held as integer rows ``_int_gram`` = ``_den`` G and their ``_int_ldl``."""

    rank: int
    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        g = self.rank
        if g < 1:
            raise LatticeError("rank must be >= 1")
        if len(self.gram) != g or any(len(row) != g for row in self.gram):
            raise DimensionMismatchError(f"gram matrix is not {g}x{g}")
        for i in range(g):
            for j in range(i + 1, g):
                if self.gram[i][j] != self.gram[j][i]:
                    raise NotSymmetricError(
                        f"gram[{i}][{j}] != gram[{j}][{i}]"
                    )
        flat, den = _linalg.integer_row([x for row in self.gram for x in row])
        rows = [flat[i:i + g] for i in range(0, g * g, g)]
        try:
            ldl = _linalg.int_ldl(rows)
        except _linalg.NonPositivePivot as exc:
            raise NotPositiveDefiniteError(exc.index) from None
        object.__setattr__(self, "_int_gram", rows)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_int_ldl", ldl)

    @cached_property
    def _relevant(self) -> tuple[tuple[int, ...], ...]:
        return _relevant_vectors_uncached(self)


def validate(gram) -> GramLattice:
    """Build a :class:`GramLattice` from a square matrix of rationals.

    Entries may be ints, Fractions, or strings such as ``"3/4"``; floats
    are rejected (the forms handled here are rational by construction).
    """
    rows = [list(r) for r in gram]
    g = len(rows)
    if g == 0 or any(len(r) != g for r in rows):
        raise DimensionMismatchError("gram matrix must be square and nonempty")
    frac = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
    return GramLattice(rank=g, gram=frac)


def _check_point(lat: GramLattice, x) -> tuple[Fraction, ...]:
    # a point checked once passes again at the cost of a copy: only the
    # coordinates that are not already Fractions are converted
    pt = tuple(c if type(c) is Fraction else Fraction(c) for c in x)
    if len(pt) != lat.rank:
        raise DimensionMismatchError(
            f"point has length {len(pt)}, lattice rank is {lat.rank}"
        )
    return pt


def _gram_image(lat: GramLattice, v) -> list[int]:
    """A v = den G v for an integer vector v."""
    return [sum(map(mul, row, v)) for row in lat._int_gram]


def inner(lat: GramLattice, x, y) -> Fraction:
    """Exact inner product x^T G y of two ambient points."""
    xs, mx = _linalg.integer_row(_check_point(lat, x))
    ys, my = _linalg.integer_row(_check_point(lat, y))
    return Fraction(sum(map(mul, xs, _gram_image(lat, ys))), lat._den * mx * my)


def norm_sq(lat: GramLattice, x) -> Fraction:
    """Squared norm x^T G x."""
    return inner(lat, x, x)


def _covering_box_sq(lat: GramLattice) -> list[Fraction]:
    """Squared half-widths (G^-1)_ii * rho^2 of the quadrature's candidate box
    around the Voronoi cell: rho^2 = (g/4) trace(G) bounds the covering
    radius, and Cauchy-Schwarz gives x_i^2 <= (G^-1)_ii * |x|^2."""
    g = lat.rank
    a = lat._int_gram
    identity = [[int(i == j) for j in range(g)] for i in range(g)]
    nums, det = _linalg.int_solve(a, identity)
    # G = A / den, so (G^-1)_ii rho^2 = (A^-1)_ii (g/4) trace(A).
    trace = sum(a[i][i] for i in range(g))
    return [Fraction(nums[i][i] * g * trace, 4 * det) for i in range(g)]


def closest_vectors_all(lat: GramLattice, point) -> tuple[Fraction, list[tuple[int, ...]]]:
    """All lattice vectors minimizing the squared distance to ``point``.

    Returns ``(min_dist_sq, minimizers)`` with the minimizers sorted
    lexicographically.  Branch and bound over the integer LDL form; budget
    comparisons are non-strict so exact ties are all collected.
    """
    t = _check_point(lat, point)
    g = lat.rank
    rows, weights, scale = lat._int_ldl
    s, m = _linalg.integer_row(t)
    # With y = m u - s, |u - t|^2 = sum_k w_k (U_k . y)^2 / (den W m^2) and
    # U_k . y = a u_k - b, a = m D_{k+1}, b = D_{k+1} s_k - sum_{j>k} U[k][j] y_j.
    best = inf  # the first leaf reached is the nearest-plane point
    sols: list[tuple[int, ...]] = []
    u = [0] * g
    y = [0] * g

    def descend(level: int, acc: int):
        nonlocal best, sols
        if level < 0:
            if acc < best:
                best = acc
                sols = [tuple(u)]
            elif acc == best:
                sols.append(tuple(u))
            return
        row = rows[level]
        pivot = row[level]
        a = m * pivot
        b = pivot * s[level] - sum(row[j] * y[j] for j in range(level + 1, g))
        w = weights[level]
        # scan outward from the centre b / a: lo, lo+1, lo-1, lo+2, ...
        lo = b // a
        hi = lo + 1
        lo_open, hi_open = True, True
        while lo_open or hi_open:
            if lo_open and (not hi_open or b - a * lo <= a * hi - b):
                cand = lo
                lo -= 1
            else:
                cand = hi
                hi += 1
            e = a * cand - b
            term = w * e * e
            if acc + term > best:
                if e <= 0:
                    lo_open = False
                if e >= 0:
                    hi_open = False
                continue
            u[level] = cand
            y[level] = m * cand - s[level]
            descend(level - 1, acc + term)

    descend(g - 1, 0)
    sols.sort()
    return Fraction(best, lat._den * scale * m * m), sols


def closest_vector(lat: GramLattice, point) -> tuple[int, ...]:
    """Lattice vector closest to ``point``; ties break lexicographically."""
    _, sols = closest_vectors_all(lat, point)
    return sols[0]


def _relevant_vectors_uncached(lat: GramLattice) -> tuple[tuple[int, ...], ...]:
    g = lat.rank
    found: list[tuple[Fraction, tuple[int, ...]]] = []
    for parity in product((0, 1), repeat=g):
        if not any(parity):
            continue
        # Minimize ||c + 2u||^2 = 4 ||u - (-c/2)||^2 over integer u.
        target = tuple(Fraction(-p, 2) for p in parity)
        dist, sols = closest_vectors_all(lat, target)
        if len(sols) == 2:
            for u in sols:
                v = tuple(parity[i] + 2 * u[i] for i in range(g))
                found.append((4 * dist, v))
    found.sort()
    return tuple(v for _, v in found)


def relevant_vectors(lat: GramLattice) -> tuple[tuple[int, ...], ...]:
    """The Voronoi relevant vectors, sorted by squared norm then lex.

    Output is closed under negation and has at most 2*(2^g - 1) members;
    every facet of the Voronoi cell around the origin is supported by
    exactly one of them.
    """
    return lat._relevant
