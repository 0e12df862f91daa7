"""Exact rational Gram-lattice arithmetic.

A lattice of rank g is presented by a symmetric positive definite Gram
matrix G with rational entries.  Lattice vectors are integer coordinate
tuples with respect to the implicit basis, ambient points are rational
coordinate tuples, and the inner product of ambient points x, y is
x^T G y, evaluated exactly in ``fractions.Fraction`` arithmetic.

Closest-vector queries run a Fincke-Pohst style branch and bound over the
square-root-free Cholesky decomposition of G; all comparisons are between
exact squared norms, so results (including ties) are certified.  Voronoi
relevant vectors are found by the classical coset criterion: a nonzero v
is relevant iff +-v are the unique minimizers of the squared norm in the
coset v + 2Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import floor

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
    """A rank-g free lattice with a positive definite rational Gram matrix."""

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
        # Positive definiteness: LDL pivots are ratios of leading minors.
        try:
            _linalg.ldl(self.gram)
        except _linalg.NonPositivePivot as exc:
            raise NotPositiveDefiniteError(exc.index) from None

    @cached_property
    def _ldl(self) -> tuple[list[Fraction], list[list[Fraction]]]:
        return _linalg.ldl(self.gram)

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
    pt = tuple(Fraction(c) for c in x)
    if len(pt) != lat.rank:
        raise DimensionMismatchError(
            f"point has length {len(pt)}, lattice rank is {lat.rank}"
        )
    return pt


def inner(lat: GramLattice, x, y) -> Fraction:
    """Exact inner product x^T G y of two ambient points."""
    xs = _check_point(lat, x)
    ys = _check_point(lat, y)
    total = Fraction(0)
    for i, xi in enumerate(xs):
        if xi:
            row = lat.gram[i]
            total += xi * sum(row[j] * ys[j] for j in range(lat.rank))
    return total


def norm_sq(lat: GramLattice, x) -> Fraction:
    """Squared norm x^T G x."""
    return inner(lat, x, x)


def _covering_box_sq(lat: GramLattice) -> list[Fraction]:
    """Squared half-widths (G^-1)_ii * rho^2 of a coordinate box around the
    Voronoi cell: rho^2 = (g/4) trace(G) bounds the covering radius, and
    Cauchy-Schwarz gives x_i^2 <= (G^-1)_ii * |x|^2."""
    g = lat.rank
    rho_sq = Fraction(g, 4) * sum(lat.gram[i][i] for i in range(g))
    identity = [[int(i == j) for j in range(g)] for i in range(g)]
    inverse = _linalg.solve(lat.gram, identity)
    return [inverse[i][i] * rho_sq for i in range(g)]


def closest_vectors_all(lat: GramLattice, point) -> tuple[Fraction, list[tuple[int, ...]]]:
    """All lattice vectors minimizing the squared distance to ``point``.

    Returns ``(min_dist_sq, minimizers)`` with the minimizers sorted
    lexicographically.  Branch and bound over the LDL form; budget
    comparisons are non-strict so exact ties are all collected.
    """
    t = _check_point(lat, point)
    g = lat.rank
    d, l = lat._ldl

    # Feasible incumbent: componentwise rounding of the target.
    u0 = tuple(floor(c + Fraction(1, 2)) for c in t)
    diff0 = [Fraction(u0[i]) - t[i] for i in range(g)]
    best = Fraction(0)
    for i in range(g):
        s = diff0[i] + sum(l[i][j] * diff0[j] for j in range(i + 1, g))
        best += d[i] * s * s

    sols: list[tuple[int, ...]] = []
    u = [0] * g
    y = [Fraction(0)] * g  # y[i] = u[i] - t[i] for fixed levels

    def descend(level: int, acc: Fraction):
        nonlocal best, sols
        if level < 0:
            if acc < best:
                best = acc
                sols = [tuple(u)]
            elif acc == best:
                sols.append(tuple(u))
            return
        # center: term is d[level] * (u - c)^2 with c below
        shift = sum(l[level][j] * y[j] for j in range(level + 1, g))
        c = t[level] - shift
        dlev = d[level]
        base = floor(c)
        # scan outward: base, base+1, base-1, base+2, ...
        lo, hi = base, base + 1
        lo_open, hi_open = True, True
        while lo_open or hi_open:
            if lo_open and (not hi_open or (c - lo) <= (hi - c)):
                cand = lo
                lo -= 1
            elif hi_open:
                cand = hi
                hi += 1
            else:
                break
            delta = Fraction(cand) - c
            term = dlev * delta * delta
            if acc + term > best:
                if cand <= c:
                    lo_open = False
                if cand >= c:
                    hi_open = False
                continue
            u[level] = cand
            y[level] = Fraction(cand) - t[level]
            descend(level - 1, acc + term)
        u[level] = 0
        y[level] = Fraction(0)

    descend(g - 1, Fraction(0))
    sols.sort()
    return best, sols


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
