"""The Voronoi cell at the origin: exact H/V representations, volume, and
the normalized second moment.

The cell of a Gram lattice G is cut out by one half-space per Voronoi
relevant vector u:  [u, x] <= [u, u] / 2.  Vertices are recovered exactly
over Q.  Two enumeration paths are used:

* exhaustive rank-many subsets of facets (fraction-free integer solves),
  when the number of subsets is small, and
* an exact double-description sweep starting from a certified bounding
  box, for cells with many facets (rank-5 graph Jacobians already reach
  62 facets, where the subset count is in the millions).

Volumes and moments are computed in coordinate Lebesgue measure over a
star triangulation: origin cone over facet triangulations, each face
starred recursively from its lexicographically least vertex.  The metric
Jacobian sqrt(det G) cancels in the normalized moment, so it never
appears.  The per-simplex closed form

    integral over S of x^T G x  =  vol(S) / ((g+1)(g+2)) *
        ( sum_i [v_i, v_i]  +  sum_{i,j} [v_i, v_j] )

follows from the barycentric moments E[t_i t_j] = (1 + delta_ij) /
((g+1)(g+2)) on a g-simplex; the origin vertex adds nothing.  Each cell
is scaled to integers and validated once, and its integer sums are divided
once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb, factorial, isqrt

from . import _linalg
from .lattice import GramLattice, _covering_box_sq, norm_sq, relevant_vectors

__all__ = [
    "HalfSpace",
    "Polytope",
    "Simplex",
    "DegeneratePolytopeError",
    "voronoi_cell",
    "volume",
    "second_moment",
    "star_triangulation",
]

# Beyond this many facet subsets, vertex enumeration switches from
# exhaustive subset solving to double description.
_SUBSET_LIMIT = 5000


class DegeneratePolytopeError(ValueError):
    pass


@dataclass(frozen=True)
class HalfSpace:
    """Constraint [normal, x] <= offset with offset = [normal, normal]/2.

    ``row`` is the coordinate functional G @ normal, so the constraint
    reads row . x <= offset in plain coordinates.
    """

    normal: tuple[int, ...]
    row: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        if not any(self.normal):
            raise ValueError("half-space normal must be nonzero")
        if self.offset <= 0:
            raise ValueError("half-space offset must be positive")


@dataclass(frozen=True)
class Simplex:
    """Affinely independent vertex tuple; triangulation carrier."""

    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if _linalg.affine_rank(self.vertices) != len(self.vertices) - 1:
            raise ValueError("simplex vertices are affinely dependent")


@dataclass(frozen=True)
class Polytope:
    """H- and V-representation.  ``__post_init__`` validates the vertices in
    one pass, keeping them as integer rows ``_scaled`` over one denominator
    ``_den`` and their tight facets as bitmasks ``_tight_masks``."""

    halfspaces: tuple[HalfSpace, ...]
    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        dim = len(self.halfspaces[0].row)
        flat, den = _linalg.integer_row([c for v in self.vertices for c in v])
        scaled = tuple(tuple(flat[i:i + dim]) for i in range(0, len(flat), dim))
        a, b = _integer_constraints(self.halfspaces)
        constraints = [(row, off * den) for row, off in zip(a, b)]
        masks = []
        for v, x in zip(self.vertices, scaled):
            mask = 0
            for k, (row, off) in enumerate(constraints):
                val = sum(r * c for r, c in zip(row, x))
                if val > off:
                    raise ValueError(f"vertex {v} violates a half-space")
                if val == off:
                    mask |= 1 << k
            if mask.bit_count() < dim:
                raise ValueError(f"vertex {v} is tight on fewer than {dim} facets")
            masks.append(mask)
        if len(set(scaled)) != len(scaled):
            raise ValueError("vertex list has duplicates")
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_tight_masks", tuple(masks))

    @property
    def dim(self) -> int:
        return len(self.halfspaces[0].row)

    @cached_property
    def _star(self) -> tuple[tuple[int, ...], ...]:
        return _star_facet_simplices(self)

    @cached_property
    def _dets(self) -> tuple[int, ...]:
        return tuple(abs(_linalg.int_det([self._scaled[i] for i in s]))
                     for s in self._star)


def _integer_constraints(halfspaces) -> tuple[list[list[int]], list[int]]:
    """Scale each constraint to integers; a positive row scale changes
    neither the half-space nor any solve or sign test below."""
    rows = [_linalg.integer_row(hs.row + (hs.offset,))[0] for hs in halfspaces]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def _vertices_by_subsets(a, b, g) -> set[tuple[Fraction, ...]]:
    m = len(a)
    verts: set[tuple[Fraction, ...]] = set()
    for subset in combinations(range(m), g):
        sol = _linalg.int_solve([a[i] for i in subset], [[b[i] for i in subset]])
        if sol is None:
            continue
        (nums,), den = sol
        feasible = True
        for k in range(m):
            lhs = sum(a[k][j] * nums[j] for j in range(g))
            if lhs > b[k] * den:
                feasible = False
                break
        if feasible:
            verts.add(tuple(Fraction(x, den) for x in nums))
    return verts


def _certified_box_bound(lat: GramLattice) -> list[int]:
    """Integer coordinate bounds B with Vor(0) strictly inside [-B, B]^g."""
    return [isqrt(s.numerator // s.denominator) + 1 for s in _covering_box_sq(lat)]


def _vertices_dd(a, b, g, box: list[int]) -> set[tuple[Fraction, ...]]:
    """Double description: clip a certified bounding box by each facet."""
    m = len(a)
    # Global constraint rows indexed by bit: 0..m-1 facets, then 2g box rows.
    rows = [list(r) for r in a]
    for i in range(g):
        rows.append([1 if j == i else 0 for j in range(g)])
        rows.append([-1 if j == i else 0 for j in range(g)])

    verts: list[tuple[Fraction, ...]] = []
    masks: list[int] = []
    for corner in product((1, -1), repeat=g):
        verts.append(tuple(Fraction(corner[i] * box[i]) for i in range(g)))
        mask = 0
        for i in range(g):
            bit = m + 2 * i + (0 if corner[i] == 1 else 1)
            mask |= 1 << bit
        masks.append(mask)

    def tight_mask(x, upto: int) -> int:
        mask = 0
        for k in range(upto):
            if sum(a[k][j] * x[j] for j in range(g)) == b[k]:
                mask |= 1 << k
        for i in range(g):
            if x[i] == box[i]:
                mask |= 1 << (m + 2 * i)
            elif x[i] == -box[i]:
                mask |= 1 << (m + 2 * i + 1)
        return mask

    for k in range(m):
        vals = [b[k] - sum(a[k][j] * v[j] for j in range(g)) for v in verts]
        if all(val >= 0 for val in vals):
            for i, val in enumerate(vals):
                if val == 0:
                    masks[i] |= 1 << k
            continue
        pos = [i for i, val in enumerate(vals) if val > 0]
        zero = [i for i, val in enumerate(vals) if val == 0]
        neg = [i for i, val in enumerate(vals) if val < 0]
        new: dict[tuple[Fraction, ...], int] = {}
        for ip in pos:
            mp = masks[ip]
            vp = vals[ip]
            for im in neg:
                common = mp & masks[im]
                if common.bit_count() < g - 1:
                    continue
                if _linalg.int_rank([rows[j] for j in _bits(common)]) != g - 1:
                    continue
                t = vp / (vp - vals[im])
                x = tuple(
                    verts[ip][j] + t * (verts[im][j] - verts[ip][j])
                    for j in range(g)
                )
                if x not in new:
                    new[x] = tight_mask(x, k + 1)
        next_verts = [verts[i] for i in pos] + [verts[i] for i in zero]
        next_masks = [masks[i] for i in pos] + [masks[i] | 1 << k for i in zero]
        for x, mask in new.items():
            if x not in next_verts:
                next_verts.append(x)
                next_masks.append(mask)
        verts, masks = next_verts, next_masks

    box_bits = ((1 << (2 * g)) - 1) << m
    if any(mask & box_bits for mask in masks):
        raise RuntimeError("bounding box was not certified; a cell vertex touched it")
    return set(verts)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def voronoi_cell(lat: GramLattice) -> Polytope:
    """H- and V-representation of the Voronoi cell centered at the origin."""
    g = lat.rank
    halfspaces = tuple(
        HalfSpace(
            normal=u,
            row=tuple(
                sum(lat.gram[i][j] * u[j] for j in range(g)) for i in range(g)
            ),
            offset=Fraction(norm_sq(lat, u), 2),
        )
        for u in relevant_vectors(lat)
    )
    a, b = _integer_constraints(halfspaces)
    if comb(len(halfspaces), g) <= _SUBSET_LIMIT:
        verts = _vertices_by_subsets(a, b, g)
    else:
        verts = _vertices_dd(a, b, g, _certified_box_bound(lat))
    return Polytope(halfspaces=halfspaces, vertices=tuple(sorted(verts)))


def _star_facet_simplices(poly: Polytope) -> tuple[tuple[int, ...], ...]:
    """Triangulate every facet; each returned tuple holds vertex indices of
    one (g-1)-simplex, to be coned with the origin by the callers."""
    g = poly.dim
    masks = poly._tight_masks
    points = poly._scaled
    cache: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def tri(face: frozenset[int], d: int) -> list[tuple[int, ...]]:
        if face in cache:
            return cache[face]
        ids = sorted(face)
        if d == 0:
            assert len(ids) == 1
            out = [(ids[0],)]
        elif d == 1:
            assert len(ids) == 2
            out = [tuple(ids)]
        else:
            apex = min(ids, key=points.__getitem__)
            out = []
            seen: set[frozenset[int]] = set()
            face_mask = masks[ids[0]]
            for i in ids[1:]:
                face_mask &= masks[i]
            for k in range(len(poly.halfspaces)):
                bit = 1 << k
                if face_mask & bit:
                    continue
                sub = frozenset(i for i in ids if masks[i] & bit)
                if not sub or apex in sub or sub in seen:
                    continue
                if _linalg.affine_rank([points[i] for i in sub]) != d - 1:
                    continue
                seen.add(sub)
                for s in tri(sub, d - 1):
                    out.append(s + (apex,))
        cache[face] = out
        return out

    simplices: list[tuple[int, ...]] = []
    for k in range(len(poly.halfspaces)):
        bit = 1 << k
        facet = frozenset(i for i in range(len(points)) if masks[i] & bit)
        if _linalg.affine_rank([points[i] for i in facet]) != g - 1:
            raise DegeneratePolytopeError(f"half-space {k} does not support a facet")
        simplices.extend(tri(facet, g - 1))
    return tuple(simplices)


def star_triangulation(poly: Polytope) -> tuple[Simplex, ...]:
    """Star triangulation of the cell from the origin; origin comes first
    in every simplex."""
    g = poly.dim
    origin = tuple(Fraction(0) for _ in range(g))
    return tuple(
        Simplex(vertices=(origin,) + tuple(poly.vertices[i] for i in s))
        for s in poly._star
    )


def volume(poly: Polytope) -> Fraction:
    """Coordinate-Lebesgue volume via the origin star triangulation."""
    g = poly.dim
    if _linalg.affine_rank(poly._scaled) != g:
        raise DegeneratePolytopeError("polytope is not full-dimensional")
    return Fraction(sum(poly._dets), factorial(g) * poly._den ** g)


def second_moment(lat: GramLattice) -> Fraction:
    """Normalized second moment of the Voronoi cell.

    Exact rational: sum of per-simplex integrals of the squared norm,
    divided by the total coordinate volume of the cell (which is 1, since
    the cells tile coordinate space with one lattice point per cell; the
    division is kept so the normalization is explicit).
    """
    poly = voronoi_cell(lat)
    g = lat.rank
    flat, gram_den = _linalg.integer_row([x for row in lat.gram for x in row])
    gram = [flat[i:i + g] for i in range(0, g * g, g)]
    images = [[sum(r * c for r, c in zip(row, x)) for row in gram] for x in poly._scaled]
    inner = [[sum(r * c for r, c in zip(x, y)) for y in images] for x in poly._scaled]
    total_det = sum(poly._dets)
    total_mom = sum(det * (sum(inner[i][i] for i in s) + sum(inner[i][j] for i in s for j in s))
                    for s, det in zip(poly._star, poly._dets))
    if total_det == 0:
        raise DegeneratePolytopeError("voronoi cell has zero volume")
    return Fraction(total_mom, (g + 1) * (g + 2) * poly._den ** 2 * gram_den * total_det)
