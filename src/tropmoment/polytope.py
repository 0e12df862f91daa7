"""The Voronoi cell at the origin: exact H/V representations, volume, and
the normalized second moment.

The cell of a Gram lattice G is cut out by one half-space per Voronoi
relevant vector u:  [u, x] <= [u, u] / 2.  The relevant vectors come in
pairs +-u, and the cell is centrally symmetric; every step below uses
this, in one code path.

Vertices are recovered exactly over Q by one double-description sweep
(Fukuda & Prodon 1996).  It starts from the parallelotope cut out by the
first g pairs of facets, in order, with independent normals (its 2^g
corners are the signed sums of the columns of A^-1 diag(b) on those facets)
and clips it by each other facet a_k . x <= b_k, on primitive integer
homogeneous vertices (x, w), w > 0, whose slack is b_k w - a_k . x.  An
edge (p, m) with slacks s_p > 0 > s_m is cut at the vertex
s_p v_m - s_m v_p, divided by its gcd.  Every earlier slack of that vertex
is the same positive combination of the slacks of p and m, both >= 0, so it
is zero exactly when both are: the new vertex is tight on
(mask_p & mask_m) | bit k and on nothing else so far.  The facets of a pair
+-u are clipped in one step.  The start is symmetric and the facets come in
pairs, so the polytope before each step is symmetric: the vertices cut on
-u are the negations of those cut on u, and are tight on the mirror of
their mask (each facet bit sent to that of its negation).  A vertex is kept
when its slacks s on u and 2 b_k w - s on -u are both >= 0, so the edges
are searched once per pair.  Only ``Polytope.vertices`` is in Q.  The
sweep may hold at most VERTEX_BUDGET vertices at once; a rank whose 2^g
start corners already exceed it is refused before the relevant vectors
are searched.

Volumes and moments are computed in coordinate Lebesgue measure over a
star triangulation: origin cone over facet triangulations, each face
starred recursively from its lowest-indexed vertex (the lexicographically
least, as voronoi_cell sorts them).  Faces are vertex bitmasks, found from
the vertex-facet incidences alone: the facets of a face F are the
inclusion-maximal proper, nonempty intersections of F with the facets of
the cell (Ziegler, Lectures on Polytopes, 2.1), and a d-face with d + 1
vertices is a simplex.  Only one facet of each pair is triangulated (the
half star): ``_mirrors`` pairs a_k . x <= b_k with -a_k . x <= b_k on the
integer rows, and the later facet of each pair is triangulated.  The
negations of its simplices triangulate the other, with the same
volumes and, x^T G x being even, the same moments: the sums over the cell
are twice those over the half star, and the 2 cancels in I.  The metric
Jacobian sqrt(det G) cancels in the normalized moment, so it never
appears.  The per-simplex closed form

    integral over S of x^T G x  =  vol(S) / ((g+1)(g+2)) *
        ( sum_i [v_i, v_i]  +  [w, w] ),   w = sum_i v_i,

follows from the barycentric moments E[t_i t_j] = (1 + delta_ij) /
((g+1)(g+2)) on a g-simplex; the origin vertex adds nothing.  It needs the
norms of the vertices and one Gram product per simplex, and no table of
vertex pairs.  Each cell is scaled to integers and validated once, and its
integer sums are divided once, at the end.

Each fact about a cell is checked once, in integers: ``Polytope._index``
checks its vertices, with one product per facet pair +-u, and builds
``_facets``, ``_negation`` (the index of -v, or None) and ``_mirror``
(``_mirrors`` of its integer rows).  The half star reads them: it checks
that every half-space supports a facet, that the vertices are closed under
negation, that ``_mirror`` pairs every half-space, and that no simplex is
flat.  The cell is then full-dimensional (0 is the midpoint of v and -v)
and every pair adds a positive volume, so nothing else checks either.

Each lattice keeps the cell ``voronoi_cell`` built for it, and each cell
keeps its half star and its second moment, so ``volume``, ``second_moment``
and ``star_triangulation`` of one cell triangulate it once, and the moment
is summed once.  Both live as long as the object that keeps them; a build
that fails, say over VERTEX_BUDGET, keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial, gcd, lcm
from operator import mul

from . import _linalg
from .lattice import GramLattice, _as_fraction, _gram_image, relevant_vectors

__all__ = [
    "HalfSpace",
    "Polytope",
    "DegeneratePolytopeError",
    "VertexBudgetError",
    "voronoi_cell",
    "volume",
    "second_moment",
    "star_triangulation",
]

# Most vertices double description may hold at once (D5 peaks at 54, E6 at 142, E7 at 632).
VERTEX_BUDGET = 10**5


class DegeneratePolytopeError(ValueError):
    pass


class VertexBudgetError(ValueError):
    """Double description would hold more than VERTEX_BUDGET vertices."""


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


@dataclass(frozen=True, init=False)
class Polytope:
    """H- and V-representation.  ``_index``, the one check, validates the
    vertices as integer rows ``_scaled`` over one denominator ``_den`` and
    keeps each half-space's tight vertices as the bitmask ``_facets[k]`` (bit
    i for vertex i), the index ``_negation[i]`` of -v_i (or None) and
    ``_mirror = _mirrors(a, b)``.  ``Polytope(halfspaces, vertices)`` scales
    its vertices for it, and ``voronoi_cell`` hands it the rows of double
    description.  The half star reads them and checks the rest."""

    halfspaces: tuple[HalfSpace, ...]
    vertices: tuple[tuple[Fraction, ...], ...]

    def __init__(self, halfspaces, vertices):
        dim = len(halfspaces[0].row) if halfspaces else 0
        if not dim or any(len(hs.normal) != dim or len(hs.row) != dim for hs in halfspaces):
            raise ValueError("half-spaces must be nonempty and of one dimension")
        if any(len(v) != dim for v in vertices):
            raise ValueError(f"every vertex must have {dim} coordinates")
        flat, den = _linalg.integer_row([_as_fraction(c) for v in vertices for c in v])
        scaled = [tuple(flat[i:i + dim]) for i in range(0, len(flat), dim)]
        self._index(halfspaces, scaled, den, *_integer_constraints(halfspaces))

    def _index(self, halfspaces, scaled, den, a, b):
        dim = len(a[0])
        vertices = tuple(tuple(Fraction(c, den) for c in x) for x in scaled)
        mirror = _mirrors(a, b)
        # One product val per mutual pair k < m (mirror[k] = m, mirror[m] = k),
        # -val on m; an unpaired or duplicated half-space keeps its own (m = None).
        mutual = [m if m not in (None, k) and mirror[m] == k else None
                  for k, m in enumerate(mirror)]
        constraints = [(row, off * den, k, m) for k, (row, off, m)
                       in enumerate(zip(a, b, mutual)) if m is None or m > k]
        facets = [0] * len(a)
        for i, (v, x) in enumerate(zip(vertices, scaled)):
            tight = 0
            for row, off, k, m in constraints:
                val = sum(map(mul, row, x))
                if val > off or m is not None and -val > off:
                    raise ValueError(f"vertex {v} violates a half-space")
                if val == off or m is not None and -val == off:
                    facets[k if val == off else m] |= 1 << i
                    tight += 1
            if tight < dim:
                raise ValueError(f"vertex {v} is tight on fewer than {dim} facets")
        index = {x: i for i, x in enumerate(scaled)}
        if len(index) != len(scaled):
            raise ValueError("vertex list has duplicates")
        negation = tuple(index.get(tuple(-c for c in x)) for x in scaled)
        self.__dict__.update(
            halfspaces=halfspaces, vertices=vertices, _scaled=tuple(scaled), _den=den,
            _facets=tuple(facets), _negation=negation, _mirror=mirror)

    @property
    def dim(self) -> int:
        return len(self.halfspaces[0].row)

    @cached_property
    def _star(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return _star_facet_simplices(self)


def _integer_constraints(halfspaces) -> tuple[list[list[int]], list[int]]:
    """Scale each constraint to integers; a positive row scale changes
    neither the half-space nor any solve or sign test below."""
    rows = [_linalg.integer_row(hs.row + (hs.offset,))[0] for hs in halfspaces]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def _mirrors(a, b) -> list[int | None]:
    """For each integer constraint a_k . x <= b_k, the index of
    -a_k . x <= b_k, or None.  This is the only rule that pairs facets."""
    index = {(tuple(row), off): k for k, (row, off) in enumerate(zip(a, b))}
    return [index.get((tuple(-c for c in row), off)) for row, off in zip(a, b)]


def _vertices_dd(a, b, g) -> tuple[list[tuple[int, ...]], int]:
    """Double description from the parallelotope of g independent facet pairs,
    on primitive integer homogeneous vertices (x, w) with w > 0.  The facets
    must come in pairs: a_k' = -a_k, b_k' = b_k.  Returns ``(rows, den)``:
    the sorted rows x den / w, den = lcm of the w, in the order of the x / w."""
    # mirror[k]: the facet of -u, so -v is tight on mirror(mask of v).
    mirror = _mirrors(a, b)
    start: list[int] = []
    for k, row in enumerate(a):
        if mirror[k] > k and _linalg.int_rank([a[j] for j in start] + [row]) > len(start):
            start.append(k)
            if len(start) == g:
                break
    # Column j solves a_start x = b_k e_j, k = start[j]; the corner of signs e
    # is their e-signed sum, tight on facet k or on its mirror as e_j is + or -.
    rhs = [[b[k] if i == j else 0 for i in range(g)] for j, k in enumerate(start)]
    cols, det = _linalg.int_solve([a[k] for k in start], rhs)
    verts: list[tuple[int, ...]] = []
    masks: list[int] = []
    for signs in product((1, -1), repeat=g):
        v = [sum(e * col[i] for e, col in zip(signs, cols)) for i in range(g)] + [det]
        d = gcd(*v)
        verts.append(tuple(c // d for c in v))
        masks.append(sum(1 << (k if e > 0 else mirror[k]) for e, k in zip(signs, start)))

    for k, (row, off) in enumerate(zip(a, b)):
        if mirror[k] < k or k in start:
            continue  # clipped together with its pair, or a start pair
        bit, mirror_bit = 1 << k, 1 << mirror[k]
        # slack b_k w - a_k . x as one dot product with (-a_k, b_k); the
        # slack on -u is b_k w + a_k . x = 2 b_k w - s
        h = [-r for r in row] + [off]
        slacks = [sum(map(mul, h, v)) for v in verts]
        pos = [i for i, s in enumerate(slacks) if s > 0]
        neg = [i for i, s in enumerate(slacks) if s < 0]
        next_verts: list[tuple[int, ...]] = []
        next_masks: list[int] = []
        for v, mask, s in zip(verts, masks, slacks):
            t = 2 * off * v[g] - s
            if s >= 0 and t >= 0:
                next_verts.append(v)
                next_masks.append(mask | (bit if s == 0 else 0) | (mirror_bit if t == 0 else 0))
        # The polytope so far is centrally symmetric (the start is, and the
        # facets come in pairs), so the vertices cut on -u are the negations
        # of those cut on u; a vertex cut on u has slack 2 b_k w > 0 on -u.
        new: dict[tuple[int, ...], int] = {}
        for ip in pos:
            sp, vp, mp = slacks[ip], verts[ip], masks[ip]
            for im in neg:
                common = mp & masks[im]
                if common.bit_count() < g - 1:
                    continue
                # The common rows vanish on p - m != 0, so their rank is at
                # most g - 1; for g <= 2 it is then exactly g - 1.
                if g > 2 and _linalg.int_rank([a[j] for j in _bits(common)]) != g - 1:
                    continue
                sm = slacks[im]
                v = [sp * cm - sm * cp for cp, cm in zip(vp, verts[im])]
                d = gcd(*v)
                new[tuple(c // d for c in v)] = common | bit
            if len(next_verts) + 2 * len(new) > VERTEX_BUDGET:
                raise VertexBudgetError(
                    f"double description needs more than {VERTEX_BUDGET} live vertices")
        for v, mask in new.items():
            next_verts += [v, tuple(-c for c in v[:g]) + (v[g],)]
            next_masks += [mask, sum(1 << mirror[j] for j in _bits(mask))]
        verts, masks = next_verts, next_masks
    den = lcm(*{v[g] for v in verts})
    return sorted(tuple(c * (den // v[g]) for c in v[:g]) for v in verts), den


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def voronoi_cell(lat: GramLattice) -> Polytope:
    """H- and V-representation of the Voronoi cell centered at the origin.

    Built once per lattice and kept on it; a build that fails keeps nothing."""
    cell = lat.__dict__.get("_cell")
    if cell is None:
        cell = _build_cell(lat)
        object.__setattr__(lat, "_cell", cell)
    return cell


def _build_cell(lat: GramLattice) -> Polytope:
    if 2**lat.rank > VERTEX_BUDGET:
        raise VertexBudgetError(
            f"double description starts from 2^{lat.rank} start corners, "
            f"more than {VERTEX_BUDGET} live vertices")
    halfspaces = []
    for u in relevant_vectors(lat):
        au = _gram_image(lat, u)
        halfspaces.append(HalfSpace(
            normal=u,
            row=tuple(Fraction(c, lat._den) for c in au),
            offset=Fraction(sum(map(mul, u, au)), 2 * lat._den),
        ))
    a, b = _integer_constraints(halfspaces)
    cell = Polytope.__new__(Polytope)
    cell._index(tuple(halfspaces), *_vertices_dd(a, b, lat.rank), a, b)
    return cell


def _star_facet_simplices(poly: Polytope) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Triangulate the later facet of each pair +-u: ``(s, |det|)`` for each
    (g-1)-simplex, where ``s`` holds vertex indices and ``det`` is the
    determinant of their integer rows, the scaled volume of the cone over
    ``s`` from the origin.  The other facet of each pair is the negation of
    its representative."""
    g = poly.dim
    points = poly._scaled
    facets = poly._facets
    for k, facet in enumerate(facets):
        # The facet's hyperplane misses the origin (offset > 0), so its points
        # span an affine (g-1)-space exactly when their rows have rank g.
        if _linalg.int_rank([points[i] for i in _bits(facet)]) != g:
            raise DegeneratePolytopeError(f"half-space {k} does not support a facet")
    if None in poly._negation:
        raise DegeneratePolytopeError("vertex set is not closed under negation")
    mirror = poly._mirror
    if any(m in (None, k) or mirror[m] != k for k, m in enumerate(mirror)):
        raise DegeneratePolytopeError("half-spaces do not pair under negation")
    cache: dict[int, list[tuple[int, ...]]] = {}

    def tri(face: int, d: int) -> list[tuple[int, ...]]:
        if face in cache:
            return cache[face]
        if face.bit_count() == d + 1:
            out = [tuple(_bits(face))]
        else:
            # The facets of a face F are the inclusion-maximal proper,
            # nonempty F & F_k; star F from its lowest-indexed vertex.
            apex_bit = face & -face
            apex = (apex_bit.bit_length() - 1,)
            subs = dict.fromkeys(s for s in (face & f for f in facets) if s and s != face)
            out = []
            for sub in subs:
                if sub & apex_bit or any(sub != t and sub | t == t for t in subs):
                    continue
                out.extend(apex + s for s in tri(sub, d - 1))
        cache[face] = out
        return out

    star = tuple((s, abs(_linalg.int_det([points[i] for i in s])))
                 for k, facet in enumerate(facets) if mirror[k] < k for s in tri(facet, g - 1))
    if any(det == 0 for _, det in star):
        raise DegeneratePolytopeError("a star simplex is flat")
    return star


def star_triangulation(poly: Polytope) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Star triangulation of the cell from the origin: each simplex is a
    tuple of vertices, the origin first.  The simplices over the
    representative facets come first, then their negations in the same
    order."""
    simplices = [s for s, _ in poly._star]
    simplices += [tuple(poly._negation[i] for i in s) for s in simplices]
    origin = (Fraction(0),) * poly.dim
    return tuple((origin,) + tuple(poly.vertices[i] for i in s) for s in simplices)


def volume(poly: Polytope) -> Fraction:
    """Coordinate-Lebesgue volume via the origin star triangulation."""
    # the negated half has the same determinants
    total_det = 2 * sum(det for _, det in poly._star)
    return Fraction(total_det, factorial(poly.dim) * poly._den ** poly.dim)


def second_moment(lat: GramLattice) -> Fraction:
    """Normalized second moment of the Voronoi cell.

    Exact rational: sum of per-simplex integrals of the squared norm,
    divided by the total coordinate volume of the cell (which is 1, since
    the cells tile coordinate space with one lattice point per cell; the
    division is kept so the normalization is explicit).
    """
    poly = voronoi_cell(lat)
    if "_moment" in poly.__dict__:
        return poly._moment
    g = lat.rank
    points = poly._scaled
    norms = [sum(map(mul, x, _gram_image(lat, x))) for x in points]
    # The negated half has the same determinants and, [x, x] being even,
    # the same moments: both sums double, and the ratio does not change.
    total_det = total_mom = 0
    for s, det in poly._star:
        w = list(map(sum, zip(*[points[i] for i in s])))
        total_det += det
        total_mom += det * (sum(norms[i] for i in s) + sum(map(mul, w, _gram_image(lat, w))))
    poly.__dict__["_moment"] = Fraction(
        total_mom, (g + 1) * (g + 2) * poly._den ** 2 * lat._den * total_det)
    return poly._moment
