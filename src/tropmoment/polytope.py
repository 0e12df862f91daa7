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
are searched once per pair, and each vertex is handed on with its mask.
Only the ``HalfSpace`` fields and ``Polytope.vertices`` are in Q.  The sweep
may hold at most VERTEX_BUDGET vertices at once; a rank whose 2^g start
corners already exceed it is refused before the relevant vectors are
searched.

Volumes and moments are computed in coordinate Lebesgue measure over a
star triangulation: origin cone over facet triangulations, each face
starred recursively from its lowest-indexed vertex (the lexicographically
least, as voronoi_cell sorts them).  Faces are vertex bitmasks, found from
the vertex-facet incidences alone: the facets of a face F are the
inclusion-maximal proper, nonempty intersections of F with the facets of
the cell (Ziegler, Lectures on Polytopes, 2.1), and a d-face with d + 1
vertices is a simplex.  Volumes and moments triangulate one facet per orbit
of W, the group generated by -1 and the reflections of the lattice
(``_facet_orbits``, on the integer rows).  Each element of W is an integer
isometry that permutes the facets, so the cones over the facets of one orbit
have equal volume and, x^T G x being invariant, equal moment: the sums over
the cell are those over the one facet times the orbit's size.  When no
reflection joins two pairs +-u, W acts as {+-1}: ``_mirrors`` pairs
a_k . x <= b_k with -a_k . x <= b_k on the integer rows, and the later
facet of each pair is triangulated with weight 2 (the half star, whose
negation triangulates the rest).  ``star_triangulation`` returns the half
star of every cell, and a public ``Polytope``, which knows no lattice,
integrates it.  The metric Jacobian sqrt(det G) cancels in the normalized
moment, so it never appears.  The per-simplex closed form

    integral over S of x^T G x  =  vol(S) / ((g+1)(g+2)) *
        ( sum_i [v_i, v_i]  +  [w, w] ),   w = sum_i v_i,

follows from the barycentric moments E[t_i t_j] = (1 + delta_ij) /
((g+1)(g+2)) on a g-simplex; the origin vertex adds nothing.  It needs the
norms of the vertices and one Gram product per simplex, and no table of
vertex pairs.  Each cell is held in integers from its constraints to its
moment, and its integer sums are divided once, at the end.

Each fact about a cell is derived once, in integers: double description
returns the vertex rows, their tight masks and ``_mirror`` (``_mirrors`` of
the constraints 2 den G u . x <= den [u, u]), ``Polytope(halfspaces,
vertices)`` finds the masks of a caller's vertices with one product per
vertex and half-space, and ``Polytope._index`` turns the masks into
``_facets`` and finds ``_negation`` (the index of -v, or None).  Each star
reads them: it checks that every half-space supports a facet, that the
vertices are closed under negation, that ``_mirror`` pairs every
half-space, and that no simplex it integrates is flat.  The cell is then
full-dimensional (0 is the midpoint of v and -v) and every pair adds a
positive volume, so nothing else checks either.

Each lattice keeps the cell ``voronoi_cell`` built for it, and each cell
keeps its facet orbits, its star over one facet per orbit, its half star
and its second moment, so ``volume`` and ``second_moment`` of one cell
triangulate it once, ``star_triangulation`` once more unless W acts as
{+-1}, and the moment is summed once.  They live as long as the object
that keeps them; a build that fails, say over VERTEX_BUDGET, keeps nothing.
"""

from __future__ import annotations

from collections import Counter
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

# Most vertices double description may hold at once (D5 peaks at 54, E6 at 142, E7 at 632,
# E8 at 19 440).
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
    """H- and V-representation, held as the vertices' integer rows
    ``_scaled`` over one denominator ``_den``, each half-space's tight
    vertices as the bitmask ``_facets[k]`` (bit i for vertex i), the index
    ``_negation[i]`` of -v_i (or None), ``_mirror = _mirrors(a, b)`` and
    ``_orbits``, the facet orbits of ``_facet_orbits`` (None: the pairs
    +-u).  ``Polytope(halfspaces, vertices)`` checks its vertices and knows
    no orbits; ``voronoi_cell`` hands ``_index`` the rows, masks and mirror
    of double description, then sets the orbits."""

    halfspaces: tuple[HalfSpace, ...]
    vertices: tuple[tuple[Fraction, ...], ...]

    def __init__(self, halfspaces, vertices):
        dim = len(halfspaces[0].row) if halfspaces else 0
        if not dim or any(len(hs.normal) != dim or len(hs.row) != dim for hs in halfspaces):
            raise ValueError("half-spaces must be nonempty and of one dimension")
        if any(len(v) != dim for v in vertices):
            raise ValueError(f"every vertex must have {dim} coordinates")
        points = [tuple(map(_as_fraction, v)) for v in vertices]
        flat, den = _linalg.integer_row([c for v in points for c in v])
        scaled = [tuple(flat[i:i + dim]) for i in range(0, len(flat), dim)]
        a, b = _integer_constraints(halfspaces)
        constraints = [(row, off * den) for row, off in zip(a, b)]
        masks = []
        for v, x in zip(points, scaled):
            mask = 0
            for k, (row, off) in enumerate(constraints):
                val = sum(map(mul, row, x))
                if val > off:
                    raise ValueError(f"vertex {v} violates a half-space")
                if val == off:
                    mask |= 1 << k
            if mask.bit_count() < dim:
                raise ValueError(f"vertex {v} is tight on fewer than {dim} facets")
            masks.append(mask)
        self._index(halfspaces, scaled, den, masks, _mirrors(a, b))

    def _index(self, halfspaces, scaled, den, masks, mirror):
        facets = [0] * len(halfspaces)
        for i, mask in enumerate(masks):
            for k in _bits(mask):
                facets[k] |= 1 << i
        index = {x: i for i, x in enumerate(scaled)}
        if len(index) != len(scaled):
            raise ValueError("vertex list has duplicates")
        negation = tuple(index.get(tuple(-c for c in x)) for x in scaled)
        vertices = tuple(tuple(Fraction(c, den) for c in x) for x in scaled)
        self.__dict__.update(
            halfspaces=halfspaces, vertices=vertices, _scaled=tuple(scaled), _den=den,
            _facets=tuple(facets), _negation=negation, _mirror=mirror, _orbits=None)

    @property
    def dim(self) -> int:
        return len(self.halfspaces[0].row)

    @cached_property
    def _star(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return _star_facet_simplices(self)

    @cached_property
    def _cones(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """One facet of each orbit, triangulated: sums over it are the cell's."""
        return self._star if self._orbits is None else _star_facet_simplices(self, self._orbits)


def _integer_constraints(halfspaces) -> tuple[list[list[int]], list[int]]:
    """Each constraint scaled to integers: a positive scale keeps every sign test."""
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
    must come in pairs: a_k' = -a_k, b_k' = b_k.  Returns ``(rows, den,
    masks, mirror)``: the sorted rows x den / w, den = lcm of the w, in the
    order of the x / w, the facets each is tight on, and ``_mirrors(a, b)``."""
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
    rows, masks = zip(*sorted((tuple(c * (den // v[g]) for c in v[:g]), mask)
                              for v, mask in zip(verts, masks)))
    return list(rows), den, list(masks), mirror


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
    relevant = relevant_vectors(lat)
    images = [_gram_image(lat, u) for u in relevant]
    a = [[2 * c for c in au] for au in images]
    b = [sum(map(mul, u, au)) for u, au in zip(relevant, images)]
    halfspaces = tuple(
        HalfSpace(normal=u, row=tuple(Fraction(c, lat._den) for c in au),
                  offset=Fraction(off, 2 * lat._den))
        for u, au, off in zip(relevant, images, b))
    cell = Polytope.__new__(Polytope)
    cell._index(halfspaces, *_vertices_dd(a, b, lat.rank))
    cell.__dict__["_orbits"] = _facet_orbits(relevant, a, b, cell._mirror)
    return cell


def _facet_orbits(normals, a, b, mirror) -> dict[int, int] | None:
    """The orbits of the facets under W, the group generated by -1 and the
    reflections of the lattice, as {facet: size of its orbit}, one facet of
    each; None when every orbit is one pair +-u (``mirror`` pairs them).

    A relevant vector r is reflective when a_k / b_k = 2 G r / [r, r] is an
    integer vector c, that is when b_k divides the gcd of a_k: then
    s_r(x) = x - (c . x) r is an isometry of the lattice, so it permutes the
    relevant vectors, and the facets with them.  An image that is not among
    ``normals`` raises DegeneratePolytopeError."""
    # Union-find on the pairs +-u, each labelled by its first facet:
    # s_r = s_-r and s_r(-u) = -s_r(u), so one of each is enough.
    half = [k for k, m in enumerate(mirror) if m is not None and m > k]
    reflections = [(k, [c // b[k] for c in a[k]]) for k in half if gcd(*a[k]) % b[k] == 0]
    if not reflections:
        return None
    index = dict(zip(normals, range(len(normals))))
    up = list(range(len(normals)))

    def find(k):
        while up[k] != k:
            up[k] = up[up[k]]
            k = up[k]
        return k

    count = len(half)
    for rk, c in reflections:
        r = normals[rk]
        for k in half:
            # s_r sends r to -r and fixes every u with c . u = 0
            t = sum(map(mul, c, normals[k]))
            if t and k != rk:
                image = tuple(x - t * y for x, y in zip(normals[k], r))
                j = index.get(image)
                if j is None:
                    raise DegeneratePolytopeError(
                        f"the reflection in {r} sends the facet normal {normals[k]} "
                        f"to {image}, which is not relevant")
                i, j = find(k), find(min(j, mirror[j]))
                if i != j:
                    up[max(i, j)] = min(i, j)
                    count -= 1
        if count == 1:
            break
    if count == len(half):
        return None
    return {k: 2 * n for k, n in Counter(map(find, half)).items()}


def _star_facet_simplices(poly: Polytope, orbits=None) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Triangulate one facet of each orbit, ``orbits`` mapping it to the
    orbit's size: ``(s, size |det|)`` for each (g-1)-simplex, where ``s``
    holds vertex indices and ``det`` is the determinant of their integer
    rows, the scaled volume of the cone over ``s`` from the origin.  By
    default each pair +-u is an orbit, and its later facet is triangulated
    (the half star): the other is the negation of its representative."""
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
    if orbits is None:
        orbits = {k: 2 for k, m in enumerate(mirror) if m < k}
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

    star = tuple((s, size * abs(_linalg.int_det([points[i] for i in s])))
                 for k, size in orbits.items() for s in tri(facets[k], g - 1))
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
    total_det = sum(det for _, det in poly._cones)
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
    total_det = total_mom = 0
    for s, det in poly._cones:
        w = list(map(sum, zip(*[points[i] for i in s])))
        total_det += det
        total_mom += det * (sum(norms[i] for i in s) + sum(map(mul, w, _gram_image(lat, w))))
    poly.__dict__["_moment"] = Fraction(
        total_mom, (g + 1) * (g + 2) * poly._den ** 2 * lat._den * total_det)
    return poly._moment
