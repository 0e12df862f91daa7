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
Only the ``HalfSpace`` fields and ``Polytope.vertices``, formed from the
integer rows when first read, are in Q.  The sweep may hold at most
VERTEX_BUDGET vertices at once; a rank whose 2^g start corners already
exceed it is refused before the relevant vectors are searched.

Volumes and moments are computed in coordinate Lebesgue measure over a
star triangulation: origin cone over facet triangulations, each face
starred recursively from its lowest-indexed vertex (``_cones_over``).  Faces
are vertex bitmasks, found from the vertex-facet incidences alone: the
facets of a face F are the inclusion-maximal proper, nonempty intersections
of F with the facets (Ziegler, Lectures on Polytopes, 2.1), and a d-face
with d + 1 vertices is a simplex.  One facet is triangulated per orbit of
W, the group generated by -1 and the reflections of the lattice
(``_facet_orbits``): its elements are integer isometries that permute the
facets, so the cones over one orbit have equal volume and, x^T G x being
invariant, equal moment.  When W merges pairs +-u, each facet taken has its
own double description in g - 1 dimensions (``_facet_cones``), and the
cell has sum |orbit| x sum_{v in F} 1/deg(v) vertices, deg(v) facets on
each, never listed.  The facet of u is symmetric about u / 2 (x -> u - x
swaps 0 and u; Minkowski 1897), so its constraints are kept per primitive
direction at the least offset, in pairs +-p at the larger of the two,
which the facet also satisfies; an unpaired one supports no ridge.
Otherwise the later facet of each pair +-u (``_mirrors``) of the whole
cell is triangulated with weight 2 (the half star, whose negation is the
rest), as ``star_triangulation`` gives for every cell and a public
``Polytope``, which knows no lattice, integrates.  The metric Jacobian
sqrt(det G) cancels in the normalized moment.  The per-simplex closed form

    integral over S of x^T G x  =  vol(S) / ((g+1)(g+2)) *
        ( sum_i [v_i, v_i]  +  [w, w] ),   w = sum_i v_i,

follows from the barycentric moments E[t_i t_j] = (1 + delta_ij) /
((g+1)(g+2)) on a g-simplex; the origin vertex adds nothing.

Each fact about a cell is derived once.  ``voronoi_cell`` forms the
constraints 2 den G u . x <= den [u, u], ``_mirror`` and the orbits; the
first read of ``vertices``, ``_scaled``, ``_den``, ``_facets`` or
``_negation`` runs the whole cell's double description, which returns the
vertex rows and tight masks.  ``_tight_masks`` finds those of a caller's
vertices and of facet vertices, one product per vertex and constraint, and
checks that each is in the cell and on g facets.  The half star checks
that every half-space supports a facet, the vertices are closed under
negation and ``_mirror`` pairs every half-space; the facet star that its
vertex count is an integer; both that no simplex is flat.  Each lattice
keeps its cell and each cell its V-representation, stars and moment; a
failed build keeps no cell, a failed sweep (say over VERTEX_BUDGET) nothing.
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

# Most vertices double description may hold at once.  The whole cell peaks at 54 on D5,
# 142 on E6, 632 on E7 and 19 440 on E8; the sweep of one facet at 12, 24, 48 and 702.
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
    ``_orbits`` of ``_facet_orbits`` (None: the pairs +-u).  A public
    ``Polytope`` checks its vertices and knows no orbits; a cell of
    ``voronoi_cell`` keeps ``_constraints`` and sweeps the rest on first read."""

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
        self.__dict__.update(halfspaces=halfspaces, _mirror=_mirrors(a, b), _orbits=None)
        self._index(scaled, den, _tight_masks(scaled, den, a, b, ValueError))

    def __getattr__(self, name):
        if name == "vertices":
            den = self._den
            vars(self)[name] = tuple(tuple(Fraction(c, den) for c in x) for x in self._scaled)
        elif name in ("_scaled", "_den", "_facets", "_negation") and "_constraints" in vars(self):
            self._index(*_vertices_dd(*self._constraints, self.dim, self._mirror))
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def _index(self, scaled, den, masks):
        index = {x: i for i, x in enumerate(scaled)}
        if len(index) != len(scaled):
            raise ValueError("vertex list has duplicates")
        negation = tuple(index.get(tuple(-c for c in x)) for x in scaled)
        self.__dict__.update(_scaled=tuple(scaled), _den=den, _negation=negation,
                             _facets=_incidences(masks, len(self.halfspaces)))

    @property
    def dim(self) -> int:
        return len(self.halfspaces[0].row)

    @property
    def vertex_count(self) -> int:
        """``len(vertices)``, read off one facet per orbit when the orbits merge."""
        return len(self._scaled) if self._orbits is None else self._cones[3]

    @cached_property
    def _star(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return _star_facet_simplices(self)

    @cached_property
    def _cones(self):
        """``(points, den, star, vertex count)``: the cell's sums, rows and count."""
        if self._orbits is None:
            return self._scaled, self._den, self._star, len(self._scaled)
        return _facet_cones(self)


def _integer_constraints(halfspaces) -> tuple[list[list[int]], list[int]]:
    """Each constraint scaled to integers: a positive scale keeps every sign test."""
    rows = [_linalg.integer_row(hs.row + (hs.offset,))[0] for hs in halfspaces]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def _tight_masks(scaled, den, a, b, error) -> list[int]:
    """The constraints a_k . x <= b_k each row x / den is tight on, as a bitmask;
    a row outside one, or tight on fewer than g, raises ``error``."""
    masks, offsets = [], [off * den for off in b]
    for x in scaled:
        slacks = [off - sum(map(mul, row, x)) for row, off in zip(a, offsets)]
        masks.append(sum(1 << k for k, s in enumerate(slacks) if s == 0))
        if min(slacks) < 0 or masks[-1].bit_count() < len(x):
            raise error(f"vertex {tuple(Fraction(c, den) for c in x)} " + (
                "violates a half-space" if min(slacks) < 0 else
                f"is tight on fewer than {len(x)} facets"))
    return masks


def _incidences(masks, n) -> tuple[int, ...]:
    """The bitmask of the vertices tight on each of n constraints."""
    facets = [0] * n
    for i, mask in enumerate(masks):
        for k in _bits(mask):
            facets[k] |= 1 << i
    return tuple(facets)


def _mirrors(a, b) -> list[int | None]:
    """For each integer constraint a_k . x <= b_k, the index of
    -a_k . x <= b_k, or None.  This is the only rule that pairs facets."""
    index = {(tuple(row), off): k for k, (row, off) in enumerate(zip(a, b))}
    return [index.get((tuple(-c for c in row), off)) for row, off in zip(a, b)]


def _vertices_dd(a, b, g, mirror) -> tuple[list[tuple[int, ...]], int, list[int]]:
    """Double description from the parallelotope of g independent facet pairs,
    on primitive integer homogeneous vertices (x, w) with w > 0.  The facets
    must come in pairs: a_k' = -a_k, b_k' = b_k for k' = mirror[k], so -v is
    tight on the mirror of the mask of v.  Returns ``(rows, den, masks)``:
    the sorted rows x den / w, den = lcm of the w, in the order of the x / w,
    and the facets each is tight on."""
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
    return list(rows), den, list(masks)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def voronoi_cell(lat: GramLattice) -> Polytope:
    """H- and V-representation of the Voronoi cell centered at the origin.

    Built once per lattice and kept on it, its vertices swept on first read.
    A failed build keeps no cell, and a failed sweep nothing."""
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
    mirror = _mirrors(a, b)
    cell = Polytope.__new__(Polytope)
    cell.__dict__.update(halfspaces=halfspaces, _constraints=(a, b), _mirror=mirror,
                         _orbits=_facet_orbits(relevant, a, b, mirror))
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


def _star_facet_simplices(poly: Polytope) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The half star: the later facet of each pair +-u, triangulated with
    weight 2 by ``_cones_over``; the negations cover the other facets."""
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
    return _cones_over(points, facets, {k: 2 for k, m in enumerate(mirror) if m < k})


def _cones_over(points, facets, weights) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``(s, weight |det|)`` for each (g-1)-simplex s of each facet k of
    ``weights`` ({k: weight}), as vertex indices; ``det`` of their rows
    ``points`` is the scaled volume of the cone over s from the origin."""
    g, meets = len(points[0]), [f for f in facets if f]
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
            subs = dict.fromkeys(s for s in (face & f for f in meets) if s and s != face)
            out = []
            for sub in subs:
                if sub & apex_bit or any(sub != t and sub | t == t for t in subs):
                    continue
                out.extend(apex + s for s in tri(sub, d - 1))
        cache[face] = out
        return out

    star = tuple((s, w * abs(_linalg.int_det([points[i] for i in s])))
                 for k, w in weights.items() for s in tri(facets[k], g - 1))
    if any(det == 0 for _, det in star):
        raise DegeneratePolytopeError("a star simplex is flat")
    return star


def _facet_cones(cell: Polytope):
    """``Polytope._cones`` from one double description per orbit's facet k in
    the coordinates z of x = u_k / 2 + N z: the columns c_p e_i - c_i e_p
    (i != p) of N span c . x = 0, c = a_k / gcd(a_k), c_p its least nonzero."""
    a, b = cell._constraints
    g = cell.dim
    pts = []
    for k in cell._orbits:
        u, c = cell.halfspaces[k].normal, [x // gcd(*a[k]) for x in a[k]]
        p = min((i for i in range(g) if c[i]), key=lambda i: abs(c[i]))
        cols = [[c[p] * (i == o) - c[o] * (i == p) for i in range(g)] for o in range(g) if o != p]
        # a_j . x <= b_j reads (a_j N) . z <= b_j - a_j . u_k / 2
        least: dict[tuple[int, ...], Fraction] = {}
        for row, off in zip(a, b):
            r = [sum(map(mul, row, col)) for col in cols]
            if d := gcd(*r):
                key, q = tuple(x // d for x in r), Fraction(off - sum(map(mul, row, u)) // 2, d)
                least[key] = min(q, least.get(key, q))
        pairs = [(key, max(q, least[neg])) for key, q in least.items()
                 if key < (neg := tuple(-x for x in key)) and neg in least]
        rows = [[e * x * q.denominator for x in key] for key, q in pairs for e in (1, -1)]
        offs = [q.numerator for _, q in pairs for _ in (1, -1)]
        zs, zden, _ = _vertices_dd(rows, offs, g - 1, [j ^ 1 for j in range(len(rows))])
        pts += [([zden * u_i + 2 * sum(map(mul, z, n_i)) for u_i, n_i in zip(u, zip(*cols))],
                 2 * zden) for z in zs]
    # every x lies on its facet's hyperplane; a vertex of two facets taken is kept once
    den = lcm(*(d for _, d in pts))
    points = list(dict.fromkeys(tuple(den // d * c_x for c_x in x) for x, d in pts))
    masks = _tight_masks(points, den, a, b, DegeneratePolytopeError)
    facets = _incidences(masks, len(a))
    count = sum(Fraction(size, masks[i].bit_count())
                for k, size in cell._orbits.items() for i in _bits(facets[k]))
    if count.denominator != 1:
        raise DegeneratePolytopeError(f"the facets' vertex degrees count {count} vertices")
    star = _cones_over(points, facets, cell._orbits)
    return points, den, star, count.numerator


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
    _, den, star, _ = poly._cones
    return Fraction(sum(det for _, det in star), factorial(poly.dim) * den ** poly.dim)


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
    points, den, star, _ = poly._cones
    norms = [sum(map(mul, x, _gram_image(lat, x))) for x in points]
    total_det = total_mom = 0
    for s, det in star:
        w = list(map(sum, zip(*[points[i] for i in s])))
        total_det += det
        total_mom += det * (sum(norms[i] for i in s) + sum(map(mul, w, _gram_image(lat, w))))
    poly.__dict__["_moment"] = Fraction(
        total_mom, (g + 1) * (g + 2) * den ** 2 * lat._den * total_det)
    return poly._moment
