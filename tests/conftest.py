"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's linear algebra and
enumeration internals: quadratic forms are evaluated directly, inverses
come from a local Gaussian elimination, and search boxes are certified by
the Cauchy-Schwarz bound x_i^2 <= (G^-1)_ii * |x|_G^2, sized in the
closest-vector oracle from a local nearest-plane point.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm

from tropmoment import neron as _neron
from tropmoment.metricgraph import Edge, MetricGraph, make_graph

# ---------------------------------------------------------------------------
# independent oracle helpers


def oracle_qform(gram, x):
    g = len(gram)
    return sum(
        Fraction(gram[i][j]) * x[i] * x[j] for i in range(g) for j in range(g)
    )


def oracle_solve(matrix, columns):
    """Solutions of matrix @ x = b for each b in ``columns``, by plain
    Gauss-Jordan over Fractions."""
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(b[i]) for b in columns]
        for i in range(n)
    ]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [[aug[i][n + c] for i in range(n)] for c in range(len(columns))]


def oracle_inverse_diag(gram):
    """Diagonal of G^-1."""
    g = len(gram)
    identity = [[int(i == j) for j in range(g)] for i in range(g)]
    return [col[i] for i, col in enumerate(oracle_solve(gram, identity))]


def _box_ranges(gram, point, dist_sq):
    """Certified integer ranges containing every u with |point-u|^2 <= dist_sq."""
    inv_diag = oracle_inverse_diag(gram)
    ranges = []
    for i, p in enumerate(point):
        bound = inv_diag[i] * dist_sq
        radius = isqrt(bound.numerator // bound.denominator) + 1
        lo = (p.numerator // p.denominator) - radius
        hi = lo + 2 * radius + 1
        ranges.append(range(lo, hi + 1))
    return ranges


def oracle_nearest_plane(gram, point):
    """Babai's nearest-plane lattice vector for ``point``, from a
    Gram-Schmidt of the basis in Fractions: mu[i][j] = [b_i, b_j*] / B_j
    and B_j = [b_j*, b_j*]."""
    g = len(gram)
    gram = [[Fraction(x) for x in row] for row in gram]
    mu = [[Fraction(0)] * g for _ in range(g)]
    b = []
    for i in range(g):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * b[k] for k in range(j))) / b[j]
        b.append(gram[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i)))
    # Peel off b_i* components from the last: the residual sum_j c_j b_j has
    # c_i + sum_{j>i} c_j mu[j][i] along b_i*.
    c = [Fraction(x) for x in point]
    u = [0] * g
    for i in reversed(range(g)):
        u[i] = round(c[i] + sum(c[j] * mu[j][i] for j in range(i + 1, g)))
        c[i] -= u[i]
    return u


def oracle_cvp(gram, point):
    """All closest lattice vectors to ``point`` by certified box search; the
    box holds every vector no farther than the nearest-plane point."""
    point = [Fraction(c) for c in point]
    start = oracle_nearest_plane(gram, point)
    d0 = oracle_qform(gram, [p - r for p, r in zip(point, start)])
    best, sols = None, []
    for u in product(*_box_ranges(gram, point, d0)):
        d = oracle_qform(gram, [p - c for p, c in zip(point, u)])
        if best is None or d < best:
            best, sols = d, [u]
        elif d == best:
            sols.append(u)
    return best, sorted(sols)


def oracle_quadrature(gram, n):
    """Exact midpoint sum (1/n^g) sum_x min_u |x - u|^2 over the grid
    x = p / (2n), p odd, testing every grid point against every lattice
    vector of a certified box around it.  In integers: with D G integral,
    the squared distance is (p - 2n u)^T D G (p - 2n u) / (4 n^2 D), and
    the box holds every u no farther from x than the rounded point."""
    g = len(gram)
    scale = lcm(*(Fraction(x).denominator for row in gram for x in row))
    ints = [[int(scale * Fraction(x)) for x in row] for row in gram]
    inv_diag = oracle_inverse_diag(gram)

    def qform(d):
        return sum(x * sum(y * z for y, z in zip(row, d)) for x, row in zip(d, ints))

    total = 0
    for p in product(range(1, 2 * n, 2), repeat=g):
        rounded = [(c + n) // (2 * n) for c in p]
        best = qform([c - 2 * n * r for c, r in zip(p, rounded)])
        # Cauchy-Schwarz: (p_i - 2n u_i)^2 <= (G^-1)_ii qform(p - 2n u) / D
        ranges = []
        for c, inv in zip(p, inv_diag):
            reach = isqrt(int(inv * best / scale))
            ranges.append(range(-((reach - c) // (2 * n)), (c + reach) // (2 * n) + 1))
        for u in product(*ranges):
            best = min(best, qform([c - 2 * n * k for c, k in zip(p, u)]))
        total += best
    return Fraction(total, scale * 4 * n * n * n**g)


def oracle_relevant(gram):
    """Voronoi relevant vectors by the unique +-pair coset criterion."""
    g = len(gram)
    out = []
    for parity in product((0, 1), repeat=g):
        if not any(parity):
            continue
        target = [Fraction(-p, 2) for p in parity]
        best, sols = oracle_cvp(gram, target)
        if len(sols) == 2:
            out.extend(
                tuple(parity[i] + 2 * u[i] for i in range(g)) for u in sols
            )
    return sorted(out)


def oracle_cell_vertices(gram, normals):
    """Vertices of the cell cut out by [u, x] <= [u, u]/2 for the lattice
    vectors u in ``normals``, by brute force: solve every rank-many subset
    of the equations by Cramer's rule and keep the solutions inside every
    half-space.  The constraints are scaled to integers, 2D[u, x] <= D[u, u]
    with D the common denominator of the Gram entries."""
    g = len(gram)
    scale = lcm(*(Fraction(x).denominator for row in gram for x in row))
    gram = [[int(2 * scale * Fraction(x)) for x in row] for row in gram]
    facets = [
        ([sum(gram[i][j] * u[j] for j in range(g)) for i in range(g)],
         sum(gram[i][j] * u[i] * u[j] for i in range(g) for j in range(g)) // 2)
        for u in normals
    ]
    verts = set()
    for subset in combinations(facets, g):
        a = [row for row, _ in subset]
        det = _det_int(a)
        if det == 0:
            continue
        sign = 1 if det > 0 else -1
        nums = [
            sign * _det_int([row[:i] + [off] + row[i + 1:] for row, off in subset])
            for i in range(g)
        ]
        det *= sign
        if all(sum(r * n for r, n in zip(row, nums)) <= off * det for row, off in facets):
            verts.add(tuple(Fraction(n, det) for n in nums))
    return verts


def oracle_rank(rows):
    """Rank over Q by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_affine_rank(points):
    if len(points) <= 1:
        return 0
    return oracle_rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])


def oracle_star_simplices(poly, facets=None):
    """Vertex-index sets of the facet simplices of the origin star, by the
    rank-tested face recursion: each face is starred from its
    lexicographically least vertex over its facets, and a facet of a d-face
    F is an intersection of F with a cell facet whose affine rank is d - 1.
    Tightness is decided from the half-spaces in Fractions.  ``facets``
    lists the indices of the half-spaces whose facets are triangulated
    (all of them by default)."""
    points = poly.vertices
    tight = [
        frozenset(i for i, v in enumerate(points)
                  if sum(r * c for r, c in zip(hs.row, v)) == hs.offset)
        for hs in poly.halfspaces
    ]
    den = lcm(*(c.denominator for v in points for c in v))
    scaled = [[int(c * den) for c in v] for v in points]
    cache = {}

    def tri(face, d):
        if face not in cache:
            if d <= 1:
                assert len(face) == d + 1
                out = [face]
            else:
                apex = min(face, key=points.__getitem__)
                out, seen = [], set()
                for facet in tight:
                    sub = face & facet
                    if not sub or sub == face or apex in sub or sub in seen:
                        continue
                    if len(sub) < d or oracle_affine_rank([scaled[i] for i in sub]) != d - 1:
                        continue
                    seen.add(sub)
                    out.extend(s | {apex} for s in tri(sub, d - 1))
            cache[face] = out
        return cache[face]

    if facets is None:
        facets = range(len(tight))
    return [s for k in facets for s in tri(tight[k], poly.dim - 1)]


def oracle_chamber_moment(cartan):
    """Normalized second moment of an irreducible root lattice, given by its
    Cartan matrix G, from one chamber of its Voronoi cell.

    The roots are the simple roots closed under the simple reflections
    s_i(x) = x - (G x)_i e_i; the highest root has the largest coordinate
    sum, and its coordinates are the marks m_i.  The cell is the union of
    the Weyl images of the simplex on 0 and v_i = (column i of G^-1) / m_i,
    w = sum v_i, so I = (sum [v_i, v_i] + [w, w]) / ((g+1)(g+2)) (Conway &
    Sloane, IEEE Trans. IT 28 (1982); SPLAG ch. 21).  No relevant-vector
    search, double description or triangulation is involved.
    """
    g = len(cartan)
    simple = [tuple(int(i == j) for j in range(g)) for i in range(g)]
    roots, frontier = set(simple), list(simple)
    while frontier:
        x = frontier.pop()
        for i in range(g):
            y = list(x)
            y[i] -= sum(cartan[i][j] * x[j] for j in range(g))
            y = tuple(y)
            if y not in roots:
                roots.add(y)
                frontier.append(y)
    marks = max(roots, key=sum)
    identity = [[int(i == j) for j in range(g)] for i in range(g)]
    verts = [[c / m for c in col] for col, m in zip(oracle_solve(cartan, identity), marks)]
    w = [sum(col) for col in zip(*verts)]
    total = sum(oracle_qform(cartan, v) for v in verts) + oracle_qform(cartan, w)
    return total / ((g + 1) * (g + 2))


def oracle_shortest(gram):
    """All nonzero lattice vectors of minimal norm (box certified by the
    smallest diagonal entry, which the minimum cannot exceed)."""
    g = len(gram)
    cap = min(Fraction(gram[i][i]) for i in range(g))
    inv_diag = oracle_inverse_diag(gram)
    ranges = []
    for i in range(g):
        bound = inv_diag[i] * cap
        radius = isqrt(bound.numerator // bound.denominator) + 1
        ranges.append(range(-radius, radius + 1))
    best, sols = None, []
    for u in product(*ranges):
        if not any(u):
            continue
        d = oracle_qform(gram, list(u))
        if best is None or d < best:
            best, sols = d, [u]
        elif d == best:
            sols.append(u)
    return best, sorted(sols)


# ---------------------------------------------------------------------------
# metric-graph oracle: the subdivision-based tau, which fits r(., q) on
# each edge through three exact samples instead of using the canonical
# measure


def _oracle_network(graph, points):
    """Subdivide the edges at the interior points (vertex ids or
    GraphPoints); returns (edge triples, node count, node of each point)."""
    cuts: dict[int, set[Fraction]] = {}
    for p in points:
        if not isinstance(p, int) and 0 < p.offset < graph.edges[p.edge].length:
            cuts.setdefault(p.edge, set()).add(Fraction(p.offset))
    nodes = graph.vertex_count
    edges, node_of = [], {}
    for idx, e in enumerate(graph.edges):
        prev, prev_off = e.tail, Fraction(0)
        for off in sorted(cuts.get(idx, ())):
            node_of[idx, off] = nodes
            edges.append((prev, nodes, off - prev_off))
            prev, prev_off = nodes, off
            nodes += 1
        edges.append((prev, e.head, e.length - prev_off))

    def node(p):
        if isinstance(p, int):
            return p
        e = graph.edges[p.edge]
        if p.offset == 0:
            return e.tail
        if p.offset == e.length:
            return e.head
        return node_of[p.edge, Fraction(p.offset)]

    return edges, nodes, [node(p) for p in points]


def _oracle_node_resistance(edges, node_count, a, b):
    """Unit current from a to b through the Laplacian grounded at b."""
    if a == b:
        return Fraction(0)
    keep = [v for v in range(node_count) if v != b]
    slot = {v: i for i, v in enumerate(keep)}
    lap = [[Fraction(0)] * len(keep) for _ in keep]
    for t, h, length in edges:
        if t == h:
            continue
        for v, w in ((t, h), (h, t)):
            if v in slot:
                lap[slot[v]][slot[v]] += 1 / length
                if w in slot:
                    lap[slot[v]][slot[w]] -= 1 / length
    (x,) = oracle_solve(lap, [[int(v == a) for v in keep]])
    return x[slot[a]]


def oracle_resistance(graph, p, q):
    edges, node_count, (a, b) = _oracle_network(graph, [p, q])
    return _oracle_node_resistance(edges, node_count, a, b)


def oracle_tau(graph, q=0):
    """Integral of (f')^2 with f = r(., q)/2.  On each edge r(., q) is
    quadratic in the arclength, so the values at both ends and at a
    temporary midpoint node fix it, and the integral has a closed form."""
    edges, node_count, (base,) = _oracle_network(graph, [q])
    r = [_oracle_node_resistance(edges, node_count, v, base)
         for v in range(node_count)]
    total = Fraction(0)
    for k, (t, h, length) in enumerate(edges):
        mid = node_count
        split = edges[:k] + edges[k + 1:] + [(t, mid, length / 2), (mid, h, length / 2)]
        r_m = _oracle_node_resistance(split, node_count + 1, mid, base)
        diff_l, diff_m = r[h] - r[t], r_m - r[t]
        qa = 2 * (diff_l - 2 * diff_m) / (length * length)
        qb = (4 * diff_m - diff_l) / length
        # integral of ((2 qa x + qb) / 2)^2 over [0, length]
        total += (4 * qa * qa * length**3 / 3
                  + 2 * qa * qb * length**2
                  + qb * qb * length) / 4
    return total


# ---------------------------------------------------------------------------
# q-series oracle: the term-by-term Tate product, two logs per term


def oracle_tate_theta_log_abs(q, z, n_terms):
    """(log|theta(z)|, tail bound) by the term-by-term loop: q^n formed with
    ``**``, one log per factor, the logs summed by ``math.fsum``.  It stops
    at the first n whose tail bound drops below 1e-15, and raises what
    ``tate_theta_log_abs`` raises, validating q and z with its checks."""
    q = _neron._check_modulus(q)
    z = complex(z)
    _neron._check_off_divisor(q, z)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    abs_q = abs(q)
    big = max(abs(z), 1.0 / abs(z))
    z_inv = 1.0 / z
    logs = [math.log(abs(1.0 - z))]
    tail = math.inf
    for n in range(1, n_terms + 1):
        q_n = q**n
        logs.append(math.log(abs(1.0 - q_n * z)))
        logs.append(math.log(abs(1.0 - q_n * z_inv)))
        head = abs_q ** (n + 1) * big
        if head < 1.0:
            tail = (abs_q ** (n + 1) * (abs(z) + abs(z_inv))) / (
                (1.0 - abs_q) * (1.0 - head)
            )
            if tail < 1e-15:
                break
    total = math.fsum(logs)
    if tail == math.inf or not math.isfinite(total):
        raise _neron.OutOfRangeError("no tail bound")
    return total, tail


def count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so each call appends its arguments to the
    returned list; the wrapper is removed when the test ends."""
    calls = []
    func = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# ---------------------------------------------------------------------------
# named graph fixtures


def circle(ell) -> MetricGraph:
    return make_graph(1, [(0, 0, ell)])


def segment(ell) -> MetricGraph:
    return make_graph(2, [(0, 1, ell)])


def star3(a, b, c) -> MetricGraph:
    return make_graph(4, [(0, 1, a), (0, 2, b), (0, 3, c)])


def theta_graph(a, b, c) -> MetricGraph:
    return make_graph(2, [(0, 1, a), (0, 1, b), (0, 1, c)])


def k4(lengths=None) -> MetricGraph:
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    lengths = lengths or [1] * 6
    return make_graph(4, [(t, h, l) for (t, h), l in zip(pairs, lengths)])


def two_loops_bridge(p, r, b) -> MetricGraph:
    return make_graph(2, [(0, 0, p), (1, 1, r), (0, 1, b)])


def dumbbell() -> MetricGraph:
    # loops at the two ends of a two-edge bar
    return make_graph(
        3,
        [
            (0, 0, Fraction(5, 2)),
            (2, 2, Fraction(7, 3)),
            (0, 1, Fraction(1, 2)),
            (1, 2, Fraction(3, 4)),
        ],
    )


def named_graphs() -> dict[str, MetricGraph]:
    return {
        "circle": circle(12),
        "segment": segment(3),
        "star": star3(1, Fraction(1, 2), Fraction(7, 3)),
        "theta": theta_graph(1, 2, 3),
        "k4": k4([1, 2, Fraction(1, 2), 3, Fraction(5, 3), 1]),
        "two_loops_bridge": two_loops_bridge(3, Fraction(5, 4), 2),
        "dumbbell": dumbbell(),
    }


# ---------------------------------------------------------------------------
# seeded generators


def random_rational(rng: random.Random, max_num=12, max_den=12) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_pd_gram(rng: random.Random, max_rank=3):
    g = rng.randint(1, max_rank)
    while True:
        a = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
        det = _det_int(a)
        if det != 0:
            break
    scale = random_rational(rng, 6, 6)
    return [
        [scale * sum(a[k][i] * a[k][j] for k in range(g)) for j in range(g)]
        for i in range(g)
    ]


def _det_int(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _det_int(minor)
    return total


def random_point(rng: random.Random, g: int, den=12):
    return tuple(
        Fraction(rng.randint(-3 * den, 3 * den), rng.randint(1, den))
        for _ in range(g)
    )


def random_connected_multigraph(rng: random.Random, max_edges=6) -> MetricGraph:
    edge_count = rng.randint(1, max_edges)
    n = rng.randint(1, edge_count + 1)
    edges = []
    for v in range(1, n):
        edges.append(Edge(rng.randrange(v), v, random_rational(rng)))
    while len(edges) < edge_count:
        edges.append(Edge(rng.randrange(n), rng.randrange(n), random_rational(rng)))
    return MetricGraph(vertex_count=n, edges=tuple(edges))
