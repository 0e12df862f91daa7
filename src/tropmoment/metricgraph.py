"""Metric graphs: length, effective resistance, the tau invariant, and
cycle-space Gram matrices.

Queries are split by blocks (biconnected components): tau is additive
over one-point unions (Cinkir, The tau constant of metrized graphs and
its behavior under graph operations, Electron. J. Combin. 18 (2011)),
and resistance adds in series over the blocks a path crosses.  In a
block, edges are subdivided at the interior query points, the weighted
Laplacian (conductance 1/length) is grounded at one node q, scaled to
integers row by row, and inverted by fraction-free elimination and back
substitution: the Green's function G, integers over one determinant, with
r(p, q) = G(p, p) and r(a, b) = G(a, a) + G(b, b) - 2 G(a, b).  The tau
invariant is

    tau = (1/2) integral of r(x, q) d mu_can(x),

where mu_can is the canonical measure (Chinburg-Rumely; Baker-Rumely,
Potential Theory on the Berkovich Projective Line): mass 1 - val(p)/2 at
each vertex p and density (1 - F_e)/L_e on each edge e, with Foster
coefficient F_e = r(e-, e+)/L_e.  On an edge, r(., q) is the linear
interpolation of its endpoint values plus (1 - F_e) t (L_e - t)/L_e, so
the edge contributes (1 - F_e)((r(e-,q) + r(e+,q))/2 + L_e (1 - F_e)/6).
The result does not depend on the base point q.  ``_place`` validates
each query point and ``_network`` is the only place where points become
nodes: it cuts a block's edges at the interior ones.

The cycle space of the graph carries the Gram matrix

    gram[i][j] = sum over edges e of length(e) * c_i(e) * c_j(e)

over an integral cycle basis built from a deterministic DFS spanning
tree.  ``_spanning_tree`` is the only graph walk: the same DFS checks that
the graph is connected and gives the cycle basis and the block labels
their tree paths.  The normalized second moment of the cycle lattice is
basis-independent and satisfies the identity I = length/8 - tau/2, which
couples this module against the lattice/polytope pipeline through two
unrelated computations; the residual of that identity is exposed here.

Each graph keeps its spanning tree, its blocks with their node numbering,
its Jacobian lattice (and through it the lattice's Voronoi cell) and its
tau at vertex 0 for as long as it lives; tau at any other base point is
computed afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import _linalg
from .lattice import GramLattice, _as_fraction, _as_int
from .polytope import second_moment

__all__ = [
    "Edge",
    "MetricGraph",
    "GraphPoint",
    "DisconnectedGraphError",
    "RankZeroError",
    "total_length",
    "effective_resistance",
    "tau",
    "cycle_basis",
    "jacobian_gram",
    "graph_second_moment",
    "moment_identity_residual",
]


class DisconnectedGraphError(ValueError):
    pass


class RankZeroError(ValueError):
    """The graph is a tree; its cycle space is trivial."""


@dataclass(frozen=True)
class Edge:
    """An edge whose ends are read by ``lattice._as_int`` and whose length is
    read by ``lattice._as_fraction``, kept as a Fraction."""

    tail: int
    head: int
    length: Fraction

    def __post_init__(self):
        if type(self.tail) is not int or type(self.head) is not int:  # an int reads as itself
            object.__setattr__(self, "tail", _as_int(self.tail, "edge tail", ValueError))
            object.__setattr__(self, "head", _as_int(self.head, "edge head", ValueError))
        length = _as_fraction(self.length)
        if length <= 0:
            raise ValueError("edge lengths must be positive")
        object.__setattr__(self, "length", length)


@dataclass(frozen=True)
class GraphPoint:
    """A point on an edge, at arclength ``offset`` from the tail; the edge
    index is read by ``lattice._as_int``."""

    edge: int
    offset: Fraction

    def __post_init__(self):
        if type(self.edge) is not int:
            object.__setattr__(self, "edge", _as_int(self.edge, "edge index", ValueError))


@dataclass(frozen=True)
class MetricGraph:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if type(self.vertex_count) is not int:
            object.__setattr__(
                self, "vertex_count", _as_int(self.vertex_count, "vertex_count", ValueError))
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        for e in self.edges:
            if not (0 <= e.tail < self.vertex_count
                    and 0 <= e.head < self.vertex_count):
                raise ValueError(f"edge endpoint out of range: {e}")
        if len(self._tree) != self.vertex_count:
            raise DisconnectedGraphError("graph is not connected")

    @cached_property
    def _tree(self) -> dict[int, tuple[int, int] | None]:
        return _spanning_tree(self)

    @cached_property
    def _blocks(self):
        """(block of each edge, tree depth of each vertex, blocks): each
        block, keyed by one of its edges, as (its vertices numbered in order
        of first appearance, its edges as (index, local tail, local head,
        length))."""
        tree = self._tree
        depth = {0: 0}
        for w, (v, _) in list(tree.items())[1:]:
            depth[w] = depth[v] + 1
        # union-find over edges: an edge joins the tree edges of the tree
        # path between its ends (none for a loop, itself for a tree edge)
        up = list(range(len(self.edges)))

        def find(i):
            while up[i] != i:
                up[i] = up[up[i]]
                i = up[i]
            return i

        for idx, e in enumerate(self.edges):
            for step, _, _ in _tree_path(tree, depth, e.tail, e.head):
                up[find(step)] = find(idx)
        label = [find(idx) for idx in range(len(self.edges))]
        blocks: dict[int, tuple[dict[int, int], list]] = {}
        for idx, e in enumerate(self.edges):
            local, edges = blocks.setdefault(label[idx], ({}, []))
            t = local.setdefault(e.tail, len(local))
            edges.append((idx, t, local.setdefault(e.head, len(local)), e.length))
        return label, depth, blocks

    @cached_property
    def _tau(self) -> Fraction:
        return _tau_at(self, 0)

    @cached_property
    def _jacobian(self) -> GramLattice:
        basis = cycle_basis(self)
        if not basis:
            raise RankZeroError("graph is a tree; the cycle lattice is trivial")
        lengths, den = _linalg.integer_row([e.length for e in self.edges])
        gram = tuple(
            tuple(Fraction(sum(l * x * y for l, x, y in zip(lengths, bi, bj)), den) for bj in basis)
            for bi in basis
        )
        return GramLattice(rank=len(basis), gram=gram)


def make_graph(vertex_count: int, edges) -> MetricGraph:
    """Convenience constructor from (tail, head, length) triples; each length
    goes to :class:`Edge` as it is."""
    # From a list: tuple() of a generator resizes its tuple, and on CPython
    # 3.11 each resize parks one more tuple in the free lists (about 100 B
    # of RSS per graph built, until the lists fill).
    return MetricGraph(
        vertex_count=vertex_count,
        edges=tuple([Edge(t, h, l) for t, h, l in edges]),
    )


def total_length(graph: MetricGraph) -> Fraction:
    nums, den = _linalg.integer_row([e.length for e in graph.edges])
    return Fraction(sum(nums), den)


def _place(graph: MetricGraph, point):
    """A valid query point (vertex id or GraphPoint) as a vertex id, or as
    (edge index, offset) strictly inside the edge."""
    if isinstance(point, int):
        if not 0 <= point < graph.vertex_count:
            raise ValueError(f"vertex id {point} out of range")
        return point
    if not isinstance(point, GraphPoint):
        raise ValueError(f"{type(point).__name__} {point!r} is not a vertex id or GraphPoint")
    if not 0 <= point.edge < len(graph.edges):
        raise ValueError(f"edge index {point.edge} out of range")
    e = graph.edges[point.edge]
    off = _as_fraction(point.offset)
    if not 0 <= off <= e.length:
        raise ValueError("offset is outside the edge")
    if off == 0:
        return e.tail
    if off == e.length:
        return e.head
    return point.edge, off


def _network(graph: MetricGraph, block: int, places):
    """A block with its edges cut at the given places (from ``_place``, all
    in the block), as (edge triples, node count, node id of each place).

    Places at the same point share one node.  New nodes are numbered after
    the block's vertices in edge order, then offset order; uncut edges
    pass through as they are.
    """
    local, block_edges = graph._blocks[2][block]
    cuts: dict[int, set[Fraction]] = {}
    for x in places:
        if not isinstance(x, int):
            cuts.setdefault(x[0], set()).add(x[1])
    nodes = len(local)
    edges: list[tuple[int, int, Fraction]] = []
    node_of: dict[tuple[int, Fraction], int] = {}
    for idx, t, h, length in block_edges:
        if idx not in cuts:
            edges.append((t, h, length))
            continue
        prev_node, prev_off = t, Fraction(0)
        for off in sorted(cuts[idx]):
            node_of[idx, off] = nodes
            edges.append((prev_node, nodes, off - prev_off))
            prev_node, prev_off = nodes, off
            nodes += 1
        edges.append((prev_node, h, length - prev_off))
    return edges, nodes, [local[x] if isinstance(x, int) else node_of[x] for x in places]


def _green(edges, node_count: int, ground: int, sources) -> tuple[list[list[int]], int]:
    """Rows G(s, .) of the Green's function grounded at ``ground``, as
    ``(nums, det)`` with G(s, v) = nums[i][v] / det for the i-th source s.

    G(s, v) is the potential at node v when a unit current enters at s and
    leaves at ``ground``: the inverse of the Laplacian (conductance
    1/length) with the ground's row and column deleted, padded with zeros
    at the ground.  Then r(s, ground) = G(s, s) and, for any nodes a, b,
    r(a, b) = G(a, a) + G(b, b) - 2 G(a, b).  Node v's row and right-hand
    side are scaled to integers by the lcm of the length numerators at v,
    which leaves G unchanged; one fraction-free elimination, then back
    substitution for each source.
    """
    scale = [1] * node_count
    for t, h, length in edges:
        if t != h:
            scale[t] = lcm(scale[t], length.numerator)
            scale[h] = lcm(scale[h], length.numerator)
    lap = [[0] * node_count for _ in range(node_count)]
    for t, h, length in edges:
        if t == h:
            continue
        for v, w in ((t, h), (h, t)):
            c = length.denominator * (scale[v] // length.numerator)
            lap[v][v] += c
            lap[v][w] -= c
    del lap[ground]
    for row in lap:
        del row[ground]
    free = [v for v in range(node_count) if v != ground]
    sol = _linalg.int_solve(lap, [[scale[v] * (v == s) for v in free] for s in sources])
    if sol is None:
        raise DisconnectedGraphError("singular Laplacian: graph not connected")
    nums, det = sol
    return [x[:ground] + [0] + x[ground:] for x in nums], det


def effective_resistance(graph: MetricGraph, p, q) -> Fraction:
    """Effective resistance between two points (vertex ids or GraphPoints).

    Blocks meet at cut vertices, so resistance adds in series over the
    blocks that a path crosses (as in Cinkir 2011).  The spanning-tree path
    from p to q is grouped by block, and each block gets one solve between
    the nodes where the path enters and leaves it.
    """
    label, depth, _ = graph._blocks
    p, q = _place(graph, p), _place(graph, q)
    a, b = (x if isinstance(x, int) else graph.edges[x[0]].tail for x in (p, q))
    # the path p, a, ..., b, q as (block, node, next node) steps
    steps = [(label[idx], x, y) for idx, x, y in _tree_path(graph._tree, depth, a, b)]
    if not isinstance(p, int):
        steps.insert(0, (label[p[0]], p, a))
    if not isinstance(q, int):
        steps.append((label[q[0]], b, q))
    # a path never re-enters a block it left: blocks meet at cut vertices
    runs: dict[int, list] = {}
    for block, x, y in steps:
        runs.setdefault(block, [x, y])[1] = y
    total, total_den = 0, 1
    for block, (x, y) in runs.items():
        edges, node_count, (s, t) = _network(graph, block, [x, y])
        if s != t:
            (row,), det = _green(edges, node_count, t, [s])
            total, total_den = total * det + row[s] * total_den, total_den * det
    return Fraction(total, total_den)


def tau(graph: MetricGraph, q=0) -> Fraction:
    """The tau invariant: (1/2) integral of r(x, q) d mu_can(x).

    Independent of the base point q (vertex id or GraphPoint); q defaults
    to vertex 0.  tau is additive over one-point unions (Cinkir 2011), so
    it is summed over the blocks, each with one Green's function, grounded
    at q if the block holds q (subdividing q's edge) and at its first node
    otherwise.  That gives every r(p, base) and every Foster coefficient
    F_e = r(e-, e+) / L_e of the block.  The value at vertex 0 is kept on
    the graph; any other base point is computed afresh, so comparing base
    points compares independent solves.
    """
    if isinstance(q, int) and q == 0:
        return graph._tau
    return _tau_at(graph, q)


def _tau_at(graph: MetricGraph, q) -> Fraction:
    q = _place(graph, q)
    label, _, blocks = graph._blocks
    total, total_den = 0, 1  # tau = total / (2 total_den)
    for block, (local, _) in blocks.items():
        holds = q in local if isinstance(q, int) else label[q[0]] == block
        edges, node_count, (base,) = _network(graph, block, [q if holds else next(iter(local))])
        nums, det = _green(edges, node_count, base, range(node_count))
        diag = [nums[v][v] for v in range(node_count)]  # r(v, base) = diag[v] / det
        # the vertex terms are vertex_sum / (2 det), with the sum over v of
        # (2 - val(v)) diag[v] taken as 2 sum(diag) minus each edge's pair;
        # the edge terms are edge_sum / (6 m det^2)
        vertex_sum, edge_sum, m = 2 * sum(diag), 0, 1
        for t, h, length in edges:
            num, den = length.numerator, length.denominator
            # With L = num/den and S = diag[t] + diag[h], 1 - F_e = slack / (det num),
            # so the edge term is slack (3 den S + slack) / (6 num den det^2).
            pair = diag[t] + diag[h]
            slack = det * num - den * (pair - 2 * nums[t][h])
            vertex_sum -= pair
            w = lcm(m, num * den)
            edge_sum = edge_sum * (w // m) + slack * (3 * den * pair + slack) * (w // (num * den))
            m = w
        block_den = 6 * m * det * det
        total = total * block_den + (edge_sum + 3 * m * det * vertex_sum) * total_den
        total_den *= block_den
    return Fraction(total, 2 * total_den)


def _tree_path(tree, depth, a: int, b: int) -> list[tuple[int, int, int]]:
    """The path from vertex a to vertex b in the spanning tree (parent
    links and depths), as (edge index, node, next node) steps."""
    head, tail = [], []
    while a != b:
        if depth[a] >= depth[b]:
            v, idx = tree[a]
            head.append((idx, a, v))
            a = v
        else:
            v, idx = tree[b]
            tail.append((idx, v, b))
            b = v
    return head + tail[::-1]


def _spanning_tree(graph: MetricGraph) -> dict[int, tuple[int, int] | None]:
    """The DFS spanning tree of the component of vertex 0 (lowest edge index
    wins ties): each vertex reached maps to (its parent, the edge joining
    them), the root 0 to None, and parents come before their children."""
    # keyed by vertex: vertex_count is not bounded by the edges
    incident: dict[int, list[tuple[int, int]]] = {}
    for idx, e in enumerate(graph.edges):
        incident.setdefault(e.tail, []).append((idx, e.head))
        if e.head != e.tail:
            incident.setdefault(e.head, []).append((idx, e.tail))
    tree: dict[int, tuple[int, int] | None] = {0: None}
    stack = [0]
    while stack:
        v = stack.pop()
        # reversed push so the lowest edge index is explored first
        for idx, w in reversed(incident.get(v, ())):
            if w not in tree:
                tree[w] = (v, idx)
                stack.append(w)
    return tree


def cycle_basis(graph: MetricGraph) -> list[list[int]]:
    """Integral cycle basis from the DFS spanning tree of ``_spanning_tree``;
    one coefficient vector per independent cycle."""
    # path[v]: the signed tree path from the root 0 to v, as edge coefficients
    path = {0: [0] * len(graph.edges)}
    for w, (v, idx) in list(graph._tree.items())[1:]:
        path[w] = path[v][:]
        path[w][idx] = 1 if graph.edges[idx].tail == v else -1
    basis: list[list[int]] = []
    for idx, e in enumerate(graph.edges):
        # along e from tail to head, then back to the tail in the tree: zero
        # exactly when e is a tree edge
        vec = [x - y for x, y in zip(path[e.tail], path[e.head])]
        vec[idx] += 1
        if any(vec):
            basis.append(vec)
    return basis


def jacobian_gram(graph: MetricGraph) -> GramLattice:
    """Gram matrix of the cycle lattice with edge-length weights; built
    once per graph and kept on it, so its Voronoi cell is built once too."""
    return graph._jacobian


def graph_second_moment(graph: MetricGraph) -> Fraction:
    """Normalized second moment of the cycle lattice; 0 for trees."""
    try:
        lat = jacobian_gram(graph)
    except RankZeroError:
        return Fraction(0)
    return second_moment(lat)


def moment_identity_residual(graph: MetricGraph) -> Fraction:
    """graph_second_moment - (length/8 - tau/2); identically zero."""
    ell = total_length(graph)
    return graph_second_moment(graph) - (ell / 8 - tau(graph) / 2)
