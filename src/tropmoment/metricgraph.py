"""Metric graphs: length, effective resistance, the tau invariant, and
cycle-space Gram matrices.

Resistances are computed exactly: edges are subdivided at the interior
query points, the weighted graph Laplacian (conductance 1/length) is
grounded at one node q, scaled to integers row by row, and inverted by
one fraction-free integer solve: the Green's function G, integer numerators
over one determinant, with r(p, q) = G(p, p) and
r(a, b) = G(a, a) + G(b, b) - 2 G(a, b).  The tau invariant is

    tau = (1/2) integral of r(x, q) d mu_can(x),

where mu_can is the canonical measure (Chinburg-Rumely; Baker-Rumely,
Potential Theory on the Berkovich Projective Line): mass 1 - val(p)/2 at
each vertex p and density (1 - F_e)/L_e on each edge e, with Foster
coefficient F_e = r(e-, e+)/L_e.  On an edge, r(., q) is the linear
interpolation of its endpoint values plus (1 - F_e) t (L_e - t)/L_e, so
the edge contributes (1 - F_e)((r(e-,q) + r(e+,q))/2 + L_e (1 - F_e)/6).
The result does not depend on the base point q.  ``_network`` is the only
place where query points become nodes: it validates each point and cuts
the edges at the interior ones.

The cycle space of the graph carries the Gram matrix

    gram[i][j] = sum over edges e of length(e) * c_i(e) * c_j(e)

over an integral cycle basis built from a deterministic DFS spanning
tree.  ``_spanning_tree`` is the only graph walk: the same DFS checks that
the graph is connected and gives the cycle basis its tree paths.  The
normalized second moment of the cycle lattice is basis-independent and
satisfies the identity I = length/8 - tau/2, which couples this module
against the lattice/polytope pipeline through two unrelated computations;
the residual of that identity is exposed here.

Each graph keeps its Jacobian lattice (and through it the lattice's
Voronoi cell) and its tau at the default base point, vertex 0; both live
as long as the graph.  tau at any other base point is computed afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import _linalg
from .lattice import GramLattice
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
    tail: int
    head: int
    length: Fraction

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("edge lengths must be positive")


@dataclass(frozen=True)
class GraphPoint:
    """A point on an edge, at arclength ``offset`` from the tail."""

    edge: int
    offset: Fraction


@dataclass(frozen=True)
class MetricGraph:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        for e in self.edges:
            if not (0 <= e.tail < self.vertex_count
                    and 0 <= e.head < self.vertex_count):
                raise ValueError(f"edge endpoint out of range: {e}")
        if len(_spanning_tree(self)) != self.vertex_count:
            raise DisconnectedGraphError("graph is not connected")

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
    """Convenience constructor from (tail, head, length) triples."""
    return MetricGraph(
        vertex_count=vertex_count,
        edges=tuple(Edge(t, h, Fraction(l)) for t, h, l in edges),
    )


def total_length(graph: MetricGraph) -> Fraction:
    return sum((e.length for e in graph.edges), Fraction(0))


def _network(graph: MetricGraph, points):
    """The graph with its edges cut at the given points (vertex ids or
    GraphPoints), as (edge triples, node count, node id of each point).

    A point at offset 0 or at the edge's length is that endpoint, and
    points at the same place share one node.  New nodes are numbered after
    the vertices in edge order, then offset order; uncut edges pass
    through as they are.
    """
    ids: list = []
    cuts: dict[int, set[Fraction]] = {}
    for point in points:
        if isinstance(point, int):
            if not 0 <= point < graph.vertex_count:
                raise ValueError(f"vertex id {point} out of range")
            ids.append(point)
            continue
        if not 0 <= point.edge < len(graph.edges):
            raise ValueError(f"edge index {point.edge} out of range")
        e = graph.edges[point.edge]
        off = Fraction(point.offset)
        if not 0 <= off <= e.length:
            raise ValueError("offset is outside the edge")
        if off == 0:
            ids.append(e.tail)
        elif off == e.length:
            ids.append(e.head)
        else:
            cuts.setdefault(point.edge, set()).add(off)
            ids.append((point.edge, off))
    nodes = graph.vertex_count
    edges: list[tuple[int, int, Fraction]] = []
    node_of: dict[tuple[int, Fraction], int] = {}
    for idx, e in enumerate(graph.edges):
        if idx not in cuts:
            edges.append((e.tail, e.head, e.length))
            continue
        prev_node, prev_off = e.tail, Fraction(0)
        for off in sorted(cuts[idx]):
            node_of[idx, off] = nodes
            edges.append((prev_node, nodes, off - prev_off))
            prev_node, prev_off = nodes, off
            nodes += 1
        edges.append((prev_node, e.head, e.length - prev_off))
    return edges, nodes, [node_of[x] if isinstance(x, tuple) else x for x in ids]


def _green(edges, node_count: int, ground: int, sources) -> tuple[list[list[int]], int]:
    """Rows G(s, .) of the Green's function grounded at ``ground``, as
    ``(nums, det)`` with G(s, v) = nums[i][v] / det for the i-th source s.

    G(s, v) is the potential at node v when a unit current enters at s and
    leaves at ``ground``: the inverse of the Laplacian (conductance
    1/length) with the ground's row and column deleted, padded with zeros
    at the ground.  Then r(s, ground) = G(s, s) and, for any nodes a, b,
    r(a, b) = G(a, a) + G(b, b) - 2 G(a, b).  Node v's row and right-hand
    side are scaled to integers by the lcm of the length numerators at v,
    which leaves G unchanged; one Bareiss pass covers every source.
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
    """Effective resistance between two points (vertex ids or GraphPoints)."""
    edges, node_count, (a, b) = _network(graph, [p, q])
    if a == b:
        return Fraction(0)
    (row,), det = _green(edges, node_count, b, [a])
    return Fraction(row[a], det)


def tau(graph: MetricGraph, q=0) -> Fraction:
    """The tau invariant: (1/2) integral of r(x, q) d mu_can(x).

    Independent of the base point q (vertex id or GraphPoint); q defaults
    to vertex 0.  A base point interior to an edge is made a node by
    subdividing its edge; the Green's function grounded at q then gives
    every r(p, q) and every Foster coefficient F_e = r(e-, e+) / L_e.
    The value at vertex 0 is kept on the graph; any other base point is
    computed afresh, so comparing base points compares independent solves.
    """
    if isinstance(q, int) and q == 0:
        return graph._tau
    return _tau_at(graph, q)


def _tau_at(graph: MetricGraph, q) -> Fraction:
    edges, node_count, (base,) = _network(graph, [q])
    nums, det = _green(edges, node_count, base, range(node_count))
    diag = [nums[v][v] for v in range(node_count)]  # r(v, base) = diag[v] / det
    valence = [0] * node_count
    total = Fraction(0)
    for t, h, length in edges:
        valence[t] += 1
        valence[h] += 1
        num, den = length.numerator, length.denominator
        # With L = num/den and S = diag[t] + diag[h], 1 - F_e = slack / (det num),
        # so the edge term is slack (3 den S + slack) / (6 num den det^2).
        pair = diag[t] + diag[h]
        slack = det * num - den * (pair - 2 * nums[t][h])
        total += Fraction(slack * (3 * den * pair + slack), 6 * num * den * det * det)
    total += Fraction(sum((2 - val) * d for val, d in zip(valence, diag)), 2 * det)
    return total / 2


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
    for w, (v, idx) in list(_spanning_tree(graph).items())[1:]:
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
