import random
import re
from fractions import Fraction

import pytest

from conftest import (
    circle,
    count_calls,
    dumbbell,
    k4,
    named_graphs,
    oracle_resistance,
    oracle_tau,
    random_connected_multigraph,
    random_rational,
    segment,
    star3,
    theta_graph,
    two_loops_bridge,
)
from tropmoment import metricgraph
from tropmoment.lattice import validate
from tropmoment.metricgraph import (
    DisconnectedGraphError,
    Edge,
    GraphPoint,
    MetricGraph,
    RankZeroError,
    cycle_basis,
    effective_resistance,
    graph_second_moment,
    jacobian_gram,
    make_graph,
    moment_identity_residual,
    tau,
    total_length,
)
from tropmoment.polytope import second_moment

F = Fraction


def test_total_length_examples():
    assert total_length(circle(5)) == 5
    assert total_length(segment(3)) == 3
    assert total_length(theta_graph(1, 2, 3)) == 6


def test_total_length_sums_over_one_denominator():
    rng = random.Random(2718)
    graphs = list(named_graphs().values()) + [MetricGraph(vertex_count=1, edges=())]
    graphs += [random_connected_multigraph(rng) for _ in range(30)]
    for graph in graphs:
        got = total_length(graph)
        assert type(got) is Fraction
        assert got == sum((e.length for e in graph.edges), F(0))


def test_query_point_of_another_type_is_refused():
    graph = theta_graph(1, 2, 3)
    with pytest.raises(ValueError, match="float 1.0 is not a vertex id or GraphPoint"):
        tau(graph, 1.0)
    with pytest.raises(ValueError, match="str '1' is not a vertex id or GraphPoint"):
        effective_resistance(graph, 0, "1")
    with pytest.raises(ValueError, match="tuple"):
        effective_resistance(graph, (0, F(1, 2)), 1)


def test_query_point_off_the_graph_is_refused():
    graph = theta_graph(1, 2, 3)
    with pytest.raises(ValueError, match="vertex id 2 out of range"):
        effective_resistance(graph, 0, 2)
    with pytest.raises(ValueError, match="offset is outside the edge"):
        effective_resistance(graph, 0, GraphPoint(0, F(3, 2)))


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        make_graph(3, [(0, 1, 1)])


def test_connectivity_walk_is_not_sized_by_vertex_count():
    # the walk visits only vertices that edges reach, so a huge vertex
    # count with one edge is rejected at once
    with pytest.raises(DisconnectedGraphError):
        MetricGraph(vertex_count=10**18, edges=(Edge(0, 1, F(1)),))


def test_nonpositive_length_rejected():
    with pytest.raises(ValueError):
        Edge(0, 1, F(0))


def test_resistance_segment_series():
    assert effective_resistance(segment(3), 0, 1) == 3


def test_resistance_circle_parallel_arcs():
    # arcs of length t and ell - t in parallel: t (ell - t) / ell
    g = circle(4)
    p = GraphPoint(edge=0, offset=F(0))
    q = GraphPoint(edge=0, offset=F(1))
    assert effective_resistance(g, p, q) == F(3, 4)
    assert effective_resistance(g, 0, GraphPoint(0, F(2))) == 1


def test_resistance_two_parallel_edges():
    g = make_graph(2, [(0, 1, 2), (0, 1, 3)])
    assert effective_resistance(g, 0, 1) == F(6, 5)


def test_resistance_is_a_metric():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_multigraph(rng, max_edges=5)
        points = list(range(g.vertex_count))
        for idx, e in enumerate(g.edges):
            points.append(GraphPoint(idx, e.length / 3))
        sample = [points[rng.randrange(len(points))] for _ in range(3)]
        p, q, r = sample
        rpq = effective_resistance(g, p, q)
        rqp = effective_resistance(g, q, p)
        assert rpq == rqp
        assert rpq >= 0
        rqr = effective_resistance(g, q, r)
        rpr = effective_resistance(g, p, r)
        assert rpr <= rpq + rqr


def test_resistance_zero_iff_same_point():
    g = theta_graph(1, 2, 3)
    assert effective_resistance(g, 0, 0) == 0
    p = GraphPoint(edge=1, offset=F(1, 2))
    assert effective_resistance(g, p, p) == 0
    assert effective_resistance(g, GraphPoint(0, F(0)), 0) == 0
    assert effective_resistance(g, 0, 1) > 0


def test_edge_index_out_of_range_rejected():
    g = theta_graph(1, 2, 3)
    for edge in (-1, -3, 3, 7):
        point = GraphPoint(edge, F(1, 2))
        with pytest.raises(ValueError, match="edge index .* out of range"):
            tau(g, point)
        with pytest.raises(ValueError, match="edge index .* out of range"):
            effective_resistance(g, point, 0)
        with pytest.raises(ValueError, match="edge index .* out of range"):
            effective_resistance(g, 0, GraphPoint(edge, F(0)))


def test_float_offset_rejected():
    g = theta_graph(1, 2, 3)
    for point in (GraphPoint(0, 0.1), GraphPoint(1, 1.0)):
        with pytest.raises(ValueError, match="float entry .* rejected"):
            effective_resistance(g, point, 1)
        with pytest.raises(ValueError, match="float entry .* rejected"):
            tau(g, point)
    point = GraphPoint(0, F(1, 10))
    assert effective_resistance(g, point, 1) == oracle_resistance(g, point, 1)


def test_resistance_restricted_to_edge_is_quadratic():
    # fit through 0, L/2, L; a fourth sample at L/4 must match
    rng = random.Random(8)
    for _ in range(8):
        g = random_connected_multigraph(rng, max_edges=5)
        base = rng.randrange(g.vertex_count)
        idx = rng.randrange(len(g.edges))
        length = g.edges[idx].length

        def r(offset):
            return effective_resistance(g, GraphPoint(idx, offset), base)

        r0, rm, rl = r(F(0)), r(length / 2), r(length)
        qa = 2 * ((rl - r0) - 2 * (rm - r0)) / (length * length)
        qb = (4 * (rm - r0) - (rl - r0)) / length
        t = length / 4
        assert r(t) == qa * t * t + qb * t + r0


def test_tau_segment_quarter():
    assert tau(segment(7), 0) == F(7, 4)
    assert tau(segment(7), 1) == F(7, 4)


def test_tau_circle_twelfth():
    assert tau(circle(12)) == 1
    assert tau(circle(F(7, 3))) == F(7, 36)


def test_tau_tree_quarter_length():
    g = star3(1, F(1, 2), F(7, 3))
    assert tau(g) == total_length(g) / 4
    assert tau(segment(5)) == F(5, 4)


def test_tau_base_point_independence():
    for name, g in named_graphs().items():
        values = {tau(g, q) for q in range(g.vertex_count)}
        interior = GraphPoint(0, g.edges[0].length / 3)
        values.add(tau(g, interior))
        assert len(values) == 1, name


def test_tau_at_other_base_points_solves_afresh(monkeypatch):
    g = k4()
    expected = tau(g)
    calls = count_calls(monkeypatch, metricgraph, "_green")
    base_points = [1, 2, 3, GraphPoint(0, g.edges[0].length / 3), GraphPoint(2, F(1, 5))]
    for k, q in enumerate(base_points, 1):
        assert tau(g, q) == expected
        assert len(calls) == k
    assert tau(g) == tau(g, 0) == expected
    assert len(calls) == len(base_points)


def _oracle_graphs():
    rng = random.Random(20260810)
    seeded = [random_connected_multigraph(rng) for _ in range(200)]
    return list(named_graphs().values()) + seeded


def test_tau_matches_oracle():
    # closed form on the canonical measure against per-edge quadratic fits
    for g in _oracle_graphs():
        bases = list(range(g.vertex_count))
        bases.append(GraphPoint(0, g.edges[0].length / 3))
        for q in bases:
            assert tau(g, q) == oracle_tau(g, q), (g, q)


def test_effective_resistance_matches_oracle():
    for g in _oracle_graphs():
        for idx, e in enumerate(g.edges):
            near = GraphPoint(idx, e.length / 5)
            far = GraphPoint(idx, 3 * e.length / 4)
            for p, q in ((e.tail, e.head), (near, far), (far, 0), (e.head, near)):
                assert effective_resistance(g, p, q) == oracle_resistance(g, p, q)


def test_endpoints_and_coincident_points_share_a_node():
    for g in _oracle_graphs():
        for idx, e in enumerate(g.edges):
            start, end = GraphPoint(idx, F(0)), GraphPoint(idx, e.length)
            assert effective_resistance(g, start, e.tail) == 0
            assert effective_resistance(g, e.head, end) == 0
            assert tau(g, start) == tau(g, e.tail)
    # the same interior point, once with an int offset and once with a Fraction
    g = theta_graph(1, 2, 3)
    assert effective_resistance(g, GraphPoint(2, 1), GraphPoint(2, F(1))) == 0
    assert effective_resistance(g, GraphPoint(2, 1), GraphPoint(2, F(2))) > 0


def test_tau_complete_graphs_unit_length():
    expected = {3: F(1, 4), 4: F(5, 16), 5: F(23, 50), 6: F(25, 36), 7: F(199, 196)}
    for n, value in expected.items():
        pairs = [(i, j, 1) for i in range(n) for j in range(i + 1, n)]
        assert tau(make_graph(n, pairs)) == value


def test_cycle_basis_size():
    g = k4()
    assert len(cycle_basis(g)) == 3
    assert len(cycle_basis(segment(1))) == 0
    for vec in cycle_basis(theta_graph(1, 1, 1)):
        assert len(vec) == 3


def test_cycle_basis_is_a_basis_of_the_cycles():
    # Each vector is a cycle, and some column of the basis matrix is the
    # i-th unit vector for each i: betti independent cycles whose values on
    # those edges are their coefficients, hence a Z-basis of the cycles.
    for g in _oracle_graphs():
        basis = cycle_basis(g)
        assert len(basis) == len(g.edges) - g.vertex_count + 1
        for vec in basis:
            boundary = [0] * g.vertex_count
            for c, e in zip(vec, g.edges):
                boundary[e.head] += c
                boundary[e.tail] -= c
            assert boundary == [0] * g.vertex_count, (g, vec)
        columns = list(zip(*basis))
        for i in range(len(basis)):
            unit = tuple(int(k == i) for k in range(len(basis)))
            assert unit in columns, (g, basis)


def test_jacobian_circle():
    lat = jacobian_gram(circle(12))
    assert lat.gram == ((F(12),),)


def test_jacobian_theta_graph():
    a, b, c = F(2), F(3), F(5)
    lat = jacobian_gram(theta_graph(a, b, c))
    assert lat.rank == 2
    det = lat.gram[0][0] * lat.gram[1][1] - lat.gram[0][1] * lat.gram[1][0]
    assert det == a * b + b * c + c * a
    reference = validate([[a + b, -b], [-b, b + c]])
    assert second_moment(lat) == second_moment(reference)


def test_jacobian_two_loops_bridge_diagonal():
    p, r = F(3), F(5, 4)
    lat = jacobian_gram(two_loops_bridge(p, r, 2))
    assert set(lat.gram) == {(p, F(0)), (F(0), r)} or set(lat.gram) == {
        (r, F(0)),
        (F(0), p),
    }


def test_jacobian_tree_raises():
    with pytest.raises(RankZeroError):
        jacobian_gram(star3(1, 1, 1))


def test_graph_second_moment_examples():
    assert graph_second_moment(circle(12)) == 1
    assert graph_second_moment(star3(1, 2, 3)) == 0
    assert graph_second_moment(theta_graph(1, 1, 1)) == F(5, 18)


def test_moment_identity_on_fixtures():
    for name, g in named_graphs().items():
        assert moment_identity_residual(g) == 0, name


def test_moment_identity_circle_instantiated():
    g = circle(12)
    assert graph_second_moment(g) == F(12, 8) - tau(g) / 2 == 1


def test_moment_identity_seeded():
    rng = random.Random(9)
    for _ in range(50):
        g = random_connected_multigraph(rng)
        assert moment_identity_residual(g) == 0


def test_second_moment_invariant_under_edge_relabeling():
    # relabeling edges changes the DFS tree and hence the cycle basis;
    # the normalized second moment must not move
    rng = random.Random(10)
    for _ in range(6):
        g = random_connected_multigraph(rng)
        base = graph_second_moment(g)
        edges = list(g.edges)
        rng.shuffle(edges)
        shuffled = MetricGraph(vertex_count=g.vertex_count, edges=tuple(edges))
        assert graph_second_moment(shuffled) == base


def test_dumbbell_matches_two_loops():
    # the bar carries no cycle: only the loop lengths matter
    g = dumbbell()
    lat = jacobian_gram(g)
    assert {lat.gram[0][0], lat.gram[1][1]} == {F(5, 2), F(7, 3)}
    assert lat.gram[0][1] == 0


def test_moment_identity_on_degenerate_banana_graphs():
    # equal parallel edges give the maximally symmetric cycle lattices,
    # whose cells have highly degenerate vertices
    for copies in (4, 5, 6):
        g = make_graph(2, [(0, 1, 1)] * copies)
        assert moment_identity_residual(g) == 0


def test_bouquet_diagonal_lattice():
    g = make_graph(1, [(0, 0, F(k + 1, 2)) for k in range(6)])
    lat = jacobian_gram(g)
    assert lat.rank == 6
    for i in range(6):
        for j in range(6):
            assert lat.gram[i][j] == (F(i + 1, 2) if i == j else 0)
    assert moment_identity_residual(g) == 0


def _glued_graph(rng):
    """A seeded graph of blocks meeting at cut vertices, with the tau of
    each of its parts: a K4 and random multigraphs glued at a vertex or
    joined by a bridge, then a pendant tree and loops hung on."""
    edges, parts = [], []
    count = 1

    def attach(part, at):
        # the part's vertex 0 becomes vertex ``at``; its others are new
        nonlocal count
        ids = [at] + list(range(count, count + part.vertex_count - 1))
        count += part.vertex_count - 1
        edges.extend((ids[e.tail], ids[e.head], e.length) for e in part.edges)
        parts.append(oracle_tau(part))

    attach(k4([random_rational(rng) for _ in range(6)]), 0)
    for _ in range(2):
        part = random_connected_multigraph(rng, max_edges=5)
        at = rng.randrange(count)
        if rng.random() < 0.5:  # a bridge from ``at`` to a new vertex
            length = random_rational(rng)
            edges.append((at, count, length))
            parts.append(length / 4)
            at, count = count, count + 1
        attach(part, at)
    for _ in range(rng.randint(1, 3)):  # the pendant tree
        length = random_rational(rng)
        edges.append((rng.randrange(count), count, length))
        parts.append(length / 4)
        count += 1
    for _ in range(rng.randint(1, 2)):
        length = random_rational(rng)
        v = rng.randrange(count)
        edges.append((v, v, length))
        parts.append(length / 12)
    return make_graph(count, edges), sum(parts)


def _glued_graphs():
    rng = random.Random(20261019)
    return [_glued_graph(rng) for _ in range(6)]


def test_tau_is_the_sum_over_glued_parts():
    # tau is additive over one-point unions: a segment adds L/4, a loop L/12
    for g, parts in _glued_graphs():
        inner = GraphPoint(len(g.edges) - 1, g.edges[-1].length / 3)
        assert oracle_tau(g, inner) == parts
        for q in [*range(g.vertex_count), inner]:
            assert tau(g, q) == parts, (g, q)


def test_resistance_across_glued_blocks_matches_oracle():
    for g, _ in _glued_graphs():
        last = g.vertex_count - 1
        pairs = [(p, q) for p in range(last) for q in range(p + 1, g.vertex_count)]
        inner = [GraphPoint(idx, e.length / 3) for idx, e in enumerate(g.edges)]
        pairs += [(p, q) for p, q in zip(inner, inner[1:] + [last, 0])]
        for p, q in pairs:
            assert effective_resistance(g, p, q) == oracle_resistance(g, p, q), (g, p, q)


def test_each_solve_covers_one_block(monkeypatch):
    # three K4s in a chain, meeting at vertices 3 and 6, and a pendant tree
    edges = []
    for start in (0, 3, 6):
        quad = range(start, start + 4)
        edges += [(a, b, F(a + b + 1, 3)) for a in quad for b in quad if a < b]
    edges += [(9, 10, F(1, 2)), (10, 11, 2), (10, 12, F(5, 7))]
    g = make_graph(13, edges)
    calls = count_calls(monkeypatch, metricgraph, "_green")
    expected = tau(g, 5)
    assert len(calls) == 6  # three K4s and three bridges
    assert expected == oracle_tau(g)
    assert effective_resistance(g, 1, 12) == oracle_resistance(g, 1, 12)
    assert len(calls) == 6 + 5  # crosses the three K4s and two bridges
    assert effective_resistance(g, 4, 5) == oracle_resistance(g, 4, 5)
    assert len(calls) == 6 + 5 + 1
    assert max(node_count - 1 for _, node_count, _, _ in calls) == 3


def test_float_edge_length_rejected():
    for length in (1.5, 0.25):
        with pytest.raises(ValueError, match=f"{length}.*int or a Fraction"):
            Edge(0, 1, length)
    assert Edge(0, 1, 3).length == 3
    # the convenience constructor hands lengths to Edge as they are
    with pytest.raises(ValueError, match="float entry 1.5 rejected"):
        make_graph(2, [(0, 1, 1.5)])


def test_edge_ends_must_be_ints():
    # read by operator.index, as every integer argument of the library is
    with pytest.raises(ValueError, match=re.escape("edge tail must be an int, got 0.5")):
        Edge(0.5, 1, 1)
    with pytest.raises(ValueError, match=re.escape("edge head must be an int, got '1'")):
        make_graph(2, [(0, "1", 1)])
    edge = Edge(True, 0, 1)
    assert (type(edge.tail), edge.tail) == (int, 1)


def test_vertex_count_must_be_an_int():
    with pytest.raises(ValueError, match=re.escape("vertex_count must be an int, got 2.0")):
        make_graph(2.0, [(0, 1, 1)])
    with pytest.raises(ValueError, match="vertex_count must be an int"):
        MetricGraph(vertex_count=None, edges=())


def test_graph_point_edge_must_be_an_int():
    g = theta_graph(1, 2, 3)
    with pytest.raises(ValueError, match=re.escape("edge index must be an int, got 0.0")):
        tau(g, GraphPoint(0.0, 1))
    with pytest.raises(ValueError, match="edge index must be an int"):
        effective_resistance(g, 0, GraphPoint("0", F(1, 2)))
    assert tau(g, GraphPoint(0, 1)) == tau(g, 1)


def _tree_plus_chords(n):
    """A random spanning tree on n vertices plus n // 5 random extra edges,
    lengths k/12 for k in 1..144."""
    rng = random.Random(1)
    ends = [(rng.randrange(v), v) for v in range(1, n)]
    ends += [tuple(rng.sample(range(n), 2)) for _ in range(n // 5)]
    return make_graph(n, [(u, v, F(rng.randint(1, 144), 12)) for u, v in ends])


def test_tau_on_a_dense_block_does_not_depend_on_the_base_point():
    g = _tree_plus_chords(120)
    local, _ = max(g._blocks[2].values(), key=lambda block: len(block[0]))
    assert len(local) == 74 and 0 in local
    # two base points in the large block: two independent 73-row solves
    assert tau(g, 0) == tau(g, max(local))
