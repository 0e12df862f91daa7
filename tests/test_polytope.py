import random
from fractions import Fraction

import pytest

from conftest import (
    count_calls,
    oracle_chamber_moment,
    oracle_cell_vertices,
    oracle_rank,
    oracle_star_simplices,
    random_connected_multigraph,
    random_pd_gram,
)
from tropmoment import polytope
from tropmoment.lattice import LatticeError, validate
from tropmoment.metricgraph import cycle_basis, jacobian_gram
from tropmoment.polytope import (
    DegeneratePolytopeError,
    HalfSpace,
    Polytope,
    VertexBudgetError,
    _star_facet_simplices,
    second_moment,
    star_triangulation,
    volume,
    voronoi_cell,
)

A2 = validate([[2, 1], [1, 2]])
ID2 = validate([[1, 0], [0, 1]])

F = Fraction


def test_cell_rank1_segment():
    cell = voronoi_cell(validate([[7]]))
    assert len(cell.halfspaces) == 2
    assert cell.vertices == ((F(-1, 2),), (F(1, 2),))


def test_cell_identity_square():
    cell = voronoi_cell(ID2)
    assert len(cell.halfspaces) == 4
    assert set(cell.vertices) == {
        (F(s1, 2), F(s2, 2)) for s1 in (-1, 1) for s2 in (-1, 1)
    }


def test_cell_a2_hexagon():
    # vertices frozen from the facet-pair brute-force oracle
    cell = voronoi_cell(A2)
    assert len(cell.halfspaces) == 6
    assert set(cell.vertices) == {
        (F(1, 3), F(1, 3)), (F(-1, 3), F(-1, 3)),
        (F(2, 3), F(-1, 3)), (F(-2, 3), F(1, 3)),
        (F(1, 3), F(-2, 3)), (F(-1, 3), F(2, 3)),
    }


def test_cell_vertices_are_tight_on_enough_facets():
    cell = voronoi_cell(A2)
    for v in cell.vertices:
        tight = sum(
            1
            for hs in cell.halfspaces
            if sum(r * c for r, c in zip(hs.row, v)) == hs.offset
        )
        assert tight >= 2


def test_volume_unit_square():
    assert volume(voronoi_cell(ID2)) == 1


def test_volume_rank1():
    assert volume(voronoi_cell(validate([[7]]))) == 1


def test_volume_a2():
    assert volume(voronoi_cell(A2)) == 1


def test_volume_is_one_for_random_lattices():
    rng = random.Random(77)
    for _ in range(15):
        lat = validate(random_pd_gram(rng))
        assert volume(voronoi_cell(lat)) == 1


def test_second_moment_circle_values():
    for ell in (1, 2, 7, 12, F(101, 3)):
        assert second_moment(validate([[ell]])) == F(ell) / 12


def test_second_moment_identity2():
    assert second_moment(ID2) == F(1, 6)


def test_second_moment_a2():
    # independently confirmed by hexagon triangulation and Monte Carlo
    assert second_moment(A2) == F(5, 18)


def test_second_moment_scaling_law():
    rng = random.Random(88)
    for _ in range(10):
        gram = random_pd_gram(rng)
        lat = validate(gram)
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = validate([[c * x for x in row] for row in gram])
        assert second_moment(scaled) == c * second_moment(lat)


def _direct_sum(g1, g2):
    n1, n2 = len(g1), len(g2)
    return [[g1[i][j] if i < n1 and j < n1 else F(0) for j in range(n1 + n2)]
            for i in range(n1)] + \
           [[g2[i - n1][j - n1] if j >= n1 else F(0) for j in range(n1 + n2)]
            for i in range(n1, n1 + n2)]


def test_second_moment_direct_sum():
    rng = random.Random(99)
    for _ in range(8):
        g1 = random_pd_gram(rng, max_rank=2)
        g2 = random_pd_gram(rng, max_rank=2)
        total = second_moment(validate(_direct_sum(g1, g2)))
        assert total == second_moment(validate(g1)) + second_moment(validate(g2))


def test_second_moment_positive():
    rng = random.Random(111)
    for _ in range(10):
        assert second_moment(validate(random_pd_gram(rng))) > 0


def test_cell_vertices_match_brute_force_oracle():
    # double description clips by u and -u in one step
    rng = random.Random(123)
    grams = [
        [[2, 1], [1, 2]],
        [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
        # cycle lattice of five equal parallel edges: degenerate vertices
        [[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]],
        random_pd_gram(rng, max_rank=4),
        random_pd_gram(rng, max_rank=4),
        _cartan(4, [(0, 1), (1, 2), (2, 3)]),
        _cartan(4, [(0, 1), (1, 2), (1, 3)]),
    ]
    # seeded random Grams, and sheared ones up to rank 5
    rng = random.Random(1357)
    grams += [random_pd_gram(rng, max_rank=4) for _ in range(4)]
    grams += [_sheared(gram, rng) for gram in (
        _cartan(4, [(0, 1), (1, 2), (1, 3)]),
        [[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]],
        [[int(i == j) for j in range(5)] for i in range(5)],
        _direct_sum(_cartan(2, [(0, 1)]), [[int(i == j) for j in range(3)] for i in range(3)]),
        _direct_sum(random_pd_gram(rng, max_rank=2), random_pd_gram(rng, max_rank=3)),
    )]
    assert max(len(gram) for gram in grams) == 5
    for gram in grams + _criterion02_grams():
        cell = voronoi_cell(validate(gram))
        normals = [hs.normal for hs in cell.halfspaces]
        assert set(cell.vertices) == oracle_cell_vertices(gram, normals)


def _criterion02_grams():
    """The cycle lattices of acceptance criterion 02, up to rank 4."""
    rng = random.Random(20260810)
    grams = []
    for _ in range(200):
        graph = random_connected_multigraph(rng, max_edges=6)
        if cycle_basis(graph) and jacobian_gram(graph).rank <= 4:
            grams.append(jacobian_gram(graph).gram)
    return grams


def _sheared(gram, rng):
    """U^T G U for a seeded unimodular U, far from a reduced basis."""
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        for row in u:
            row[j] += k * row[i]
    return [[sum(u[a][i] * gram[a][b] * u[b][j] for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]


def test_star_triangulation_matches_rank_tested_oracle():
    # the library triangulates and integrates the later facet of each pair
    # +-u; relevant vectors are sorted by norm then lex, so on a Voronoi cell
    # that is the one whose normal has a positive first nonzero coordinate
    rng = random.Random(2468)
    grams = [_cartan(n, [(i, i + 1) for i in range(n - 1)]) for n in range(2, 7)]
    grams += [[[int(i == j) for j in range(n)] for i in range(n)] for n in range(1, 5)]
    grams += [_cartan(4, [(0, 1), (1, 2), (1, 3)]),
              _cartan(5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
              _cartan(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])]
    grams += [_sheared(_cartan(n, [(i, i + 1) for i in range(n - 1)]), rng) for n in (3, 4)]
    grams += [random_pd_gram(rng, max_rank=4) for _ in range(6)]
    for gram in grams + _criterion02_grams():
        cell = voronoi_cell(validate(gram))
        reps = [k for k, hs in enumerate(cell.halfspaces)
                if next(c for c in hs.normal if c) > 0]
        assert 2 * len(reps) == len(cell.halfspaces)
        got = sorted(tuple(sorted(s)) for s, _ in _star_facet_simplices(cell))
        assert got == sorted(tuple(sorted(s)) for s in oracle_star_simplices(cell, reps))


def test_cell_vertices_minimize_distance_at_themselves():
    # a point lies in the cell iff its distance to the lattice is its own
    # norm; check it for every vertex, via the independent CVP search
    from tropmoment.lattice import closest_vectors_all, norm_sq

    rng = random.Random(321)
    lattices = [A2, ID2, validate(random_pd_gram(rng, max_rank=3))]
    for lat in lattices:
        for v in voronoi_cell(lat).vertices:
            dist_sq, sols = closest_vectors_all(lat, v)
            assert dist_sq == norm_sq(lat, v)
            assert (0,) * lat.rank in sols


def test_halfspace_semantics_match_bisectors():
    # the facet inequality [u, x] <= [u, u]/2 is exactly the bisector
    # condition |x|^2 <= |x - u|^2
    from tropmoment.lattice import norm_sq

    rng = random.Random(654)
    for _ in range(5):
        lat = validate(random_pd_gram(rng, max_rank=3))
        cell = voronoi_cell(lat)
        for v in cell.vertices:
            for hs in cell.halfspaces:
                lhs = norm_sq(lat, v)
                shifted = tuple(c - u for c, u in zip(v, hs.normal))
                tight = sum(r * c for r, c in zip(hs.row, v)) == hs.offset
                assert lhs <= norm_sq(lat, shifted)
                assert tight == (lhs == norm_sq(lat, shifted))


def test_star_triangulation_counts():
    assert len(star_triangulation(voronoi_cell(ID2))) == 4
    assert len(star_triangulation(voronoi_cell(A2))) == 6
    for simplex in star_triangulation(voronoi_cell(A2)):
        assert len(simplex) == 3 and simplex[0] == (F(0), F(0))


def test_star_triangulation_rejects_a_flat_simplex(monkeypatch):
    # a zero determinant means the origin and the simplex's vertices are
    # affinely dependent
    cell = voronoi_cell(validate([[2, 1], [1, 2]]))
    monkeypatch.setattr(polytope._linalg, "int_det", lambda rows: 0)
    with pytest.raises(DegeneratePolytopeError, match="flat"):
        star_triangulation(cell)
    with pytest.raises(DegeneratePolytopeError, match="flat"):
        volume(cell)


def test_volume_pairs_facets_by_their_rows_not_their_normal_labels():
    # the half star triangulates one facet of each pair, found from the
    # integer rows: shuffling the half-spaces and flipping the signs of
    # some of their normal labels must not change which facets cover the cell
    rng = random.Random(5)
    for _ in range(30):
        cell = voronoi_cell(validate(random_pd_gram(rng, max_rank=4)))
        halfspaces = []
        for hs in cell.halfspaces:
            sign = rng.choice((1, -1))
            normal = tuple(sign * c for c in hs.normal)
            halfspaces.append(HalfSpace(normal=normal, row=hs.row, offset=hs.offset))
        rng.shuffle(halfspaces)
        assert volume(Polytope(halfspaces=tuple(halfspaces), vertices=cell.vertices)) == 1


def test_star_triangulation_rejects_halfspaces_that_do_not_pair():
    # the square cell of Z^2 with one side listed twice: every half-space
    # supports a facet, but the pairs no longer match up
    cell = voronoi_cell(ID2)
    side = next(hs for hs in cell.halfspaces if hs.normal == (1, 0))
    doubled = Polytope(halfspaces=cell.halfspaces + (side,), vertices=cell.vertices)
    with pytest.raises(DegeneratePolytopeError, match="do not pair under negation"):
        volume(doubled)


def test_polytope_rejects_outside_vertex():
    cell = voronoi_cell(ID2)
    with pytest.raises(ValueError, match="violates a half-space"):
        Polytope(halfspaces=cell.halfspaces, vertices=((F(2), F(0)),))


def test_volume_degenerate_raises():
    cell = voronoi_cell(ID2)
    flat = Polytope(
        halfspaces=cell.halfspaces,
        vertices=((F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
    )
    with pytest.raises(DegeneratePolytopeError):
        volume(flat)


def test_star_triangulation_rejects_halfspace_without_facet():
    # rank-1 cell of [[7]] with only the vertex 1/2: no vertex is tight on
    # the half-space -7x <= 7/2
    cell = voronoi_cell(validate([[7]]))
    half = Polytope(halfspaces=cell.halfspaces, vertices=((F(1, 2),),))
    k = next(k for k, hs in enumerate(cell.halfspaces) if hs.normal == (-1,))
    with pytest.raises(DegeneratePolytopeError,
                       match=f"half-space {k} does not support a facet"):
        star_triangulation(half)


def test_star_triangulation_rejects_halfspace_on_a_facet_of_too_low_rank():
    # three corners of the square cell of Z^2: the two sides through the
    # missing corner keep one vertex each, a nonempty set of rank 1
    cell = voronoi_cell(ID2)
    corners = tuple(v for v in cell.vertices if v != (F(1, 2), F(-1, 2)))
    three = Polytope(halfspaces=cell.halfspaces, vertices=corners)
    k = next(k for k, facet in enumerate(three._facets) if facet.bit_count() == 1)
    with pytest.raises(DegeneratePolytopeError,
                       match=f"half-space {k} does not support a facet"):
        _star_facet_simplices(three)


def test_star_triangulation_rejects_vertex_set_not_closed_under_negation():
    # the segment [-1/7, 1/2]: both half-spaces support a facet, but the
    # segment is not symmetric, so a half star and its negation miss it
    right = next(hs for hs in voronoi_cell(validate([[7]])).halfspaces if hs.normal == (1,))
    left = HalfSpace(normal=(-1,), row=(F(-7),), offset=F(1))
    lopsided = Polytope(halfspaces=(right, left), vertices=((F(-1, 7),), (F(1, 2),)))
    with pytest.raises(DegeneratePolytopeError, match="not closed under negation"):
        star_triangulation(lopsided)
    with pytest.raises(DegeneratePolytopeError, match="not closed under negation"):
        volume(lopsided)


def test_cell_is_kept_on_its_lattice_only_after_a_build_within_budget(monkeypatch):
    # the 8 start corners fit in 10, so the cell is built and kept; its
    # whole-cell sweep runs, and fails, at the first read of the vertices
    gram = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    lat = validate(gram)
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 10)
    cell = voronoi_cell(lat)
    for _ in range(2):
        with pytest.raises(VertexBudgetError):
            cell.vertices
        assert not {"vertices", "_scaled", "_den", "_facets", "_negation"} & cell.__dict__.keys()
    assert getattr(cell, "missing", None) is None  # only those names are built lazily
    monkeypatch.undo()
    assert (len(cell.halfspaces), len(cell.vertices)) == (12, 14)
    assert voronoi_cell(lat) is cell
    assert cell == voronoi_cell(validate(gram)) and cell is not voronoi_cell(validate(gram))


def test_cell_scales_its_constraints_once_for_the_sweep_and_the_checks(monkeypatch):
    # the integer constraints come from the products den G u that build the
    # half-spaces, not from scaling their Fractions back, and double
    # description pairs the facets for the checks too
    scaled = count_calls(monkeypatch, polytope, "_integer_constraints")
    paired = count_calls(monkeypatch, polytope, "_mirrors")
    lat = validate([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    cell = voronoi_cell(lat)
    assert second_moment(lat) == F(3, 8) and volume(cell) == 1
    assert len(star_triangulation(cell)) == 2 * len(cell._star)
    assert (len(scaled), len(paired)) == (0, 1)


def test_rank_whose_box_corners_exceed_the_vertex_budget_is_refused_first(monkeypatch):
    # double description starts from 2^g corners: Z^17 holds 131 072
    # at once, so it is refused before the 2^17 - 1 coset searches
    calls = count_calls(monkeypatch, polytope, "relevant_vectors")
    z17 = validate([[int(i == j) for j in range(17)] for i in range(17)])
    with pytest.raises(VertexBudgetError, match=r"2\^17 start corners"):
        voronoi_cell(z17)
    assert calls == [] and "_cell" not in z17.__dict__
    # at 2^g == VERTEX_BUDGET the sweep runs: Z^2 holds 4 vertices throughout
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 4)
    assert len(voronoi_cell(validate([[1, 0], [0, 1]])).vertices) == 4
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 3)
    with pytest.raises(VertexBudgetError, match=r"2\^2 start corners"):
        voronoi_cell(validate([[1, 0], [0, 1]]))
    assert len(calls) == 1


def test_halfspace_invariants():
    with pytest.raises(ValueError):
        HalfSpace(normal=(0, 0), row=(F(0), F(0)), offset=F(1))
    with pytest.raises(ValueError):
        HalfSpace(normal=(1, 0), row=(F(1), F(0)), offset=F(0))


def test_polytope_rejects_float_vertex():
    cell = voronoi_cell(validate([[1]]))
    with pytest.raises(LatticeError, match="float entry 0.5 rejected"):
        Polytope(halfspaces=cell.halfspaces, vertices=((0.5,), (F(-1, 2),)))


def test_polytope_rejects_vertex_on_too_few_facets():
    cell = voronoi_cell(ID2)
    with pytest.raises(ValueError, match="tight on fewer"):
        Polytope(halfspaces=cell.halfspaces, vertices=((F(1, 2), F(0)),))


def test_polytope_rejects_duplicate_vertex():
    cell = voronoi_cell(ID2)
    corner = (F(1, 2), F(1, 2))
    with pytest.raises(ValueError, match="duplicates"):
        Polytope(halfspaces=cell.halfspaces, vertices=(corner, corner))


def test_polytope_rejects_no_halfspaces():
    with pytest.raises(ValueError, match="half-spaces must be nonempty"):
        Polytope(halfspaces=(), vertices=())


def test_polytope_rejects_halfspaces_of_mixed_length():
    cell = voronoi_cell(ID2)
    long_row = HalfSpace(normal=(1,), row=(F(1), F(0)), offset=F(1, 2))
    wide = HalfSpace(normal=(1, 0, 0), row=(F(1), F(0), F(0)), offset=F(1, 2))
    for extra in (long_row, wide):
        with pytest.raises(ValueError, match="of one dimension"):
            Polytope(halfspaces=cell.halfspaces + (extra,), vertices=cell.vertices)


def test_polytope_rejects_vertex_of_wrong_length():
    # the square cell of Z^2 with its eight coordinates regrouped: read in
    # pairs they are its four corners, but no vertex has two coordinates
    cell = voronoi_cell(ID2)
    h = F(1, 2)
    with pytest.raises(ValueError, match="every vertex must have 2 coordinates"):
        Polytope(halfspaces=cell.halfspaces, vertices=((h,), (h, h, -h), (-h, -h, -h), (h,)))


# Gold values from Conway & Sloane, "Voronoi regions of lattices, second
# moments of polytopes, and quantization", IEEE Trans. IT 28 (1982),
# rescaled from their G to the coordinate-measure I used here.


def _cartan(n, bonds):
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        gram[i][j] = gram[j][i] = -1
    return gram


def _check_cell(gram, moment, facets, vertices, root_lattice=True):
    lat = validate(gram)
    cell = voronoi_cell(lat)
    assert len(cell.halfspaces) == facets
    assert cell.vertex_count == len(cell.vertices) == vertices
    assert volume(cell) == 1
    assert second_moment(lat) == moment
    if root_lattice:  # gram is a Cartan matrix
        assert second_moment(lat) == oracle_chamber_moment(gram)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_gold_root_lattice_a(n):
    a_n = _cartan(n, [(i, i + 1) for i in range(n - 1)])
    _check_cell(a_n, n * (F(1, 12) + F(1, 6 * (n + 1))), n * (n + 1), 2 ** (n + 1) - 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gold_cubic_lattice(n):
    z_n = [[int(i == j) for j in range(n)] for i in range(n)]
    _check_cell(z_n, F(n, 12), 2 * n, 2**n, root_lattice=False)


def test_gold_root_lattice_d4():
    _check_cell(_cartan(4, [(0, 1), (1, 2), (1, 3)]), F(13, 30), 24, 24)


def test_gold_root_lattice_d5():
    _check_cell(_cartan(5, [(0, 1), (1, 2), (2, 3), (2, 4)]), F(1, 2), 40, 42)


def test_gold_root_lattice_d6():
    # no literature value at hand: the chamber oracle gives 4/7
    _check_cell(_cartan(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]), F(4, 7), 60, 76)


def test_gold_root_lattice_e6():
    # G(E6) = 5 / (56 * 3^(1/6)) (Conway & Sloane, SPLAG ch. 21), and
    # det E6 = 3, so I = g G det^(1/g) = 15/28
    _check_cell(_cartan(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]), F(15, 28), 72, 54)


def test_gold_root_lattice_e7():
    # G(E7) = 163 / (2016 * 2^(1/7)) (Conway & Sloane, SPLAG ch. 21), and
    # det E7 = 2, so I = g G det^(1/g) = 163/288
    e7 = _cartan(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
    _check_cell(e7, F(163, 288), 126, 632)


def test_gold_root_lattice_e8():
    # G(E8) = 929 / 12960 (Conway & Sloane, SPLAG ch. 21), and det E8 = 1,
    # so I = 8 G = 929/1620: one facet of 240, triangulated once
    e8 = _cartan(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)])
    _check_cell(e8, F(929, 1620), 240, 19440)


GOLD_GRAMS = (
    [_cartan(n, [(i, i + 1) for i in range(n - 1)]) for n in range(2, 8)]
    + [[[int(i == j) for j in range(n)] for i in range(n)] for n in range(1, 5)]
    + [_cartan(4, [(0, 1), (1, 2), (1, 3)]),
       _cartan(5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
       _cartan(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]),
       _cartan(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
       _cartan(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])])


def _per_halfspace_masks(poly):
    """Each half-space's tight vertices, one product per half-space."""
    a, b = polytope._integer_constraints(poly.halfspaces)
    return tuple(sum(1 << i for i, x in enumerate(poly._scaled)
                     if sum(r * c for r, c in zip(row, x)) == off * poly._den)
                 for row, off in zip(a, b))


def test_paired_facets_equal_per_halfspace_masks():
    # double description carries each vertex's tight facets through the sweep
    for gram in GOLD_GRAMS:
        cell = voronoi_cell(validate(gram))
        assert cell._facets == _per_halfspace_masks(cell)
    # a duplicated side and x <= 1, which has no mirror, are each tight on
    # their own vertices in the public constructor
    cell = voronoi_cell(ID2)
    side = next(hs for hs in cell.halfspaces if hs.normal == (1, 0))
    loose = HalfSpace(normal=(2, 0), row=(F(1), F(0)), offset=F(1))
    for extra in ((side,), (loose,), (side, loose)):
        poly = Polytope(cell.halfspaces + extra, cell.vertices)
        assert poly._facets == _per_halfspace_masks(poly)
        assert poly._facets[:4] == cell._facets


def test_second_moment_is_summed_once_per_cell(monkeypatch):
    gram = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    lat = validate(gram)
    cell = voronoi_cell(lat)
    calls = count_calls(monkeypatch, polytope, "_gram_image")
    assert second_moment(lat) == F(3, 8)
    summed = len(calls)
    assert summed > 0
    # the second call reads the moment kept on the cell
    assert second_moment(lat) == F(3, 8)
    assert len(calls) == summed and voronoi_cell(lat) is cell
    # a new lattice has a new cell, built and summed afresh
    before = len(calls)
    assert second_moment(validate(gram)) == F(3, 8)
    assert len(calls) - before > summed


RATIONAL_RANK4 = [[2, F(1, 3), 0, F(1, 2)], [F(1, 3), F(3, 2), F(-1, 5), 0],
                  [0, F(-1, 5), 1, F(1, 7)], [F(1, 2), 0, F(1, 7), F(5, 3)]]


def test_cell_from_double_description_equals_the_public_constructor():
    # voronoi_cell hands Polytope._index double description's rows, tight
    # masks and facet pairing; Polytope(halfspaces, vertices) derives them
    # from the Fractions, with one product per vertex and half-space
    grams = _orbit_grams() + [RATIONAL_RANK4]
    rng = random.Random(17)
    grams += [random_pd_gram(rng, max_rank=4) for _ in range(20)]
    for gram in grams:
        cell = voronoi_cell(validate(gram))
        assert cell.vertices == tuple(sorted(cell.vertices))
        public = Polytope(cell.halfspaces, cell.vertices)
        assert public == cell
        for name in ("_scaled", "_den", "_facets", "_negation", "_mirror"):
            assert getattr(public, name) == getattr(cell, name), name


@pytest.mark.parametrize("gram, dependent_start", [
    ([[7]], False),
    # the six pairs of A3 are the edges of K4, and a triangle of them is
    # dependent: the start must skip its third pair
    ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], True),
    (_sheared(_direct_sum(_cartan(2, [(0, 1)]), [[int(i == j) for j in range(3)]
                                                  for i in range(3)]), random.Random(97)), True),
])
def test_cell_vertices_do_not_depend_on_the_start(gram, dependent_start):
    # the start is the first g pairs, in facet order, with independent normals
    cell = voronoi_cell(validate(gram))
    expected = oracle_cell_vertices(gram, [hs.normal for hs in cell.halfspaces])
    assert set(cell.vertices) == expected
    a, b = polytope._integer_constraints(cell.halfspaces)
    g = len(gram)
    rng = random.Random(31)
    skipped = False
    for _ in range(12):
        order = list(range(len(a)))
        rng.shuffle(order)
        # the normal of each pair in order of first appearance
        firsts = list({frozenset((tuple(a[k]), tuple(-c for c in a[k]))): a[k]
                       for k in order}.values())
        skipped |= oracle_rank(firsts[:g]) < g
        a_k, b_k = [a[k] for k in order], [b[k] for k in order]
        rows, den, _ = polytope._vertices_dd(a_k, b_k, g, polytope._mirrors(a_k, b_k))
        assert {tuple(F(c, den) for c in r) for r in rows} == expected
        assert rows == sorted(rows)
    assert skipped == dependent_start


A2_PLUS_A3 = _direct_sum(_cartan(2, [(0, 1)]), _cartan(3, [(0, 1), (1, 2)]))


def _orbit_grams():
    rng = random.Random(4242)
    grams = list(GOLD_GRAMS) + [A2_PLUS_A3, _sheared(A2_PLUS_A3, rng)]
    grams += [_sheared(_cartan(n, [(i, i + 1) for i in range(n - 1)]), rng) for n in (3, 4)]
    grams += [random_pd_gram(rng, max_rank=4) for _ in range(12)]
    return grams + _criterion02_grams()


def test_orbit_sums_equal_the_half_star_sums(monkeypatch):
    # one facet per orbit of <-1, reflections>, each by its own double
    # description in g - 1 dimensions and weighted by the orbit's size,
    # against the half star of the whole cell: with the orbit search off
    grams = _orbit_grams()
    sweeps = count_calls(monkeypatch, polytope, "_vertices_dd")
    expected, dims = [], []
    for gram in grams:
        lat = validate(gram)
        cell = voronoi_cell(lat)
        sweeps.clear()
        expected.append((second_moment(lat), volume(cell), cell.vertex_count))
        dims.append([args[2] for args in sweeps])
        merged = cell._orbits is not None
        assert dims[-1] == ([len(gram) - 1] * len(cell._orbits) if merged else [len(gram)])
    # A_2 + A_3 takes one facet of each summand, a sheared A_4 one facet
    assert dims[grams.index(A2_PLUS_A3)] == [4, 4]
    sheared_a4 = len(GOLD_GRAMS) + 3
    assert len(grams[sheared_a4]) == 4 and grams[sheared_a4] != GOLD_GRAMS[2]
    assert dims[sheared_a4] == [3]
    monkeypatch.setattr(polytope, "_facet_orbits", lambda normals, a, b, mirror: None)
    for gram, want in zip(grams, expected):
        lat = validate(gram)
        cell = voronoi_cell(lat)
        assert cell._orbits is None
        assert (second_moment(lat), volume(cell), cell.vertex_count) == want
        assert cell.vertex_count == len(cell.vertices)


def test_facet_path_on_every_pair_equals_the_half_star(monkeypatch):
    # each pair +-u taken as an orbit of its own: one facet-local double
    # description per pair, weighted 2, on the criterion-02 Jacobians
    grams = [gram for gram in _criterion02_grams() if len(gram) >= 2]
    assert len(grams) == 83
    results = []
    for orbits in (lambda normals, a, b, mirror: None,
                   lambda normals, a, b, mirror: {k: 2 for k, m in enumerate(mirror) if m > k}):
        monkeypatch.setattr(polytope, "_facet_orbits", orbits)
        results.append([])
        for gram in grams:
            lat = validate(gram)
            cell = voronoi_cell(lat)
            results[-1].append((second_moment(lat), volume(cell), cell.vertex_count))
    half, facet = results
    assert facet == half
    assert all(volume == 1 for _, volume, _ in facet)


def test_facet_path_checks_its_vertices_and_their_count(monkeypatch):
    # the facet sweep's vertices, moved off the facet's ridges, and an
    # orbit whose degree sum is not a vertex count are each refused
    sweep = polytope._vertices_dd

    def scaled(num, den):
        def dd(a, b, g, mirror):
            rows, d, masks = sweep(a, b, g, mirror)
            return [tuple(num * c for c in r) for r in rows], den * d, masks
        return dd

    for num, den, message in ((2, 1, "violates a half-space"), (1, 2, "tight on fewer than 2")):
        monkeypatch.setattr(polytope, "_vertices_dd", scaled(num, den))
        with pytest.raises(DegeneratePolytopeError, match=message):
            volume(voronoi_cell(validate([[2, 1], [1, 2]])))
    monkeypatch.setattr(polytope, "_vertices_dd", sweep)
    # a rhombus of the rhombic dodecahedron A_3 has two vertices on 4
    # facets and two on 3: one facet alone counts 1/2 + 2/3 vertices
    monkeypatch.setattr(polytope, "_facet_orbits", lambda normals, a, b, mirror: {0: 1})
    with pytest.raises(DegeneratePolytopeError, match="count 7/6 vertices"):
        voronoi_cell(validate([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])).vertex_count


def _orbit_sizes(gram):
    orbits = voronoi_cell(validate(gram))._orbits
    return orbits and sorted(orbits.values())


def test_facet_orbits_of_root_lattices():
    # the roots of an irreducible root lattice form one orbit of its Weyl
    # group, and its relevant vectors are its roots
    for gram in GOLD_GRAMS[:6] + GOLD_GRAMS[10:]:
        cell = voronoi_cell(validate(gram))
        assert list(cell._orbits.values()) == [len(cell.halfspaces)]
    # A_2 + A_3: one orbit per summand, in any basis
    rng = random.Random(8)
    assert _orbit_sizes(A2_PLUS_A3) == _orbit_sizes(_sheared(A2_PLUS_A3, rng)) == [6, 12]
    # every e_i of Z^n is reflective, but each s_e_i fixes or negates every
    # e_j: every orbit is one pair, and the cell keeps the half star
    for gram in GOLD_GRAMS[6:10]:
        assert _orbit_sizes(gram) is None


def test_facet_orbit_image_outside_the_normals_raises():
    # the normals of A_2 without the pair +-(1, -1): the reflection in
    # (-1, 0) sends (0, -1) to (1, -1), which is no longer among them
    cell = voronoi_cell(A2)
    a, b = polytope._integer_constraints(cell.halfspaces)
    keep = [k for k, hs in enumerate(cell.halfspaces) if hs.normal not in ((1, -1), (-1, 1))]
    assert len(keep) == 4
    a, b = [a[k] for k in keep], [b[k] for k in keep]
    message = r"\(0, -1\) to \(1, -1\), which is not relevant"
    with pytest.raises(DegeneratePolytopeError, match=message):
        polytope._facet_orbits([cell.halfspaces[k].normal for k in keep], a, b,
                               polytope._mirrors(a, b))
