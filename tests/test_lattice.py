import itertools
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import (
    k4,
    oracle_cvp,
    oracle_relevant,
    oracle_relevant_by_enumeration,
    oracle_shortest,
    random_pd_gram,
    random_point,
    two_loops_bridge,
)
from tropmoment import lattice
from tropmoment.heights import function_field_height
from tropmoment.lattice import (
    DimensionMismatchError,
    GramLattice,
    LatticeError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    closest_vector,
    closest_vectors_all,
    inner,
    norm_sq,
    relevant_vectors,
    validate,
)
from tropmoment.metricgraph import (
    Edge,
    GraphPoint,
    effective_resistance,
    jacobian_gram,
    make_graph,
    tau,
)
from tropmoment.neron import tate_local_height_tropical

A2 = [[2, 1], [1, 2]]
ID2 = [[1, 0], [0, 1]]

F = Fraction


# every library entry point that takes an exact rational from its caller,
# each as a function of that one value
ENTRY_POINTS = {
    "GramLattice": lambda x: GramLattice(rank=1, gram=((x,),)).gram,
    "validate": lambda x: validate([[x]]).gram,
    "point": lambda x: norm_sq(validate([[2]]), (x,)),
    "Edge": lambda x: Edge(0, 1, x).length,
    "make_graph": lambda x: tau(make_graph(2, [(0, 1, x), (0, 1, 1)])),
    "offset": lambda x: effective_resistance(
        make_graph(2, [(0, 1, 4), (0, 1, 1)]), GraphPoint(0, x), 1),
    "tropical_ell": lambda x: tate_local_height_tropical(x, F(1, 2)),
    "tropical_nu": lambda x: tate_local_height_tropical(4, x),
    "function_field_height": lambda x: function_field_height(1, x, [x]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [0.1, None, 2 + 0j, "abc", Decimal("NaN"), "1/0"], ids=repr)
def test_entry_points_refuse_inexact_values(entry, value):
    with pytest.raises(LatticeError, match=re.escape(repr(value))):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [3, F(3, 4), "3/4"])
def test_entry_points_read_rationals_as_fractions(entry, value):
    expected = ENTRY_POINTS[entry](F(value))
    got = ENTRY_POINTS[entry](value)
    assert got == expected and type(got) is type(expected)


def test_validate_rank1_identity():
    lat = validate([[1]])
    assert lat.rank == 1
    assert lat.gram == ((Fraction(1),),)


def test_validate_a2():
    lat = validate(A2)
    assert lat.rank == 2


def test_validate_accepts_rational_strings():
    lat = validate([["2", "1"], ["1", "3/1"]])
    assert lat.gram[1][1] == 3


def test_validate_rejects_indefinite_with_minor_index():
    # the singular [[1, 1], [1, 1]] stops at a zero pivot; the 3x3 Gram has
    # leading minors 2, 3, -15
    for gram, index in (([[1, 2], [2, 1]], 2), ([[1, 1], [1, 1]], 2),
                        ([[2, 1, 0], [1, 2, 3], [0, 3, 1]], 3)):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            validate(gram)
        assert exc.value.minor_index == index


def test_validate_rejects_negative_leading_entry():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        validate([[-1]])
    assert exc.value.minor_index == 1


def test_validate_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        validate([[1, 0], [1, 1]])


def test_validate_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        validate([[1, 0]])
    with pytest.raises(DimensionMismatchError, match="not 2x2"):
        GramLattice(rank=2, gram=((1,),))
    with pytest.raises(LatticeError, match="rank must be >= 1"):
        GramLattice(rank=0, gram=())


def test_validate_rejects_floats():
    with pytest.raises(LatticeError):
        validate([[1.5]])


def test_inner_identity_unit():
    lat = validate(ID2)
    assert inner(lat, (1, 0), (1, 0)) == 1


def test_inner_a2_entry_readout():
    lat = validate(A2)
    assert inner(lat, (1, 0), (0, 1)) == 1


def test_inner_a2_ones():
    lat = validate(A2)
    assert inner(lat, (1, 1), (1, 1)) == 6


def test_inner_dimension_mismatch():
    lat = validate(A2)
    with pytest.raises(DimensionMismatchError):
        inner(lat, (1, 0, 0), (0, 1, 0))


def test_inner_bilinear_symmetric_positive():
    rng = random.Random(101)
    for _ in range(25):
        gram = random_pd_gram(rng)
        lat = validate(gram)
        g = lat.rank
        x, y, z = (random_point(rng, g, den=7) for _ in range(3))
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        assert inner(lat, x, y) == inner(lat, y, x)
        combo = tuple(a * xi + b * yi for xi, yi in zip(x, y))
        assert inner(lat, combo, z) == a * inner(lat, x, z) + b * inner(lat, y, z)
        if any(x):
            assert inner(lat, x, x) > 0


def test_closest_vector_identity_rounding():
    lat = validate(ID2)
    assert closest_vector(lat, (Fraction(2, 5), Fraction(3, 5))) == (0, 1)


def test_closest_vector_tie_breaks_lex():
    lat = validate([[1]])
    assert closest_vector(lat, (Fraction(1, 2),)) == (0,)


def test_closest_vector_a2_half_half():
    # brute force over the certified box (and over |u|_inf <= 2) gives
    # min distance 1/2, attained at (0,1) and (1,0)
    lat = validate(A2)
    dist, sols = closest_vectors_all(lat, (Fraction(1, 2), Fraction(1, 2)))
    assert dist == Fraction(1, 2)
    assert sols == [(0, 1), (1, 0)]
    assert closest_vector(lat, (Fraction(1, 2), Fraction(1, 2))) == (0, 1)
    assert oracle_cvp(A2, (Fraction(1, 2), Fraction(1, 2)))[0] == Fraction(1, 2)


def test_closest_vector_matches_bruteforce():
    rng = random.Random(202)
    for _ in range(40):
        gram = random_pd_gram(rng)
        lat = validate(gram)
        point = random_point(rng, lat.rank)
        dist, sols = closest_vectors_all(lat, point)
        odist, osols = oracle_cvp(gram, point)
        assert dist == odist
        assert sols == osols


A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
# A3 in the basis b1, b2 + 2 b1, b3 + b1 + 2 b2: not reduced
SHEAR = [[1, 2, 1], [0, 1, 2], [0, 0, 1]]
SHEARED_A3 = [
    [sum(SHEAR[k][i] * A3[k][l] * SHEAR[l][j] for k in range(3) for l in range(3))
     for j in range(3)]
    for i in range(3)
]


def test_closest_vectors_all_on_tie_heavy_targets():
    cases = []
    for g in range(1, 5):
        identity = [[int(i == j) for j in range(g)] for i in range(g)]
        cases.append((identity, (F(1, 2),) * g, 2**g))
    # deep holes: the fundamental weights w1 of A2 and w2 of A3
    cases.append(([[2, -1], [-1, 2]], (F(2, 3), F(1, 3)), 3))
    cases.append((A3, (F(1, 2), F(1), F(1, 2)), 6))
    # the A3 deep hole w2 + (1, 0, -1) in the sheared basis:
    # SHEAR^-1 (3/2, 1, -1/2)
    cases.append((SHEARED_A3, (F(-2), F(2), F(-1, 2)), 6))
    for gram, point, ties in cases:
        dist, sols = closest_vectors_all(validate(gram), point)
        assert (dist, sols) == oracle_cvp(gram, point)
        assert len(sols) == ties


def test_closest_vectors_all_collects_every_tie_past_the_coset_search_stop():
    # the coset search stops at the third tie; the public search does not
    lat = validate([[int(i == j) for j in range(3)] for i in range(3)])
    dist, sols = closest_vectors_all(lat, (F(1, 2),) * 3)
    assert dist == F(3, 4)
    assert sols == sorted(itertools.product((0, 1), repeat=3))
    _, stopped = lattice._closest(lat, [1, 1, 1], 2, 3)
    assert len(stopped) == 3 and set(stopped) < set(sols)


def test_closest_vectors_all_sheared_basis_and_large_denominators():
    rng = random.Random(606)
    for gram in (SHEARED_A3, A3, [[F(7, 3), F(1, 2)], [F(1, 2), F(5, 11)]]):
        lat = validate(gram)
        for _ in range(15):
            point = tuple(F(rng.randint(-5 * 997, 5 * 997), 997)
                          for _ in range(lat.rank))
            assert closest_vectors_all(lat, point) == oracle_cvp(gram, point)


def test_closest_vector_periodicity():
    rng = random.Random(303)
    for _ in range(30):
        gram = random_pd_gram(rng)
        lat = validate(gram)
        g = lat.rank
        point = random_point(rng, g)
        shift = tuple(rng.randint(-4, 4) for _ in range(g))
        moved = closest_vector(lat, tuple(p + s for p, s in zip(point, shift)))
        assert moved == tuple(
            c + s for c, s in zip(closest_vector(lat, point), shift)
        )


def test_relevant_identity_lattices():
    for g in range(1, 5):
        gram = [[int(i == j) for j in range(g)] for i in range(g)]
        rel = relevant_vectors(validate(gram))
        expected = set()
        for i in range(g):
            e = tuple(int(j == i) for j in range(g))
            expected.add(e)
            expected.add(tuple(-c for c in e))
        assert set(rel) == expected


def test_relevant_rank1():
    assert set(relevant_vectors(validate([[7]]))) == {(1,), (-1,)}


def test_relevant_a2_hexagonal():
    rel = set(relevant_vectors(validate(A2)))
    assert rel == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}


def test_relevant_matches_oracle_and_bounds():
    rng = random.Random(404)
    for _ in range(20):
        gram = random_pd_gram(rng)
        lat = validate(gram)
        rel = relevant_vectors(lat)
        assert sorted(rel) == oracle_relevant(gram)
        assert len(rel) <= 2 * (2**lat.rank - 1)
        assert set(rel) == {tuple(-c for c in v) for v in rel}


def _cartan(n, bonds):
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        gram[i][j] = gram[j][i] = -1
    return gram


def _tie_heavy_grams():
    """Lattices whose cosets mod 2 have many minimizers."""
    grams = {f"Z{n}": [[int(i == j) for j in range(n)] for i in range(n)] for n in range(1, 7)}
    grams.update({f"A{n}": _cartan(n, [(i, i + 1) for i in range(n - 1)]) for n in range(2, 6)})
    grams["D4"] = _cartan(4, [(0, 1), (1, 2), (1, 3)])
    grams["E6"] = _cartan(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    grams["sheared A3"] = SHEARED_A3
    # block-diagonal graph Jacobians: two equal loops joined by a bridge,
    # and K4 with a loop at one vertex
    grams["two loops and a bridge"] = jacobian_gram(two_loops_bridge(2, 2, 1)).gram
    k4_loop = make_graph(4, [(e.tail, e.head, e.length) for e in k4().edges] + [(0, 0, 2)])
    grams["K4 plus a loop"] = jacobian_gram(k4_loop).gram
    return grams


@pytest.mark.parametrize("name", sorted(_tie_heavy_grams()))
def test_relevant_vectors_match_the_oracle_on_lattices_with_many_ties(name):
    gram = _tie_heavy_grams()[name]
    expected = oracle_relevant_by_enumeration(gram)
    if len(gram) <= 3:  # the coset-by-coset oracle is too slow beyond
        assert expected == oracle_relevant(gram)
    lat = validate(gram)
    # sorted by squared norm, then lexicographically
    assert relevant_vectors(lat) == tuple(sorted(expected, key=lambda v: (norm_sq(lat, v), v)))


def test_relevant_contains_all_shortest_vectors():
    rng = random.Random(505)
    for _ in range(15):
        gram = random_pd_gram(rng)
        lat = validate(gram)
        rel = set(relevant_vectors(lat))
        shortest_norm, shortest = oracle_shortest(gram)
        for v in shortest:
            assert v in rel
            assert norm_sq(lat, v) == shortest_norm
