import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superchar.capgraph import Forest, _component_min_vertex, gamma, theta
from superchar.caps import cap_diagram
from superchar.latticegen import (
    OrderPolyhedron,
    chain_decomposition_report,
    enumerate_lattice,
    polyhedron_of_forest,
)
from superchar.weights import CROSS, GREATER, LESS, WeightDiagram

from helpers import brute_lattice_points, random_diagram, stack_cap_ends


def gl33_forest():
    return gamma(cap_diagram(WeightDiagram({0: CROSS, 1: CROSS, 3: CROSS})))


# The vertices of a forest's order polyhedron are the spanning subgraphs:
# subgraph delta sits at the point whose coordinate i is the smallest label of
# i's component, and theta's monomial for delta is that point minus the labels.

def theta_vertices(forest):
    return {tuple(c + e for c, e in zip(forest.labels, exps))
            for exps in theta(forest).terms}


def active_constraints(forest, delta):
    """The bounds and edges of the forest's polyhedron that hold with
    equality at the vertex of its spanning subgraph delta."""
    poly = polyhedron_of_forest(forest)
    mins = _component_min_vertex(delta)
    point = tuple(delta.labels[mins[i]] for i in range(poly.dim))
    assert poly.contains(point)
    bounds = [(i, b) for i, b in sorted(poly.bounds.items()) if point[i] == b]
    return bounds, sorted(e for e in poly.chain_edges if point[e[0]] == point[e[1]])


def test_vertices_gl33():
    points = theta_vertices(gl33_forest())
    assert points == {(0, 0, 0), (0, 1, 0), (0, 0, 3), (0, 1, 3)}
    assert all(polyhedron_of_forest(gl33_forest()).contains(p) for p in points)


def test_vertices_edgeless():
    forest = Forest((2, 5, 9), frozenset())
    assert theta_vertices(forest) == {(2, 5, 9)}


def test_vertices_chain():
    forest = gamma(cap_diagram(WeightDiagram({0: CROSS, 1: CROSS, 2: CROSS})))
    assert len(theta_vertices(forest)) == 4


def test_vertex_bijection_on_corpus():
    # one monomial per spanning subgraph: the vertices are pairwise distinct
    # and no coefficient vanishes
    rng = random.Random(37)
    for _ in range(40):
        f = random_diagram(rng, r_max=4, with_core=False)
        if not f.crosses:
            continue
        forest = gamma(cap_diagram(f))
        assert len(theta(forest).terms) == 2 ** len(forest.edges)


def test_tangent_cone_full_delta():
    forest = gl33_forest()
    bounds, edges = active_constraints(forest, forest)
    assert bounds == [(0, 0)]
    assert edges == [(0, 1), (0, 2)]


def test_tangent_cone_edgeless():
    forest = Forest((0, 1, 3), frozenset())
    bounds, edges = active_constraints(forest, forest)
    assert bounds == [(0, 0), (1, 1), (2, 3)]
    assert edges == []


def test_tangent_cone_partial():
    delta = Forest((0, 1, 3), frozenset({(0, 1)}))
    bounds, edges = active_constraints(gl33_forest(), delta)
    assert bounds == [(0, 0), (2, 3)]
    assert edges == [(0, 1)]


def test_cone_genfun_scalars_gl33():
    # each cone carries |extensions|/r!, signed by its edge parity
    terms = theta(gl33_forest()).terms
    assert sorted(abs(c) for c in terms.values()) == [Fraction(1, 3), Fraction(1, 2),
                                                      Fraction(1, 2), 1]
    assert terms[(0, -1, -3)] == Fraction(1, 3)  # the full subgraph, at (0, 0, 0)


def test_cone_genfun_edgeless():
    assert theta(Forest((0, 1, 3), frozenset())).terms == {(0, 0, 0): 1}


def test_enumerate_lattice_interval():
    poly = OrderPolyhedron(1, {0: 5}, frozenset())
    assert enumerate_lattice(poly, 3) == [(3,), (4,), (5,)]


def test_enumerate_lattice_box_product():
    poly = OrderPolyhedron(2, {0: 1, 1: 0}, frozenset())
    points = enumerate_lattice(poly, -1)
    assert points == sorted((a, b) for a in (-1, 0, 1) for b in (-1, 0))


def test_enumerate_lattice_gl33_against_brute():
    forest = gl33_forest()
    poly = polyhedron_of_forest(forest)
    got = enumerate_lattice(poly, -1)
    expected = brute_lattice_points((0, 1, 3), [(0, 1), (0, 2)], -1)
    assert got == expected
    assert len(got) == 23


def test_enumerate_lattice_empty_when_cutoff_beats_bound():
    poly = OrderPolyhedron(1, {0: 2}, frozenset())
    assert enumerate_lattice(poly, 3) == []


def test_order_polyhedron_validation():
    with pytest.raises(ValueError):
        OrderPolyhedron(1, {}, frozenset())


def test_chain_decomposition_two_chain():
    forest = Forest((0, 1), frozenset({(0, 1)}))
    report = chain_decomposition_report(forest, 0, -3)
    assert report.ok
    assert report.total_points == sum(1 for a in range(-3, 1)
                                      for b in range(a, 1))
    assert report.diagonal_points == 4  # the tied points (a, a)
    assert set(report.region_counts) == {(0, 1)}


def test_chain_decomposition_single_vertex():
    forest = Forest((0,), frozenset())
    assert chain_decomposition_report(forest, 0, -4).ok


def test_chain_decomposition_gl33_bound_zero():
    forest = gl33_forest()
    report = chain_decomposition_report(forest, 0, -3)
    assert report.ok
    assert len(report.region_counts) == 2  # one region per compatible ordering


def test_chain_decomposition_antichain():
    forest = Forest((0, 2), frozenset())
    report = chain_decomposition_report(forest, 1, -2)
    assert report.ok
    assert len(report.region_counts) == 2
    # every point lands somewhere, ties broken by coordinate index
    assert sum(report.region_counts.values()) == report.total_points


@st.composite
def _cored_diagrams(draw):
    r = draw(st.integers(1, 4))
    positions = draw(st.lists(st.integers(0, 7), min_size=r, max_size=r + 2, unique=True))
    cores = draw(st.lists(st.sampled_from([LESS, GREATER]),
                          min_size=len(positions) - r, max_size=len(positions) - r))
    symbols = {p: CROSS for p in positions[:r]}
    symbols.update(zip(positions[r:], cores))
    return WeightDiagram(symbols)


@given(_cored_diagrams(), st.integers(0, 2))
def test_forest_polyhedron_points_match_all_nested_pairs(f, depth):
    # the lattice oracle's polyhedron, read off the engine's covering forest,
    # has the points of the order by every nested pair of stack-matched caps
    crosses = f.crosses
    ends = stack_cap_ends(f)
    nested = [(i, j) for i, a in enumerate(crosses) for j, b in enumerate(crosses)
              if a < b < ends[b] < ends[a]]
    cutoff = min(crosses) - depth
    got = enumerate_lattice(polyhedron_of_forest(gamma(cap_diagram(f))), cutoff)
    assert got == brute_lattice_points(crosses, nested, cutoff)
