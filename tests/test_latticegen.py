import random
from fractions import Fraction
from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from superchar.capgraph import Forest, _component_min_vertex, gamma, theta
from superchar.caps import cap_diagram
from superchar.latticegen import chain_decomposition_report, enumerate_lattice
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


def within_budget(points, labels, budget):
    return [x for x in points if sum(labels) - sum(x) <= budget]


def active_constraints(forest, delta):
    """The bounds and edges of the forest's polyhedron that hold with
    equality at the vertex of its spanning subgraph delta."""
    mins = _component_min_vertex(delta)
    point = tuple(delta.labels[mins[i]] for i in range(len(forest.labels)))
    assert point in enumerate_lattice(forest, sum(forest.labels) - sum(point))
    bounds = [(i, c) for i, c in enumerate(forest.labels) if point[i] == c]
    return bounds, sorted(e for e in forest.edges if point[e[0]] == point[e[1]])


def test_vertices_gl33():
    points = theta_vertices(gl33_forest())
    assert points == {(0, 0, 0), (0, 1, 0), (0, 0, 3), (0, 1, 3)}
    assert points <= set(enumerate_lattice(gl33_forest(), 4))


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
    assert enumerate_lattice(Forest((5,), frozenset()), 2) == [(3,), (4,), (5,)]


def test_enumerate_lattice_box_product():
    # an edgeless forest's points: the box below its labels, cut by the budget
    points = enumerate_lattice(Forest((0, 1), frozenset()), 2)
    assert points == within_budget(product(range(-2, 1), range(-1, 2)), (0, 1), 2)
    assert len(points) == 6


def test_enumerate_lattice_gl33_against_brute():
    forest = gl33_forest()
    got = enumerate_lattice(forest, 9)
    expected = brute_lattice_points((0, 1, 3), [(0, 1), (0, 2)], -9)
    assert got == within_budget(expected, (0, 1, 3), 9)
    assert len(got) == 127


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


@given(_cored_diagrams(), st.integers(0, 3))
def test_forest_polyhedron_points_match_all_nested_pairs(f, budget):
    # the lattice oracle's polyhedron, read off the engine's covering forest,
    # has the points of the order by every nested pair of stack-matched caps;
    # within a budget they lie above min(crosses) - budget
    crosses = f.crosses
    ends = stack_cap_ends(f)
    nested = [(i, j) for i, a in enumerate(crosses) for j, b in enumerate(crosses)
              if a < b < ends[b] < ends[a]]
    got = enumerate_lattice(gamma(cap_diagram(f)), budget)
    expected = brute_lattice_points(crosses, nested, min(crosses) - budget)
    assert got == within_budget(expected, crosses, budget)
