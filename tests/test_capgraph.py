import random
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superchar.capgraph import (
    Forest,
    MixedForest,
    ThetaPoly,
    embed_disjoint,
    gamma,
    gamma0,
    is_out_forest,
    linear_extensions,
    linear_extensions_dp,
    linear_extensions_hook,
    reduced_formula_supported,
    reduced_subgraphs,
    special_edges,
    subgraphs,
    theta,
    theta_tilde,
    _component_min_vertex,
)
from superchar.caps import cap_diagram, segment_data
from superchar.weights import CROSS, GREATER, LESS, WeightDiagram

from helpers import (
    all_rooted_forests,
    brute_extension_count,
    random_diagram,
    theta_by_subgraphs,
)


def forest_of(*crosses):
    f = WeightDiagram({c: CROSS for c in crosses})
    return gamma(cap_diagram(f)), segment_data(f)


def test_gamma_gl33():
    g, _ = forest_of(0, 1, 3)
    assert g.labels == (0, 1, 3)
    assert g.edges == frozenset({(0, 1), (0, 2)})


def test_gamma_disconnected():
    g, _ = forest_of(0, 2, 4, 6)
    assert g.edges == frozenset()


def test_gamma_chain():
    g, _ = forest_of(0, 1, 2)
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_forest_rejects_cycles():
    with pytest.raises(ValueError):
        Forest((0, 1, 2), frozenset({(0, 1), (1, 2), (0, 2)}))


def test_subgraph_counts():
    g, _ = forest_of(0, 1, 3)
    assert len(subgraphs(g)) == 4
    edgeless = Forest((0, 2, 4), frozenset())
    assert len(subgraphs(edgeless)) == 1
    chain, _ = forest_of(0, 1, 2)
    assert len(subgraphs(chain)) == 4


def test_component_min():
    def component_min(delta, v):
        return delta.labels[_component_min_vertex(delta)[v]]

    g, _ = forest_of(0, 1, 3)
    for v in range(3):
        assert component_min(g, v) == 0
    edgeless = Forest((0, 1, 3), frozenset())
    assert [component_min(edgeless, v) for v in range(3)] == [0, 1, 3]
    partial = Forest((0, 1, 3), frozenset({(0, 2)}))
    assert [component_min(partial, v) for v in range(3)] == [0, 1, 0]


def test_linear_extensions_examples():
    g, _ = forest_of(0, 1, 3)
    assert linear_extensions(g) == 2
    single_edge = Forest((0, 1, 3), frozenset({(0, 2)}))
    assert linear_extensions(single_edge) == 3
    edgeless = Forest((0, 1, 3), frozenset())
    assert linear_extensions(edgeless) == 6


def test_linear_extension_triple_agreement_small_forests():
    # every unlabeled rooted out-forest with at most 7 vertices
    count = 0
    for r, edges in all_rooted_forests(7):
        forest = Forest(tuple(range(r)), frozenset(edges))
        assert is_out_forest(forest)
        hook = linear_extensions_hook(forest)
        dp = linear_extensions_dp(forest)
        brute = brute_extension_count(r, edges)
        assert hook == dp == brute, (r, edges)
        count += 1
    assert count > 100


def test_mixed_orientation_dp_matches_brute():
    rng = random.Random(23)
    for r, edges in all_rooted_forests(6):
        if not edges:
            continue
        flipped = tuple((j, i) if rng.random() < 0.5 else (i, j)
                        for i, j in edges)
        dp = MixedForest(tuple(range(r)), frozenset(flipped)).extension_count()
        brute = brute_extension_count(r, flipped)
        assert dp == brute, (r, flipped)


def test_reversal_invariance():
    for r, edges in all_rooted_forests(6):
        opposite = frozenset((j, i) for i, j in edges)
        forward = MixedForest(tuple(range(r)), frozenset(edges)).extension_count()
        backward = MixedForest(tuple(range(r)), opposite).extension_count()
        assert forward == backward


def test_theta_golden_gl33():
    g, _ = forest_of(0, 1, 3)
    th = theta(g)
    assert th.terms == {
        (0, 0, 0): 1,
        (0, -1, 0): Fraction(-1, 2),
        (0, 0, -3): Fraction(-1, 2),
        (0, -1, -3): Fraction(1, 3),
    }
    assert str(th) == "1 - 1/2 t2^-1 - 1/2 t3^-3 + 1/3 t2^-1 t3^-3"
    rows = sorted(linear_extensions(d) for d in subgraphs(g))
    assert rows == [2, 3, 3, 6]


def test_theta_edgeless_is_one():
    g = Forest((1, 4, 9), frozenset())
    assert theta(g).terms == {(0, 0, 0): 1}


def test_theta_exponents_never_positive():
    rng = random.Random(29)
    for _ in range(40):
        f = random_diagram(rng, r_max=4, with_core=False)
        if not f.crosses:
            continue
        th = theta(gamma(cap_diagram(f)))
        for exps in th.terms:
            assert all(e <= 0 for e in exps)
        # the edgeless subgraph contributes the constant 1
        assert th.coefficient((0,) * len(f.crosses)) == 1


def test_theta_multiplicative_over_disjoint_union():
    rng = random.Random(31)
    for _ in range(30):
        f1 = random_diagram(rng, r_max=3, with_core=False)
        f2 = random_diagram(rng, r_max=3, with_core=False)
        if not f1.crosses or not f2.crosses:
            continue
        g1 = gamma(cap_diagram(f1))
        g2 = gamma(cap_diagram(f2))
        th1, th2 = theta(g1), theta(g2)
        combined = theta(embed_disjoint(g1, g2))
        product = {}
        for e1, c1 in th1.terms.items():
            for e2, c2 in th2.terms.items():
                key = e1 + e2
                product[key] = product.get(key, 0) + c1 * c2
        assert {k: v for k, v in product.items() if v} == combined.terms


def test_theta_at_one():
    g, _ = forest_of(0, 1, 3)
    total = sum((-1) ** len(d.edges) * linear_extensions(d) for d in subgraphs(g))
    assert theta(g).eval_at_ones() == Fraction(total, 6)
    edgeless = Forest((0, 5), frozenset())
    assert theta(edgeless).eval_at_ones() == 1


@st.composite
def _nesting_forests(draw, r_max=8):
    """gamma of a cap diagram with 1..r_max crosses and up to two core
    symbols; r crosses on at most 2r positions nest often."""
    r = draw(st.integers(1, r_max))
    span = draw(st.integers(r, 2 * r))
    crosses = draw(st.sets(st.integers(0, span - 1), min_size=r, max_size=r))
    cores = draw(st.dictionaries(st.integers(0, span).filter(lambda p: p not in crosses),
                                 st.sampled_from([LESS, GREATER]), max_size=2))
    return gamma(cap_diagram(WeightDiagram({**cores, **{c: CROSS for c in crosses}})))


@given(_nesting_forests())
def test_theta_matches_subgraph_route(g):
    th, reference = theta(g), theta_by_subgraphs(g)
    assert th.terms == reference.terms
    assert str(th) == str(reference)


@given(_nesting_forests(4), _nesting_forests(4))
def test_theta_matches_subgraph_route_on_disjoint_unions(g1, g2):
    union = embed_disjoint(g1, g2)
    assert theta(union).terms == theta_by_subgraphs(union).terms


def test_theta_rejects_a_vertex_with_two_parents():
    # a valid Forest (no cycle ignoring orientation), but not a nesting forest
    g = Forest((0, 1, 2), frozenset({(0, 2), (1, 2)}))
    with pytest.raises(ValueError, match="vertex 2 has two parents"):
        theta(g)


def test_special_edges():
    g, sd = forest_of(0, 1, 3)
    assert special_edges(g, sd) == frozenset({(0, 2)})
    run, sd_run = forest_of(0, 1, 2)
    assert special_edges(run, sd_run) == frozenset()
    edgeless = Forest((0, 2, 4), frozenset())
    f = WeightDiagram({0: CROSS, 2: CROSS, 4: CROSS})
    assert special_edges(edgeless, segment_data(f)) == frozenset()


def test_gamma0():
    g, sd = forest_of(0, 1, 3)
    g0 = gamma0(g, sd)
    assert g0.vertices == (0, 1)
    assert g0.edges == frozenset({(0, 1)})

    single, sd1 = forest_of(5)
    g0s = gamma0(single, sd1)
    assert g0s.vertices == (0,) and g0s.edges == frozenset()

    f = WeightDiagram({0: CROSS, 2: CROSS, 4: CROSS})
    edgeless = gamma(cap_diagram(f))
    g0e = gamma0(edgeless, segment_data(f))
    assert g0e.vertices == (0, 1, 2)


def test_theta_tilde_golden_gl33():
    # derived value, cross-checked against the classic expansion and both
    # oracles; the two subgraphs carry extension counts 1 and 3
    g, sd = forest_of(0, 1, 3)
    tt, nu, shift = theta_tilde(g, sd)
    assert tt.terms == {(0, 0, 0): Fraction(1, 2), (0, 0, -2): Fraction(-1, 6)}
    assert nu == 1
    assert shift == (1, 0, 0)
    deltas = reduced_subgraphs(g, sd)
    assert len(deltas) == 2
    counts = set()
    core = gamma0(g, sd).edges
    for d in deltas:
        flipped = d.edges - core
        star = (d.edges - flipped) | {(j, i) for i, j in flipped}
        counts.add(MixedForest(d.labels, frozenset(star)).extension_count())
    assert counts == {1, 3}


def test_theta_tilde_pdc_constant():
    # forest = disjoint chains: reduced polynomial is the constant
    # (number of shuffles of the chains) / r!
    for crosses in [(0, 1), (0, 1, 2), (0, 1, 4, 5)]:
        g, sd = forest_of(*crosses)
        if special_edges(g, sd):
            continue
        tt, nu, shift = theta_tilde(g, sd)
        r = len(crosses)
        from math import factorial
        shuffles = linear_extensions(g)
        assert tt.terms == {(0,) * r: Fraction(shuffles, factorial(r))}


def test_theta_tilde_single_cross():
    g, sd = forest_of(5)
    tt, nu, shift = theta_tilde(g, sd)
    assert tt.terms == {(0,): 1}
    assert nu == 0 and shift == (0,)


def test_reduced_formula_support_detection():
    g, sd = forest_of(0, 1, 3)
    assert reduced_formula_supported(g, sd)
    g4, sd4 = forest_of(0, 1, 3, 4)
    assert not reduced_formula_supported(g4, sd4)


def symmetrized(bases, poly, subset):
    """Sum over the terms c*x^exps of poly of c times the number of
    arrangements arr of subset with arr_i <= u_i = bases_i + exps_i.

    Place the slots in ascending order of u: the t-th (from 0) can take any
    element of subset not above u_(t) except the t already placed, which are
    not above it either.  Each factor is at most one below the one before,
    so the product hits 0 before a factor could turn negative."""
    ordered = sorted(subset)
    total = 0
    for exps, c in poly.terms.items():
        count = 1
        for t, u in enumerate(sorted(b + e for b, e in zip(bases, exps))):
            count *= bisect_right(ordered, u) - t
        total += c * count
    return total


def symmetrized_by_permutations(bases, poly, subset):
    total = 0
    for arr in permutations(subset):
        for exps, c in poly.terms.items():
            if all(k <= b + e for k, b, e in zip(arr, bases, exps)):
                total += c
    return total


def _symmetrized_cases(crosses):
    """The classic and reduced numerators with their bases, and every
    r-element argument set of the comparison window."""
    g, sd = forest_of(*crosses)
    if not reduced_formula_supported(g, sd):
        pytest.skip("outside the reduced formula's family")
    th = theta(g)
    tt, nu, shift = theta_tilde(g, sd)
    tilde_bases = tuple(c + s for c, s in zip(crosses, shift))
    r = len(crosses)
    lo = min(crosses) - r * r - 6
    hi = max(tilde_bases) + 2
    return (crosses, th), (tilde_bases, tt), combinations(range(lo, hi + 1), r)


@pytest.mark.parametrize("crosses", [(0, 1), (0, 1, 2), (0, 1, 3),
                                     (0, 2, 3), (0, 1, 2, 4)])
def test_variant_identity_by_symmetrized_coefficients(crosses):
    # For core-free maximally atypical diagrams the alternation of a monomial
    # in the atypical roots depends only on the multiset of its coefficients,
    # so the classic and reduced numerators must have equal symmetrized
    # coefficient functions on every strictly decreasing argument set.
    classic, reduced, subsets = _symmetrized_cases(crosses)
    for subset in subsets:
        assert symmetrized(*classic, subset) == \
            symmetrized(*reduced, subset), subset


@pytest.mark.parametrize("crosses", [(0, 1), (0, 1, 2), (0, 1, 3), (0, 2, 3)])
def test_symmetrized_counts_match_permutations(crosses):
    classic, reduced, subsets = _symmetrized_cases(crosses)
    for subset in subsets:
        for bases, poly in (classic, reduced):
            assert symmetrized(bases, poly, subset) == \
                symmetrized_by_permutations(bases, poly, subset), subset
