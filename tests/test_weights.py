import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superchar.charring import chi_plus_rho_exponent

from superchar.weights import (
    CROSS,
    GREATER,
    LESS,
    ABPair,
    HighestWeight,
    WeightDiagram,
    ab_from_diagram,
    ab_sets,
    build_diagram,
    diagram_of_weight,
    position_exponents,
    rho,
    weight_from_ab,
    weight_from_diagram,
)

from helpers import core_strip, dominant_weights, random_diagram


def test_rho_examples():
    assert rho(1, 1) == rho(1, 1)
    assert rho(1, 1).eps_part == (0,) and rho(1, 1).delta_part == (0,)
    assert rho(3, 3).eps_part == (0, -1, -2)
    assert rho(3, 3).delta_part == (2, 1, 0)
    assert rho(2, 1).eps_part == (0, -1)
    assert rho(2, 1).delta_part == (1,)


def test_rho_rejects_bad_counts():
    with pytest.raises(ValueError):
        rho(0, 1)


def test_ab_sets_gl33_example():
    chi = HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3))
    ab = ab_sets(chi)
    assert ab.A == (3, 1, 0)
    assert ab.B == (0, 1, 3)


def test_ab_sets_gl11_trivial():
    ab = ab_sets(HighestWeight(1, 1, (0,), (0,)))
    assert ab.A == (0,) and ab.B == (0,)


def test_ab_sets_rejects_non_dominant():
    with pytest.raises(ValueError):
        HighestWeight(2, 2, (0, 1), (0, 0))
    with pytest.raises(ValueError):
        HighestWeight(2, 2, (1, 0), (-1, 0))


def test_ab_monotone_on_grid():
    for chi in dominant_weights(2, 2, -3, 3):
        ab = ab_sets(chi)
        assert all(ab.A[i] > ab.A[i + 1] for i in range(len(ab.A) - 1))
        assert all(ab.B[j] < ab.B[j + 1] for j in range(len(ab.B) - 1))


def test_build_diagram_examples():
    f = build_diagram(ABPair((3, 1, 0), (0, 1, 3)))
    assert f.crosses == (0, 1, 3)
    assert f.core_positions == ()

    g = build_diagram(ABPair((0,), (1,)))
    assert g.symbol(0) == GREATER and g.symbol(1) == LESS

    h = build_diagram(ABPair((5,), (5,)))
    assert h.crosses == (5,) and h.core_positions == ()


def test_build_diagram_rejects_repeats():
    with pytest.raises(ValueError):
        build_diagram(ABPair((1, 1), (0, 2)))


def test_family_counts_on_grid():
    for (m, n) in [(1, 1), (2, 1), (2, 2)]:
        for chi in dominant_weights(m, n, -2, 2):
            f = diagram_of_weight(chi)
            assert (f.m, f.n) == (m, n)
            r = len(f.crosses)
            assert r + len(f.greater_positions) == m
            assert r + len(f.less_positions) == n


def test_diagram_round_trip():
    for chi in dominant_weights(2, 2, -3, 3):
        f = diagram_of_weight(chi)
        assert build_diagram(ab_from_diagram(f)) == f
        assert weight_from_diagram(f) == chi


def test_diagram_map_injective_on_grid():
    seen = {}
    for chi in dominant_weights(2, 2, -2, 2):
        f = diagram_of_weight(chi)
        assert f not in seen, f"{chi} and {seen[f]} collide"
        seen[f] = chi


def test_weight_from_ab_inverts_ab_sets():
    for chi in dominant_weights(2, 1, -3, 3):
        assert weight_from_ab(ab_sets(chi)) == chi


def test_core_strip_identity_when_core_free():
    f = WeightDiagram({0: CROSS, 1: CROSS, 3: CROSS})
    stripped, reindex = core_strip(f)
    assert stripped == f
    assert reindex == {0: 0, 1: 1, 3: 3}


def test_core_strip_closes_gaps():
    f = WeightDiagram({0: CROSS, 1: GREATER, 2: CROSS})
    stripped, reindex = core_strip(f)
    assert stripped.crosses == (0, 1)
    assert reindex == {0: 0, 2: 1}


def test_core_strip_preserves_cross_order():
    rng = random.Random(7)
    for _ in range(50):
        f = random_diagram(rng, r_max=4, with_core=True)
        stripped, reindex = core_strip(f)
        assert len(stripped.crosses) == len(f.crosses)
        original = list(f.crosses)
        mapped = [reindex[a] for a in original]
        assert mapped == sorted(mapped)
        assert stripped.core_positions == ()


def test_position_exponents_core_rules():
    exps = position_exponents(WeightDiagram({0: GREATER, 1: LESS}))
    assert exps == {0: (1, 0), 1: (0, -1)}


@st.composite
def _diagrams(draw):
    """Any diagram with m, n >= 1: crosses and core symbols, negative
    positions included."""
    symbols = draw(st.dictionaries(st.integers(-6, 6),
                                   st.sampled_from([CROSS, GREATER, LESS]),
                                   min_size=1, max_size=8))
    f = WeightDiagram(symbols)
    if f.m < 1 or f.n < 1:
        symbols[7] = CROSS
        f = WeightDiagram(symbols)
    return f


@given(_diagrams())
def test_position_exponents_weighted_by_positions_give_chi_plus_rho(f):
    exps = position_exponents(f)
    total = [sum(p * v[k] for p, v in exps.items()) for k in range(f.m + f.n)]
    assert tuple(total) == chi_plus_rho_exponent(weight_from_diagram(f))
