"""Acceptance suite: one test per numbered criterion, exact arithmetic
throughout, each printing a PASS/FAIL line (run with -s to watch).

Criterion 2 pins the reduced polynomial of the three-cross example to the
requirements fixture value 1/2 - 1/2 t3^-2.  The computed coefficient of
t3^-2 is -1/6, which three independent routes confirm (the classic
expansion, the Kac-sum oracle, and the lattice-point oracle agree with it,
and -1/2 contradicts all three; criteria 5 and 6 could not pass otherwise).
The assertion keeps the fixture value verbatim instead of silently
overriding a disputed constant, so that one test stays red by design.
"""

import time
from fractions import Fraction
from math import factorial

import pytest

from superchar.capgraph import (
    Forest,
    MixedForest,
    gamma,
    gamma0,
    linear_extensions,
    linear_extensions_dp,
    linear_extensions_hook,
    is_out_forest,
    reduced_subgraphs,
    special_edges,
    subgraphs,
    theta,
    theta_tilde,
)
from superchar.caps import cap_diagram, segment_data
from superchar.charring import (
    CharPoly,
    Window,
    alt_J,
    chi_plus_rho_exponent,
    dhat_denominator,
    dimension_eval,
    engine_summand_count,
    highest_term_ok,
    irreducible_char,
    is_w0_symmetric,
    kac_char,
    supersymmetry_check,
)
from superchar.latticegen import chain_decomposition_report
from superchar.oracle import oracle_char, orthogonality_report
from superchar.weights import CROSS, HighestWeight, WeightDiagram, diagram_of_weight

from helpers import all_rooted_forests, brute_extension_count, dominant_weights

GL33_EXAMPLE = HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3))
GRIDS = [(1, 1), (2, 1), (2, 2)]


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def corpus():
    """Every dominant weight with entries in [-3, 3] for the three grids,
    plus the six-fold atypical example, with classic characters attached."""
    weights = []
    for (m, n) in GRIDS:
        weights.extend(dominant_weights(m, n, -3, 3))
    weights.append(GL33_EXAMPLE)
    return [(chi, diagram_of_weight(chi), irreducible_char(chi))
            for chi in weights]


def test_criterion_1_theta_golden():
    start = time.monotonic()
    forest = gamma(cap_diagram(WeightDiagram({0: CROSS, 1: CROSS, 3: CROSS})))
    th = theta(forest)
    expected = {
        (0, 0, 0): Fraction(1),
        (0, -1, 0): Fraction(-1, 2),
        (0, 0, -3): Fraction(-1, 2),
        (0, -1, -3): Fraction(1, 3),
    }
    rows = []
    for delta in subgraphs(forest):
        mono = theta_rows_monomial(delta)
        rows.append((linear_extensions(delta), mono))
    elapsed = time.monotonic() - start
    ok = (dict(th.terms) == {k: v for k, v in expected.items()}
          and sorted(r[0] for r in rows) == [2, 3, 3, 6]
          and elapsed < 1.0)
    expected_rows = {(2, (0, -1, -3)), (3, (0, 0, -3)), (3, (0, -1, 0)),
                     (6, (0, 0, 0))}
    ok = ok and set(rows) == expected_rows
    report(1, ok, f"theta exact, 4 subgraph rows, {elapsed:.3f}s")
    assert dict(th.terms) == expected
    assert set(rows) == expected_rows
    assert elapsed < 1.0


def theta_rows_monomial(delta):
    from superchar.capgraph import _component_min_vertex

    mins = _component_min_vertex(delta)
    return tuple(delta.labels[mins[i]] - delta.labels[i]
                 for i in range(len(delta.labels)))


def test_criterion_2_theta_tilde_golden():
    start = time.monotonic()
    f = WeightDiagram({0: CROSS, 1: CROSS, 3: CROSS})
    forest = gamma(cap_diagram(f))
    sd = segment_data(f)
    tt, nu, shift = theta_tilde(forest, sd)
    deltas = reduced_subgraphs(forest, sd)
    core = gamma0(forest, sd).edges
    star_counts = set()
    for d in deltas:
        flipped = d.edges - core
        star = (d.edges - flipped) | {(j, i) for i, j in flipped}
        star_counts.add(MixedForest(d.labels, frozenset(star)).extension_count())
    elapsed = time.monotonic() - start
    specified = {(0, 0, 0): Fraction(1, 2), (0, 0, -2): Fraction(-1, 2)}
    structural_ok = (nu == 1 and shift == (1, 0, 0) and len(deltas) == 2
                     and star_counts == {1, 3} and elapsed < 1.0)
    value_ok = dict(tt.terms) == specified
    report(2, structural_ok and value_ok,
           f"nu/gamma/two-subgraph structure {'ok' if structural_ok else 'BAD'}; "
           f"polynomial computed {dict(tt.terms)} vs specified {specified}, "
           f"{elapsed:.3f}s")
    assert nu == 1
    assert shift == (1, 0, 0)
    assert len(deltas) == 2
    assert star_counts == {1, 3}
    assert elapsed < 1.0
    # Specified golden value; the computed -1/6 coefficient is the one
    # consistent with criteria 5 and 6 (see module docstring).
    assert dict(tt.terms) == specified


def test_criterion_3_pdc_constant():
    cases = [((0, 1), (2,)), ((0, 1, 2), (3,)), ((0, 1, 4, 5), (2, 2)),
             ((0, 2, 4), (1, 1, 1)), ((0, 1, 2, 6, 7), (3, 2))]
    for crosses, chain_sizes in cases:
        f = WeightDiagram({c: CROSS for c in crosses})
        forest = gamma(cap_diagram(f))
        sd = segment_data(f)
        assert not special_edges(forest, sd), crosses
        tt, nu, shift = theta_tilde(forest, sd)
        r = len(crosses)
        shuffles = factorial(sum(chain_sizes))
        for size in chain_sizes:
            shuffles //= factorial(size)
        assert tt.terms == {(0,) * r: Fraction(shuffles, factorial(r))}, crosses
    # the reduced engine therefore degenerates to the closed product form;
    # spot-check it end to end on fully atypical chain weights
    for chi in [HighestWeight(2, 2, (1, 1), (-1, -1)),
                HighestWeight(3, 3, (2, 2, 2), (-2, -2, -2))]:
        classic = irreducible_char(chi)
        reduced = irreducible_char(chi, variant="reduced")
        assert classic == reduced, chi
    report(3, True, f"{len(cases)} chain forests, constant reduced polynomial")


def test_criterion_4_kac_identity():
    start = time.monotonic()
    checked = 0
    for (m, n) in GRIDS:
        num, den = dhat_denominator(m, n)
        for chi in dominant_weights(m, n, -3, 3):
            f = diagram_of_weight(chi)
            lhs = num * kac_char(f)
            rhs = alt_J(CharPoly.monomial(m, n, chi_plus_rho_exponent(chi))) * den
            assert lhs == rhs, chi
            checked += 1
    elapsed = time.monotonic() - start
    report(4, elapsed < 60, f"{checked} weights exact, {elapsed:.1f}s")
    assert checked == 49 + 196 + 784
    assert elapsed < 60


def test_criterion_5_oracle_equivalence(corpus):
    start = time.monotonic()
    small = [(chi, f, ch) for chi, f, ch in corpus if chi.m + chi.n < 6]
    for chi, f, ch in small:
        window = Window.hull(ch, margin=1)
        assert oracle_char(f, window) == ch, chi
        r = len(f.crosses)
        s = gamma(cap_diagram(f)).component_count() if r else 0
        assert engine_summand_count(chi) == 2 ** (r - s), chi
    small_elapsed = time.monotonic() - start

    start33 = time.monotonic()
    chi, f, ch = next(item for item in corpus if item[0] == GL33_EXAMPLE)
    window = Window.hull(ch, margin=1)
    assert oracle_char(f, window) == ch
    assert engine_summand_count(chi) == 2 ** (3 - 1)
    elapsed33 = time.monotonic() - start33
    report(5, small_elapsed < 60 and elapsed33 < 300,
           f"{len(small)} grid weights {small_elapsed:.1f}s; "
           f"gl(3,3) example {elapsed33:.1f}s")
    assert small_elapsed < 60
    assert elapsed33 < 300


def test_criterion_6_variant_agreement(corpus):
    checked = 0
    for chi, f, ch in corpus:
        assert irreducible_char(chi, variant="reduced") == ch, chi
        checked += 1
    report(6, True, f"classic == reduced on {checked} weights")


def test_criterion_7_orthogonality():
    reports = [orthogonality_report((0, 5), 1, 1, 1),
               orthogonality_report((0, 6), 2, 2, 2)]
    ok = all(r.ok for r in reports)
    detail = "; ".join(
        f"family {r.family_size}, interior {r.interior_rows}" for r in reports)
    report(7, ok, detail)
    for r in reports:
        assert r.ok
        assert r.interior_rows > 0


def test_criterion_8_structural_properties(corpus):
    checked = 0
    for chi, f, ch in corpus:
        assert is_w0_symmetric(ch), chi
        assert supersymmetry_check(ch), chi
        assert highest_term_ok(ch, chi), chi
        assert all(isinstance(c, int) and c > 0 for c in ch.terms.values()), chi
        dim = dimension_eval(ch)
        assert dim > 0, chi
        if not f.crosses:
            assert ch == kac_char(f), chi
        checked += 1
    # truncation stability: depths at and past auto give the same character
    for chi in [HighestWeight(2, 2, (1, 1), (-1, -1)), GL33_EXAMPLE]:
        from superchar.charring import auto_depth

        d = auto_depth(chi)
        assert irreducible_char(chi, depth=d) == irreducible_char(chi, depth=d + 5)
    report(8, True, f"symmetry/supersymmetry/top-term/positivity/stability "
                    f"on {checked} characters")


def test_criterion_9_linear_extension_triple():
    count = 0
    for r, edges in all_rooted_forests(7):
        forest = Forest(tuple(range(r)), frozenset(edges))
        assert is_out_forest(forest)
        hook = linear_extensions_hook(forest)
        dp = linear_extensions_dp(forest)
        brute = brute_extension_count(r, edges)
        assert hook == dp == brute, (r, edges)
        count += 1
    report(9, True, f"{count} oriented forests with <= 7 vertices")
    assert count >= 100


def test_criterion_10_chain_partition():
    shapes = [
        Forest((0,), frozenset()),
        Forest((0, 1), frozenset({(0, 1)})),
        Forest((0, 2), frozenset()),
        Forest((0, 1, 2), frozenset({(0, 1), (1, 2)})),
        Forest((0, 1, 3), frozenset({(0, 1), (0, 2)})),
        Forest((0, 1, 3), frozenset()),
    ]
    diagonal_total = 0
    for forest in shapes:
        rep = chain_decomposition_report(forest, 0, -4)
        assert rep.ok, forest
        assert sum(rep.region_counts.values()) == rep.total_points
        diagonal_total += rep.diagonal_points
    report(10, True, f"{len(shapes)} cones partitioned; "
                     f"{diagonal_total} diagonal points handled by tie-break")
    assert diagonal_total > 0
