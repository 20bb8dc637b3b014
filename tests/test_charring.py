import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superchar.charring import (
    CharPoly,
    ExactDivisionError,
    Window,
    alt_J,
    auto_depth,
    chi_plus_rho_exponent,
    dhat_denominator,
    dimension_eval,
    divide_exact,
    engine_summand_count,
    even_positive_roots,
    gt_multiplicity,
    highest_term_ok,
    irreducible_char,
    is_w0_symmetric,
    kac_char,
    kac_char_window,
    odd_positive_roots,
    q_odd_product,
    supersymmetry_check,
    _expand_blocks,
    _numerator,
    _schur_block,
    _tail_blocks,
)
from superchar.weights import HighestWeight, diagram_of_weight, position_exponents, rho

from helpers import (
    dominant_weights,
    gl_weights,
    restrict,
    scale,
    schur_block_by_division,
    shift,
    ssyt_weight_multiplicities,
    tail_by_division,
    weyl0_character,
    weyl_dimension,
)


def test_alt_j_kills_repeats():
    p = CharPoly.monomial(2, 1, (3, 3, 0))
    assert alt_J(p).is_zero()


def test_alt_j_trivial_group():
    p = CharPoly.monomial(1, 1, (4, -2))
    assert alt_J(p) == p


def test_alt_j_free_orbit_gl33():
    chi = HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3))
    p = CharPoly.monomial(3, 3, chi_plus_rho_exponent(chi))
    j = alt_J(p)
    assert len(j.terms) == 36
    assert set(j.terms.values()) == {1, -1}


def test_alt_j_antisymmetry():
    p = CharPoly.monomial(2, 2, (2, 0, 1, -1))
    j = alt_J(p)
    swapped = CharPoly(2, 2, {(v[1], v[0], v[2], v[3]): c for v, c in j.terms.items()})
    assert swapped == -j


def test_root_counts():
    assert len(even_positive_roots(2, 1)) == 1
    assert len(odd_positive_roots(2, 1)) == 2
    assert len(even_positive_roots(3, 3)) == 6
    assert len(odd_positive_roots(3, 3)) == 9


def test_dhat_gl11():
    num, den = dhat_denominator(1, 1)
    assert num.terms == {(0, 0): 1}
    assert den.terms == {(0, 0): 1, (-1, 1): 1}


def test_dhat_times_kac_is_alternant():
    for (m, n) in [(1, 1), (2, 1), (2, 2)]:
        num, den = dhat_denominator(m, n)
        for chi in dominant_weights(m, n, -2, 2):
            f = diagram_of_weight(chi)
            lhs = num * kac_char(f)
            rhs = alt_J(CharPoly.monomial(m, n, chi_plus_rho_exponent(chi))) * den
            assert lhs == rhs, chi


def test_kac_gl11_typical():
    f = diagram_of_weight(HighestWeight(1, 1, (0,), (1,)))
    k = kac_char(f)
    assert k.terms == {(0, 1): 1, (-1, 2): 1}


def test_kac_dimension_formula():
    for chi in dominant_weights(2, 2, -1, 1):
        f = diagram_of_weight(chi)
        dim = dimension_eval(kac_char(f))
        expected = 2 ** 4 * weyl_dimension(chi.lam) * weyl_dimension(chi.mu)
        assert dim == expected


def test_kac_both_routes_checked():
    # the product route against the alternant route: J(e^(chi+rho)) times the
    # odd factor, divided by the even roots, over the whole odd-degree range
    for chi in dominant_weights(2, 1, -2, 2)[:20]:
        m, n = chi.m, chi.n
        top = chi_plus_rho_exponent(chi)
        d = sum(top[m:])
        assert kac_char(diagram_of_weight(chi)) == tail_by_division(
            m, n, {top: 1}, d, d + m * n), chi


def test_kac_gl21_term_count():
    k = kac_char(diagram_of_weight(HighestWeight(2, 1, (1, 0), (0,))))
    assert len(k.terms) == 7
    assert dimension_eval(k) == 8
    assert k.coefficient((0, 0, 1)) == 2


def test_schur_block_matches_tableaux():
    for lam in [(0,), (3,), (2, 0), (1, -1), (3, 1, 0), (2, 2, -1)]:
        got = dict(_schur_block(lam))
        expected = ssyt_weight_multiplicities(lam, len(lam))
        assert got == expected, lam


def test_gt_multiplicity_matches_tableaux():
    for lam in [(2, 0), (3, 1, 0), (2, 2, -1)]:
        table = ssyt_weight_multiplicities(lam, len(lam))
        for w, mult in table.items():
            assert gt_multiplicity(lam, w) == mult
        assert gt_multiplicity(lam, tuple([99] + [0] * (len(lam) - 1))) == 0


def _expanded_in_box(lam, box):
    """lam's Schur block restricted to a box through the expansion
    (_expand_blocks): as the even half of a gl(k|1) g0 block and as the odd
    half of a gl(1|k) one, the other half the weight 0 in the window [0, 0]."""
    k = len(lam)
    r = rho(k, 1)
    even = _expand_blocks(k, 1, {tuple(map(sum, zip(lam, r.eps_part))) + r.delta_part: 1},
                          Window(box, ((0, 0),)))
    r = rho(1, k)
    odd = _expand_blocks(1, k, {r.eps_part + tuple(map(sum, zip(lam, r.delta_part))): 1},
                         Window(((0, 0),), box))
    return {v[:k]: c for v, c in even.terms.items()}, {v[1:]: c for v, c in odd.terms.items()}


def test_schur_window_restricts():
    lam = (3, 1, 0)
    box = ((0, 2), (0, 2), (0, 2))
    table = ssyt_weight_multiplicities(lam, 3)
    assert dict(_schur_block(lam)) == table
    expected = {w: c for w, c in table.items()
                if all(lo <= x <= hi for x, (lo, hi) in zip(w, box))}
    assert _expanded_in_box(lam, box) == (expected, expected)


@lru_cache(maxsize=None)
def _tableaux(lam):
    return ssyt_weight_multiplicities(lam, len(lam))


# a gl(k) highest weight: k <= 4, entries in [-4, 4]
_highest_weights = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    .map(lambda xs: tuple(sorted(xs, reverse=True))))


@st.composite
def _blocks_and_boxes(draw):
    """A highest weight and a box of per-slot intervals that may overhang
    [lam_k, lam_1] or be empty."""
    lam = draw(_highest_weights)
    box = []
    for _ in lam:
        lo = draw(st.integers(-6, 5))
        box.append((lo, lo + draw(st.integers(-1, 9))))
    return lam, tuple(box)


def _in_box(w, box):
    return all(lo <= x <= hi for x, (lo, hi) in zip(w, box))


def _in_weight_polytope(lam, w):
    """w has lam's coordinate sum and is dominated by lam once sorted."""
    if sum(w) != sum(lam):
        return False
    ws = sorted(w, reverse=True)
    return all(sum(ws[:i]) <= sum(lam[:i]) for i in range(1, len(lam)))


@given(_blocks_and_boxes())
def test_schur_window_matches_tableaux_and_division(case):
    # whole blocks against both references; the box reaches the expansion's
    # filter, or its whole-block shortcut when it holds [lam_k, lam_1]
    lam, box = case
    table = _tableaux(lam)
    assert dict(_schur_block(lam)) == table == schur_block_by_division(lam)
    expected = {w: c for w, c in table.items() if _in_box(w, box)}
    assert _expanded_in_box(lam, box) == (expected, expected)


@given(_blocks_and_boxes())
def test_gt_multiplicity_at_every_box_point(case):
    # inside the weight polytope the count is the tableau count and
    # positive, off it 0
    lam, box = case
    table = _tableaux(lam)
    for w in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        mult = gt_multiplicity(lam, w)
        assert mult == table.get(w, 0), (lam, w)
        assert (mult > 0) == _in_weight_polytope(lam, w), (lam, w)


@given(_highest_weights)
def test_whole_block_sums_to_weyl_dimension(lam):
    assert sum(c for _, c in _schur_block(lam)) == weyl_dimension(lam)


def test_kac_window_matches_restriction():
    rng = random.Random(41)
    weights = dominant_weights(2, 2, -2, 2)
    for chi in rng.sample(weights, 25):
        f = diagram_of_weight(chi)
        full = kac_char(f)
        window = Window(((-1, 2), (-2, 1)), ((-1, 2), (-2, 3)))
        assert kac_char_window(f, window) == restrict(full, window)


def _random_kac_coeffs(rng, m, n):
    weights = dominant_weights(m, n, -2, 2)
    chosen = rng.sample(weights, rng.randint(1, 4))
    return {chi: rng.choice((-2, -1, 1, 3)) for chi in chosen}


def _kac_sum(m, n, coeffs, window=None):
    """Sum of c * ch K(chi) through the shared tail: each highest weight chi
    as its Kac coordinate chi + rho, on the odd degrees [min deg, max deg +
    m*n], which hold every term of every Kac module."""
    coords = {chi_plus_rho_exponent(chi): c for chi, c in coeffs.items()}
    degrees = [sum(v[m:]) for v in coords]
    blocks = _tail_blocks(m, n, coords, min(degrees), max(degrees) + m * n)
    return _expand_blocks(m, n, blocks, window)


KAC_SUM_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)]


@pytest.mark.parametrize("m,n", KAC_SUM_SHAPES)
def test_kac_sum_window_matches_restricted_sum(m, n):
    rng = random.Random(100 * m + n)
    hits = misses = 0
    for k in range(12):
        coeffs = _random_kac_coeffs(rng, m, n)
        full = CharPoly.zero(m, n)
        for chi, c in coeffs.items():
            full = full + scale(kac_char(diagram_of_weight(chi)), c)
        # an asymmetric box around a random term, every third one moved off
        centre = rng.choice(sorted(full.terms)) if full.terms else (0,) * (m + n)
        off = 9 if k % 3 == 2 else 0
        box = [(x + off - rng.randint(0, 2), x + off + rng.randint(0, 3))
               for x in centre]
        window = Window(tuple(box[:m]), tuple(box[m:]))
        expected = restrict(full, window)
        hits += not expected.is_zero()
        misses += expected.is_zero()
        assert _kac_sum(m, n, coeffs, window) == expected, (coeffs, window)
    assert hits and misses


@pytest.mark.parametrize("m,n", KAC_SUM_SHAPES)
def test_kac_sum_matches_product_route(m, n):
    # the reference multiplies whole CharPolys: even-block character times
    # the expanded odd factor
    rng = random.Random(7 * m + n)
    for _ in range(6):
        coeffs = _random_kac_coeffs(rng, m, n)
        expected = CharPoly.zero(m, n)
        for chi, c in coeffs.items():
            expected = expected + scale(weyl0_character(chi) * q_odd_product(m, n), c)
        assert _kac_sum(m, n, coeffs) == expected, coeffs


def test_ev_map_gl33():
    """The evaluation map position -> exponent vector, read off (A, B)."""
    f = diagram_of_weight(HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3)))
    exps = position_exponents(f)
    # increasing cross position pairs with decreasing shifted labels: the
    # cross eps_i - delta_j is read as the 1-based pair (i, j)
    roots = [exps[c] for c in f.crosses]
    pairs = [(v.index(1) + 1, v.index(-1) - f.m + 1) for v in roots]
    assert pairs == [(3, 1), (2, 2), (1, 3)]
    assert exps[f.crosses[0]] == (0, 0, 1, -1, 0, 0)
    assert list(exps) == list(f.positions())


def test_root_data_gl33():
    """The atypical roots whose binomials pair the engine's odd columns."""
    chi = HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3))
    _, alphas, _, _ = _numerator(chi, "classic")
    pairs = [(v.index(1) + 1, v.index(-1) - chi.m + 1) for v in alphas]
    assert pairs == [(3, 1), (2, 2), (1, 3)]
    assert alphas[0] == (0, 0, 1, -1, 0, 0)
    assert len(alphas) == 3


def test_divide_exact_roundtrip():
    rng = random.Random(43)
    roots = even_positive_roots(2, 2)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            v = tuple(rng.randint(-3, 3) for _ in range(4))
            terms[v] = rng.randint(-5, 5)
        p = CharPoly(2, 2, terms)
        if p.is_zero():
            continue
        alpha = rng.choice(roots)
        factor = CharPoly(2, 2, {(0, 0, 0, 0): 1,
                                 tuple(-a for a in alpha): -1})
        assert divide_exact(p * factor, alpha) == p
        plus_factor = CharPoly(2, 2, {(0, 0, 0, 0): 1,
                                      tuple(-a for a in alpha): 1})
        assert divide_exact(p * plus_factor, alpha, plus=True) == p


def test_divide_exact_detects_remainder():
    alpha = even_positive_roots(2, 1)[0]
    p = CharPoly(2, 1, {(1, 0, 0): 1, (0, 0, 0): 1, (-2, 2, 0): 1})
    with pytest.raises(ExactDivisionError):
        divide_exact(p, alpha)


def test_irreducible_typical_equals_kac():
    chi = HighestWeight(2, 2, (3, 1), (0, -2))
    f = diagram_of_weight(chi)
    assert f.crosses == ()
    assert irreducible_char(chi) == kac_char(f)


def test_irreducible_gl11_atypical_is_monomial():
    for a in (-3, 0, 2):
        chi = HighestWeight(1, 1, (a,), (-a,))
        ch = irreducible_char(chi)
        assert ch.terms == {(a, -a): 1}


def test_irreducible_gl33_structure():
    chi = HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3))
    ch = irreducible_char(chi)
    assert highest_term_ok(ch, chi)
    assert is_w0_symmetric(ch)
    assert supersymmetry_check(ch)
    assert all(isinstance(c, int) and c > 0 for c in ch.terms.values())
    assert dimension_eval(ch) == 34
    assert engine_summand_count(chi) == 4
    assert engine_summand_count(chi, "reduced") == 2


def test_variant_agreement_on_sample():
    rng = random.Random(47)
    for chi in rng.sample(dominant_weights(2, 2, -3, 3), 30):
        assert irreducible_char(chi) == irreducible_char(chi, variant="reduced")


def test_reduced_variant_guard():
    chi = HighestWeight(4, 4, (4, 4, 3, 3), (-3, -3, -4, -4))
    with pytest.raises(ValueError, match="reduced variant unsupported"):
        irreducible_char(chi, variant="reduced")


def test_truncation_instability_raised():
    # depth has no effect, as no series is truncated: 0, below the series
    # bound 4, gives the same character
    chi = HighestWeight(2, 2, (1, 1), (-1, -1))
    assert irreducible_char(chi, depth=0) == irreducible_char(chi)


def test_auto_depth_formula():
    chi = HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3))
    # largest shifted label 3, smallest cross 0, m*n = 9, slack 5
    assert auto_depth(chi) == 3 - 0 + 9 + 5


def test_depth_stability_explicit():
    chi = HighestWeight(2, 2, (1, 1), (-1, -1))
    deep = irreducible_char(chi, depth=8)
    deeper = irreducible_char(chi, depth=13)
    assert deep == deeper


def test_supersymmetry_examples():
    for chi in dominant_weights(2, 1, -1, 1):
        f = diagram_of_weight(chi)
        assert supersymmetry_check(kac_char(f))
    bad = CharPoly.monomial(2, 1, (1, 0, 0))
    assert not supersymmetry_check(bad)
    bad_symmetric = CharPoly(1, 1, {(1, 0): 1})
    assert not supersymmetry_check(bad_symmetric)


def test_dimension_eval():
    f = diagram_of_weight(HighestWeight(1, 1, (0,), (1,)))
    assert dimension_eval(kac_char(f)) == 2
    chi = HighestWeight(1, 1, (2,), (-2,))
    assert dimension_eval(irreducible_char(chi)) == 1
    half = CharPoly(1, 1, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ArithmeticError):
        dimension_eval(half)


def test_highest_term_check():
    chi = HighestWeight(2, 2, (1, 1), (-1, -1))
    ch = irreducible_char(chi)
    assert highest_term_ok(ch, chi)
    shifted = shift(ch, (1, 0, 0, 0))
    assert not highest_term_ok(shifted, chi)


def test_weyl0_is_product_of_blocks():
    chi = HighestWeight(2, 1, (2, 0), (-1,))
    w0 = weyl0_character(chi)
    assert dimension_eval(w0) == weyl_dimension((2, 0)) * weyl_dimension((-1,))
    assert w0.coefficient((2, 0, -1)) == 1


def test_q_odd_product_symmetry():
    q = q_odd_product(2, 2)
    assert is_w0_symmetric(q)
    assert q.coefficient((0, 0, 0, 0)) == 1
    assert q.coefficient((-2, -2, 2, 2)) == 1  # all four odd factors taken
    assert dimension_eval(q) == 2 ** 4


@pytest.mark.parametrize("m,n", [(4, 3), (4, 4)])
def test_gl43_trivial_module(m, n):
    chi = HighestWeight(m, n, (0,) * m, (0,) * n)
    ch = irreducible_char(chi)
    assert ch == CharPoly.monomial(m, n, (0,) * (m + n))
    assert dimension_eval(ch) == 1


@given(gl_weights)
def test_character_terms_in_graded_order_are_in_lex_order(chi):
    # every root of gl(m|n) has total degree 0, so every monomial of ch L
    # and ch K has total degree |chi|, and graded-then-lexicographic order
    # (sorted_terms) is plain lexicographic order, which the CLI sorts by
    chars = [irreducible_char(chi), kac_char(diagram_of_weight(chi))]
    try:
        chars.append(irreducible_char(chi, variant="reduced"))
    except ValueError:
        pass  # the reduced variant does not cover this weight
    for p in chars:
        assert {sum(v) for v in p.terms} == {sum(chi.lam) + sum(chi.mu)}
        assert sorted(p.terms.items(), reverse=True) == p.sorted_terms()
