"""The shared alternation tail, its paired columns, and the formula engine
against its series reference."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar import charring
from superchar.capgraph import ThetaPoly
from superchar.charring import (
    Window,
    _acc,
    _expand_blocks,
    _fold,
    _numerator,
    _strips,
    _tail_blocks,
    auto_depth,
    chi_plus_rho_exponent,
    g0_blocks,
    irreducible_char,
    kac_char,
)
from superchar.oracle import oracle_char, oracle_char_lattice
from superchar.weights import HighestWeight, InvariantError, diagram_of_weight, rho

from helpers import (
    blocks_by_binomials,
    dominant_weights,
    irreducible_char_unfolded,
    restrict,
    tail_by_binomials,
    tail_by_division,
)

SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)]


def _random_numerator(rng, m, n, fractions):
    num = {}
    for _ in range(rng.randint(1, 8)):
        v = tuple(rng.randint(-3, 3) for _ in range(m + n))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        if fractions:
            c = Fraction(c, rng.choice([1, 2, 3, 6]))
        num[v] = num.get(v, 0) + c
    return {v: c for v, c in num.items() if c != 0}


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("m,n", SHAPES)
def test_alternate_tail_matches_division_route(m, n, fractions):
    rng = random.Random(1000 * m + 10 * n + fractions)
    trials = 2 if m * n == 9 else 6
    for _ in range(trials):
        num = _random_numerator(rng, m, n, fractions)
        lo = rng.randint(-3 * n, 2 * n)
        hi = lo + rng.randint(0, m * n)
        blocks = _tail_blocks(m, n, _fold(m, num.items()), lo, hi)
        assert _expand_blocks(m, n, blocks) == tail_by_division(m, n, num, lo, hi), (num, lo, hi)


@pytest.mark.parametrize("m,n", SHAPES)
def test_windowed_tail_is_the_restricted_tail(m, n):
    # random boxes cut from the support's hull widened by one, one box past
    # the support on an even slot, one whose odd slot is moved past the
    # slice so the clip empties it, and one whose odd-degree range lies
    # strictly inside the slice
    rng = random.Random(2000 + 10 * m + n)
    rho_delta = sum(rho(m, n).delta_part)
    hits = misses = inside = 0
    for _ in range(8 if m * n < 9 else 3):
        num = _random_numerator(rng, m, n, rng.random() < 0.3)
        lo = rng.randint(-3 * n, 2 * n)
        hi = lo + rng.randint(0, m * n)
        blocks = _tail_blocks(m, n, _fold(m, num.items()), lo, hi)
        full = _expand_blocks(m, n, blocks)
        if full.is_zero():
            continue
        hull = Window.hull(full, margin=1)
        for trial in range(6):
            eps, delta = ([(rng.randint(a, a + 2), rng.randint(b - 2, b)) for a, b in slots]
                          for slots in (hull.eps, hull.delta))
            if trial == 3:
                eps[0] = (hull.eps[0][1], hull.eps[0][1] + 2)
            if trial == 4:
                # the window's lowest odd degree plus sum(rho_delta) is one
                # past the slice's top, beyond the support
                start = hi - rho_delta + 1 - sum(b for b, _ in delta[1:])
                delta[0] = (start, start + 2)
            if trial == 5:
                if hi - lo < 2:
                    continue
                # other odd slots pinned to one value; the window's odd
                # degrees are then exactly [lo + 1, hi - 1] - sum(rho_delta)
                delta[1:] = [(x, x) for x in (rng.randint(b, t) for b, t in hull.delta[1:])]
                rest = sum(x for x, _ in delta[1:])
                delta[0] = (lo + 1 - rho_delta - rest, hi - 1 - rho_delta - rest)
                inside += 1
            window = Window(tuple(eps), tuple(delta))
            expected = restrict(full, window)
            hits += not expected.is_zero()
            misses += expected.is_zero()
            assert _expand_blocks(m, n, blocks, window) == expected, (num, window)
    assert hits and misses
    assert inside or m * n < 2


@st.composite
def _tail_cases(draw):
    """A numerator with int or Fraction coefficients, an odd-degree slice
    and, half the time, a window."""
    m, n = draw(st.sampled_from([shape for shape in SHAPES if max(shape) <= 3]))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    if draw(st.booleans()):
        coeff = st.builds(Fraction, coeff, st.sampled_from([1, 2, 3, 6]))
    num = draw(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * (m + n)), coeff,
                               min_size=1, max_size=6))
    lo = draw(st.integers(-3 * n, 2 * n))
    hi = lo + draw(st.integers(0, m * n))
    window = None
    if draw(st.booleans()):
        box = [(a, a + draw(st.integers(0, 5)))
               for a in draw(st.lists(st.integers(-5, 3), min_size=m + n, max_size=m + n))]
        window = Window(tuple(box[:m]), tuple(box[m:]))
    return m, n, num, lo, hi, window


@settings(max_examples=80)
@given(_tail_cases())
def test_alternate_tail_matches_binomial_reference(case):
    m, n, num, lo, hi, window = case
    expected = tail_by_binomials(m, n, num, lo, hi)
    if window is not None:
        expected = restrict(expected, window)
    assert _expand_blocks(m, n, _tail_blocks(m, n, _fold(m, num.items()), lo, hi),
                          window) == expected


_ENGINE_WEIGHTS = [chi for m in (1, 2, 3) for n in (1, 2, 3)
                   for chi in dominant_weights(m, n, -2, 2)]


@settings(max_examples=150)
@given(st.sampled_from(_ENGINE_WEIGHTS), st.sampled_from(["classic", "reduced"]))
def test_irreducible_char_matches_unfolded_series(chi, variant):
    try:
        expected = irreducible_char_unfolded(chi, variant)
    except ValueError:
        # the reduced variant does not cover this weight
        with pytest.raises(ValueError):
            irreducible_char(chi, variant)
        return
    got = irreducible_char(chi, variant)
    assert got == expected
    assert all(type(c) is int for c in got.terms.values())


def test_non_integral_character_raises(monkeypatch):
    # theta scaled by 1/3: the engine's g0 blocks are the character's over
    # 3, and the one of chi + rho is 1/3
    original = charring.theta
    monkeypatch.setattr(charring, "theta", lambda forest: ThetaPoly(
        forest.r, {e: c / 3 for e, c in original(forest).terms.items()}))
    chi = HighestWeight(2, 2, (1, 1), (-1, -1))
    with pytest.raises(InvariantError, match=r"g0 block \(.*\) has the non-integer multiplicity"):
        irreducible_char(chi)


@st.composite
def _paired_cases(draw):
    """An int numerator, r disjoint atypical roots eps_i - delta_j and an
    odd-degree slice."""
    m, n = draw(st.sampled_from([shape for shape in SHAPES if max(shape) <= 3]))
    r = draw(st.integers(0, min(m, n)))
    evens = draw(st.permutations(range(m)))[:r]
    odds = draw(st.permutations(range(m, m + n)))[:r]
    alphas = tuple(tuple(1 if s == i else -1 if s == j else 0 for s in range(m + n))
                   for i, j in zip(evens, odds))
    num = draw(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * (m + n)),
                               st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=6))
    lo = draw(st.integers(-3 * n, 2 * n))
    return m, n, num, alphas, lo, lo + draw(st.integers(0, m * n))


def _inversions(seq):
    return sum(a < b for k, a in enumerate(seq) for b in seq[k + 1:])


def _relabelled(m, n, num, alphas):
    """num in _tail_blocks' paired layout: the even block lists the slots no
    root touches, sorted descending, then the roots' even slots; the odd
    block the roots' odd slots, then the rest.  Each term carries the sign
    of the relabelling and of the sort; a repeat among the sorted slots
    dies."""
    evens = [alpha.index(1) for alpha in alphas]
    odds = [alpha.index(-1) for alpha in alphas]
    order = ([s for s in range(m) if s not in evens] + evens
             + odds + [s for s in range(m, m + n) if s not in odds])
    free = m - len(alphas)
    out = {}
    for v, c in num.items():
        w = [v[s] for s in order]
        if len(set(w[:free])) == free:
            sign = (-1) ** (_inversions(order[::-1]) + _inversions(w[:free]))
            _acc(out, tuple(sorted(w[:free], reverse=True)) + tuple(w[free:]), sign * c)
    return out


@settings(max_examples=100)
@given(_paired_cases())
def test_paired_columns_match_binomial_reference(case):
    m, n, num, alphas, lo, hi = case
    expected = {v: c for v, c in blocks_by_binomials(m, n, num, alphas).items()
                if lo <= sum(v[m:]) <= hi}
    assert _tail_blocks(m, n, _relabelled(m, n, num, alphas), lo, hi,
                        paired=len(alphas)) == expected


@pytest.mark.parametrize("variant", ["classic", "reduced"])
def test_trivial_weights_are_one_block(variant):
    # gl(k|k) trivial is atypical of degree k: every odd column is paired,
    # and the module is the one block chi + rho
    for k in range(1, 7):
        chi = HighestWeight(k, k, (0,) * k, (0,) * k)
        assert g0_blocks(chi, variant) == {chi_plus_rho_exponent(chi): 1}, k


def test_strips_match_all_subsets():
    # strictly decreasing blocks of length 1-5 from [-3, 3]: runs of
    # consecutive entries, gaps and negative entries all occur
    blocks = [block for size in range(1, 6)
              for block in itertools.combinations(range(3, -4, -1), size)]
    for block in blocks:
        expected = [[] for _ in range(len(block) + 1)]
        for subset in itertools.product((0, 1), repeat=len(block)):
            low = tuple(x - s for x, s in zip(block, subset))
            if len(set(low)) == len(low):
                # lowering never reorders: a survivor is strictly decreasing
                assert list(low) == sorted(low, reverse=True), (block, subset)
                expected[sum(subset)].append(low)
        assert [sorted(strip) for strip in _strips(block)] == list(map(sorted, expected)), block


def _series_bound(chi, variant):
    """slice_hi minus the smallest odd degree of the initial numerator, or
    None when the reduced variant does not cover the weight."""
    try:
        num, _, _, slice_hi = _numerator(chi, variant)
    except ValueError:
        return None
    return slice_hi - min(sum(v[chi.m:]) for v in num)


def test_series_bound_within_auto_depth():
    # auto_depth's proof: the classic bound is m*n, the reduced one at most
    # m*n + nu.  From gl(5|5) trivial up, m*n + nu is the larger term.
    weights = [chi for m in (1, 2, 3) for n in (1, 2, 3) for chi in dominant_weights(m, n, -3, 3)]
    weights += [HighestWeight(k, k, (0,) * k, (0,) * k) for k in range(4, 8)]
    pairs = 0
    for chi in weights:
        for variant in ("classic", "reduced"):
            bound = _series_bound(chi, variant)
            if bound is None:
                continue
            if variant == "classic":
                assert bound == chi.m * chi.n, chi
            assert bound <= auto_depth(chi), (chi, variant, bound)
            pairs += 1
    assert pairs > 20000


WITNESS_CASES = dominant_weights(2, 2, -1, 1) + [
    HighestWeight(3, 2, (1, 1, 0), (0, -1)),
    HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3)),
    HighestWeight(3, 3, (2, 2, 2), (-2, -2, -2)),
    HighestWeight(3, 3, (3, 3, 3), (-3, -3, -3)),
]


@pytest.mark.parametrize("variant", ["classic", "reduced"])
def test_witness_is_exact_at_the_bound(variant):
    # the engine truncates no series, so a depth below the series bound, at
    # it and 'auto' all give the character of the unfolded series reference
    checked = 0
    for chi in WITNESS_CASES:
        bound = _series_bound(chi, variant)
        if bound is None:
            continue
        expected = irreducible_char_unfolded(chi, variant)
        _, alphas, _, _ = _numerator(chi, variant)
        if not alphas:
            # typical weight: no series at all
            assert irreducible_char(chi, variant, depth=0) == expected
            continue
        for depth in (bound - 1, bound, "auto"):
            assert irreducible_char(chi, variant, depth=depth) == expected, (chi, depth)
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("depth", [2.9, 4.5, 4.0, True, "4", None])
def test_depth_must_be_auto_or_an_int(depth):
    chi = HighestWeight(2, 2, (1, 1), (-1, -1))
    with pytest.raises(ValueError) as exc:
        irreducible_char(chi, depth=depth)
    assert repr(depth) in str(exc.value)


def test_tail_never_expands_the_whole_odd_factor(monkeypatch):
    # the tail applies Q one binomial at a time, so all of its callers (the
    # engine, the Kac characters and both oracles) give the same results
    # with the full product unavailable
    cases = [HighestWeight(2, 2, (1, 0), (0, -1)),
             HighestWeight(3, 2, (1, 1, 0), (0, -1)),
             HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3))]

    def run_all(chi, window):
        f = diagram_of_weight(chi)
        return (irreducible_char(chi), kac_char(f), oracle_char(f, window),
                oracle_char_lattice(f, window))

    windows = [Window.hull(irreducible_char(chi), margin=1) for chi in cases]
    expected = [run_all(chi, window) for chi, window in zip(cases, windows)]

    def unavailable(m, n):
        raise AssertionError("the full odd factor was expanded")

    monkeypatch.setattr(charring, "q_odd_product", unavailable)
    for chi, window, results in zip(cases, windows, expected):
        assert run_all(chi, window) == results, chi
