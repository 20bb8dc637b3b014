import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import superchar.cli as cli
import superchar.oracle as oracle_module
from superchar.capgraph import gamma
from superchar.caps import cap_diagram
from superchar.charring import (
    CharPoly,
    Window,
    alt_J,
    _schur_block,
    _tail_blocks,
    chi_plus_rho_exponent,
    g0_blocks,
    irreducible_char,
    kac_char,
)
from superchar.latticegen import enumerate_lattice
from superchar.oracle import (
    WeightMap,
    enumerate_weight_maps,
    epsilon_sign,
    oracle_blocks,
    oracle_char,
    oracle_char_lattice,
    orthogonality_report,
)
from superchar.weights import (
    CROSS,
    GREATER,
    LESS,
    HighestWeight,
    WeightDiagram,
    diagram_of_weight,
    position_exponents,
    weight_from_diagram,
)

from helpers import (
    core_strip,
    dominant_weights,
    kac_coordinates_by_lattice,
    kac_coordinates_by_relocations,
    maps_down_to,
    orthogonality_dense,
    random_diagram,
    restrict,
)


def crosses_only(*positions):
    return WeightDiagram({p: CROSS for p in positions})


def test_enumerate_single_cross():
    maps = enumerate_weight_maps(crosses_only(0), 2)
    assert [wm.phi[0] for wm in maps] == [-2, -1, 0]


def test_enumerate_nested_pair():
    maps = maps_down_to(crosses_only(0, 1), -1)
    assert sorted(tuple(sorted(wm.phi.items())) for wm in maps) == [
        (((0, -1), (1, 0))), (((0, -1), (1, 1))), (((0, 0), (1, 1)))]


def test_enumerators_reject_a_negative_budget():
    f = crosses_only(0, 1)
    with pytest.raises(ValueError):
        enumerate_weight_maps(f, -1)
    with pytest.raises(ValueError):
        enumerate_lattice(gamma(cap_diagram(f)), -1)


def test_enumerate_avoids_core_positions():
    f = WeightDiagram({0: CROSS, -1: GREATER})
    maps = enumerate_weight_maps(f, 3)
    values = sorted(wm.phi[0] for wm in maps)
    assert values == [-3, -2, 0]  # -1 is occupied by the core symbol


@st.composite
def _diagrams_with_crosses(draw):
    r = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    positions = draw(st.lists(st.integers(-6, 6), min_size=r + k, max_size=r + k, unique=True))
    symbols = {p: CROSS for p in positions[:r]}
    symbols.update(zip(positions[r:], draw(st.lists(st.sampled_from([LESS, GREATER]),
                                                    min_size=k, max_size=k))))
    return WeightDiagram(symbols)


@given(_diagrams_with_crosses())
def test_enumerate_budget_filters_the_plain_list(f):
    # the budget m*n oracle_char passes keeps exactly the relocations whose
    # total displacement reaches the odd-degree slice, in the same order
    mn = f.m * f.n
    plain = maps_down_to(f, min(f.crosses) - mn)
    within = [wm for wm in plain if sum(c - x for c, x in wm.phi.items()) <= mn]
    assert enumerate_weight_maps(f, mn) == within


def test_enumerate_matches_lattice_points_of_region():
    # relocations within a displacement budget correspond to the injective
    # integer points of the nesting forest's polyhedron within it that avoid
    # the cores and are strict along the forest edges
    rng = random.Random(67)
    diagrams = [crosses_only(0, 1, 3), crosses_only(0, 1, 2),
                WeightDiagram({0: CROSS, 1: GREATER, 2: CROSS}),
                WeightDiagram({-1: LESS, 0: CROSS, 2: CROSS, 3: GREATER})]
    diagrams += [random_diagram(rng, r_max=3) for _ in range(10)]
    for f in diagrams:
        if not f.crosses:
            continue
        maps = enumerate_weight_maps(f, 4)
        forest = gamma(cap_diagram(f))
        cores = set(f.core_positions)
        points = [
            x for x in enumerate_lattice(forest, 4)
            if len(set(x)) == len(x) and not cores & set(x)
            and all(x[i] < x[j] for i, j in forest.edges)]
        got = sorted(tuple(wm.phi[c] for c in f.crosses) for wm in maps)
        assert got == sorted(points), f


def test_epsilon_identity_map():
    f = crosses_only(0, 1, 3)
    wm = WeightMap({0: 0, 1: 1, 3: 3})
    assert epsilon_sign(f, wm) == 1


def test_epsilon_two_step_drop():
    f = crosses_only(5)
    assert epsilon_sign(f, WeightMap({5: 3})) == 1
    assert epsilon_sign(f, WeightMap({5: 4})) == -1


def test_epsilon_discounts_cores():
    f = WeightDiagram({5: CROSS, 3: LESS})
    # displacement 5 -> 2 jumps over the core at 3: parity from 3 - 1 = 2
    assert epsilon_sign(f, WeightMap({5: 2})) == 1
    g = crosses_only(5)
    assert epsilon_sign(g, WeightMap({5: 2})) == -1


def test_epsilon_invariant_under_core_strip():
    rng = random.Random(53)
    checked = 0
    for _ in range(80):
        f = random_diagram(rng, r_max=3, with_core=True)
        if not f.crosses:
            continue
        stripped, reindex = core_strip(f)
        for wm in maps_down_to(f, min(f.crosses) - 3):
            image = wm.image_diagram(f)
            _, image_reindex = core_strip(image)
            phi_sharp = {reindex[a]: image_reindex[b] for a, b in wm.phi.items()}
            assert epsilon_sign(f, wm) == epsilon_sign(stripped, WeightMap(phi_sharp))
            checked += 1
    assert checked > 100


def test_oracle_typical_is_kac():
    chi = HighestWeight(2, 1, (2, 0), (-1,))
    f = diagram_of_weight(chi)
    assert f.crosses == ()
    k = kac_char(f)
    window = Window.hull(k, margin=1)
    assert oracle_char(f, window) == k


def test_oracle_char_makes_one_kac_sum_call(monkeypatch):
    # the Kac sum is one run of the shared tail on the merged coordinates
    calls = []
    real = oracle_module._tail_blocks

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "_tail_blocks", counting)
    chi = HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3))
    ch = irreducible_char(chi)
    assert oracle_char(diagram_of_weight(chi), Window.hull(ch)) == ch
    assert len(calls) == 1
    # many relocations reach the window, merged into one coefficient map
    assert len(calls[0][2]) > 1


@pytest.mark.parametrize("chi", [
    HighestWeight(2, 2, (1, 0), (0, -1)),
    HighestWeight(3, 2, (2, 1, 0), (0, -2)),
    HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3)),
    HighestWeight(3, 3, (1, 1, 0), (0, -1, -1)),
], ids=str)
def test_oracles_on_the_hull_add_no_schur_block_misses(chi):
    # both oracles end in L(chi)'s own g0 blocks, and a window only filters
    # finished Schur blocks, so the engine's run leaves every block cached
    ch = irreducible_char(chi)
    misses = _schur_block.cache_info().misses
    f, window = diagram_of_weight(chi), Window.hull(ch, margin=1)
    assert oracle_char(f, window) == ch
    assert oracle_char_lattice(f, window) == ch
    assert _schur_block.cache_info().misses == misses


def test_oracle_gl11_telescopes_to_monomial():
    chi = HighestWeight(1, 1, (4,), (-4,))
    f = diagram_of_weight(chi)
    window = Window(((2, 5),), ((-5, -2),))
    ch = oracle_char(f, window)
    assert ch.terms == {(4, -4): 1}


GL33_WEIGHTS = [HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3)),
                HighestWeight(3, 3, (2, 2, 2), (-2, -2, -2)),
                HighestWeight(3, 3, (3, 2, 2), (-1, -2, -3))]


class _Captured(Exception):
    pass


def _bound_cases():
    """Atypical weights of the verify grids and of gl(3|3), each with its
    hull window."""
    weights = [chi for (m, n) in [(1, 1), (2, 1), (2, 2)]
               for chi in dominant_weights(m, n, -2, 2)] + GL33_WEIGHTS
    for chi in weights:
        f = diagram_of_weight(chi)
        if not f.crosses:
            continue
        window = Window.hull(irreducible_char(chi), margin=1)
        yield chi, f, window


def test_relocations_below_cutoff_bound_miss_the_window(monkeypatch):
    # the budget oracle_char would enumerate within
    def capture(f, budget):
        raise _Captured(budget)

    monkeypatch.setattr(oracle_module, "enumerate_weight_maps", capture)
    over = 0
    for chi, f, window in _bound_cases():
        with pytest.raises(_Captured) as info:
            oracle_char(f, window)
        [budget] = info.value.args
        assert budget == f.m * f.n, chi
        # the character's odd degrees end m*n above the odd degree of chi + rho
        slice_hi = sum(chi_plus_rho_exponent(chi)[f.m:]) + budget
        for wm in enumerate_weight_maps(f, budget + 3):
            if sum(c - x for c, x in wm.phi.items()) > budget:
                over += 1
                omega = chi_plus_rho_exponent(weight_from_diagram(wm.image_diagram(f)))
                assert sum(omega[f.m:]) > slice_hi, (chi, wm)
    assert over  # the enumeration within budget + 3 does reach over the budget


def test_lattice_points_below_default_cutoff_leave_the_slice(monkeypatch):
    # the forest and budget oracle_char_lattice would enumerate
    def capture(forest, budget):
        raise _Captured(forest, budget)

    monkeypatch.setattr(oracle_module, "enumerate_lattice", capture)
    over = 0
    for chi, f, window in _bound_cases():
        with pytest.raises(_Captured) as info:
            oracle_char_lattice(f, window)
        forest, budget = info.value.args
        assert forest == gamma(cap_diagram(f)), chi
        assert budget == f.m * f.n, chi
        # a point's odd degree is -sum('<' positions) - sum(x); the slice
        # ends m*n above its value at the crosses themselves
        less_sum = sum(f.less_positions)
        slice_hi = -less_sum - sum(f.crosses) + budget
        for x in enumerate_lattice(forest, budget + 3):
            if sum(f.crosses) - sum(x) > budget:
                over += 1
                assert -less_sum - sum(x) > slice_hi, (chi, x)
    assert over  # the enumeration within budget + 3 does reach over the budget


def test_lattice_route_enumerates_only_the_budget_on_gl44_trivial(monkeypatch):
    # the lattice route hands on the points within displacement m*n = 16
    # only; down to the cutoff min(crosses) - m*n it would be 8,602
    counts = []

    def counting(forest, budget):
        points = enumerate_lattice(forest, budget)
        counts.append(len(points))
        return points

    monkeypatch.setattr(oracle_module, "enumerate_lattice", counting)
    chi = HighestWeight(4, 4, (0, 0, 0, 0), (0, 0, 0, 0))
    ch = irreducible_char(chi)
    assert oracle_char_lattice(diagram_of_weight(chi), Window.hull(ch, margin=1)) == ch
    assert counts == [785]


def test_oracle_agrees_with_engine_on_grid():
    for (m, n) in [(1, 1), (2, 1)]:
        for chi in dominant_weights(m, n, -2, 2):
            f = diagram_of_weight(chi)
            ch = irreducible_char(chi)
            window = Window.hull(ch, margin=1)
            assert oracle_char(f, window) == ch, chi


COORDINATE_WEIGHTS = ([chi for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]
                       for chi in dominant_weights(m, n, -2, 2)]
                      + [chi for m, n in [(3, 2), (2, 3), (3, 3)]
                         for chi in dominant_weights(m, n, -1, 1)])


def test_kac_coordinates_agree_across_routes():
    # the g0 blocks of L(chi) five ways: the engine's classic and reduced
    # numerators through the paired columns, the relocation oracle's blocks
    # (oracle_blocks), and the Su-Zhang relocations' and the polyhedron's
    # lattice points' Kac coordinates, built here the long way, through the
    # shared tail on the character's odd-degree slice; the windowed oracles
    # check the characters end to end
    assert len(COORDINATE_WEIGHTS) == 620
    reduced = 0
    for chi in COORDINATE_WEIGHTS:
        m, n = chi.m, chi.n
        f = diagram_of_weight(chi)
        top = chi_plus_rho_exponent(chi)
        lo = sum(top[m:])
        blocks = g0_blocks(chi)
        assert blocks[top] == 1, chi
        assert all(type(c) is int and c > 0 for c in blocks.values()), (chi, blocks)
        routes = {"oracle": oracle_blocks(f),
                  "relocations": _tail_blocks(m, n, kac_coordinates_by_relocations(f),
                                              lo, lo + m * n),
                  "lattice": _tail_blocks(m, n, kac_coordinates_by_lattice(f), lo, lo + m * n)}
        try:
            routes["reduced"] = g0_blocks(chi, "reduced")
            reduced += 1
        except ValueError:
            pass  # the reduced variant does not cover this weight
        for route, got in routes.items():
            bad = sorted((v for v in blocks.keys() | got.keys()
                          if blocks.get(v, 0) != got.get(v, 0)), reverse=True)
            assert not bad, (f"{chi}: {route} gives {got.get(bad[0], 0)} at g0 "
                             f"block {bad[0]}, classic {blocks.get(bad[0], 0)}")
    assert reduced > 300


def test_lattice_route_agrees_with_engine():
    rng = random.Random(59)
    sample = rng.sample(dominant_weights(2, 2, -2, 2), 20)
    sample.append(HighestWeight(3, 3, (3, 2, 2), (-2, -2, -3)))
    for chi in sample:
        f = diagram_of_weight(chi)
        ch = irreducible_char(chi)
        window = Window.hull(ch, margin=1)
        assert oracle_char_lattice(f, window) == restrict(ch, window) == ch, chi


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_oracles_on_clipped_windows(m, n):
    # both routes sum on the character's odd-degree slice and apply the
    # window at the expansion only, so any box gives the restricted
    # character: boxes cut around a random term, the second per weight with
    # its even slots moved 9 up (mostly off the support), the third with its
    # odd slots moved 9 up (off the slice [|mu|, |mu| + m*n] of odd degrees)
    rng = random.Random(31 * m + n)
    lo, hi = (-2, 2) if m * n <= 4 else (-1, 1)
    kinds = {"hit": 0, "miss": 0, "off the slice": 0}
    for chi in rng.sample(dominant_weights(m, n, lo, hi), 10):
        f = diagram_of_weight(chi)
        ch = irreducible_char(chi)
        for moved in (range(0), range(m), range(m, m + n)):
            centre = rng.choice(sorted(ch.terms))
            box = [(x + 9 * (s in moved) - rng.randint(0, 2),
                    x + 9 * (s in moved) + rng.randint(0, 2)) for s, x in enumerate(centre)]
            window = Window(tuple(box[:m]), tuple(box[m:]))
            expected = restrict(ch, window)
            if (sum(b for b, _ in box[m:]) > sum(chi.mu) + m * n
                    or sum(t for _, t in box[m:]) < sum(chi.mu)):
                kinds["off the slice"] += 1
            else:
                kinds["miss" if expected.is_zero() else "hit"] += 1
            assert oracle_char(f, window) == expected, (chi, window)
            assert oracle_char_lattice(f, window) == expected, (chi, window)
    assert all(kinds.values()), kinds


def test_all_routes_on_asymmetric_blocks():
    rng = random.Random(101)
    cases = [(3, 2, -3, 3, 12), (1, 3, -3, 3, 12), (3, 1, -4, 4, 12)]
    for (m, n, lo, hi, k) in cases:
        pool = dominant_weights(m, n, lo, hi)
        for chi in rng.sample(pool, min(k, len(pool))):
            f = diagram_of_weight(chi)
            ch = irreducible_char(chi)
            assert irreducible_char(chi, variant="reduced") == ch, chi
            window = Window.hull(ch, margin=1)
            assert oracle_char(f, window) == ch, chi
            assert oracle_char_lattice(f, window) == ch, chi


def test_all_routes_on_deeper_gl33_weights():
    # maximally atypical chain, a cored two-cross weight, and a weight whose
    # crosses spread across segments
    cases = [HighestWeight(3, 3, (2, 2, 2), (-2, -2, -2)),
             HighestWeight(3, 3, (3, 2, 2), (-1, -2, -3)),
             HighestWeight(3, 3, (1, 1, 0), (0, -1, -1))]
    for chi in cases:
        f = diagram_of_weight(chi)
        ch = irreducible_char(chi)
        assert irreducible_char(chi, variant="reduced") == ch, chi
        window = Window.hull(ch, margin=1)
        assert oracle_char(f, window) == ch, chi
        assert oracle_char_lattice(f, window) == ch, chi


def test_signed_alternant_identity_per_relocation():
    # J(e^{shifted weight of the image}) equals the alternant of the raw
    # coordinate image up to the parity of core symbols jumped over
    rng = random.Random(61)
    for _ in range(60):
        f = random_diagram(rng, lo=0, hi=6, r_max=2, with_core=True)
        if not f.crosses:
            continue
        m, n = f.m, f.n
        exps = position_exponents(f)
        positions = f.positions()
        for wm in maps_down_to(f, min(f.crosses) - 2):
            g = wm.image_diagram(f)
            omega = chi_plus_rho_exponent(weight_from_diagram(g))
            lhs = alt_J(CharPoly.monomial(m, n, omega))
            x = {p: p for p in positions}
            x.update(wm.phi)
            vec = [0] * (m + n)
            for p in positions:
                for t in range(m + n):
                    vec[t] += x[p] * exps[p][t]
            tau = sum(
                sum(1 for c in f.core_positions if wm.phi[a] < c < a)
                for a in f.crosses)
            rhs = alt_J(CharPoly.monomial(m, n, tuple(vec)))
            assert lhs == (rhs if tau % 2 == 0 else -rhs), (f, wm)


def test_orthogonality_small_windows():
    assert orthogonality_report((0, 5), 1, 1, 1).ok
    assert orthogonality_report((0, 6), 2, 2, 2).ok


def test_orthogonality_report_details():
    rep = orthogonality_report((0, 5), 1, 1, 1)
    assert rep.ok
    assert rep.family_size == 36  # 6 single-cross + 30 typical diagrams
    assert rep.interior_rows < rep.family_size  # boundary rows are excluded
    assert all(max(d.positions()) == 5 for d in rep.excluded_rows)


def test_orthogonality_diagonal_entries():
    # identity relocation and the empty swap give the diagonal ones
    f = crosses_only(2)
    maps = enumerate_weight_maps(f, 2)
    identity = [wm for wm in maps if wm.phi == {2: 2}]
    assert len(identity) == 1
    assert epsilon_sign(f, identity[0]) == 1


# the two windows of `verify --only orthogonality`, then gl(2|1) and gl(3|2):
# the report's budgeted relocations against the dense route's by-value ones
ORTHOGONALITY_WINDOWS = [((0, 5), 1, 1, 1), ((0, 6), 2, 2, 2),
                         ((-1, 5), 2, 1, 1), ((0, 5), 3, 2, 2)]


def _flip_signs(monkeypatch, flipped, identity_too):
    """Negate the sign of every relocation of the diagrams in flipped; that
    of the identity relocation only if identity_too."""
    sign = oracle_module.epsilon_sign

    def patched(f, wm):
        s = sign(f, wm)
        if f in flipped and (identity_too or wm.image_diagram(f) != f):
            return -s
        return s

    monkeypatch.setattr(oracle_module, "epsilon_sign", patched)


@pytest.mark.parametrize("args", ORTHOGONALITY_WINDOWS)
def test_orthogonality_sparse_equals_dense(args):
    rep = orthogonality_report(*args)
    assert rep.ok
    assert rep == orthogonality_dense(*args)


@pytest.mark.parametrize("args, g0", zip(ORTHOGONALITY_WINDOWS,
                                         [crosses_only(2), crosses_only(2, 3)]))
def test_flipped_sign_fails_its_own_row(monkeypatch, args, g0):
    # negating column g0 turns its diagonal entry to -1 and keeps every
    # off-diagonal entry of the column at 0
    _flip_signs(monkeypatch, {g0}, identity_too=True)
    rep = orthogonality_report(*args)
    assert not rep.ok
    assert rep.first_failure == (g0, g0, -1)
    assert rep == orthogonality_dense(*args)


@pytest.mark.parametrize("args, flipped", [
    (((0, 5), 1, 1, 1), [crosses_only(5)]),
    (((0, 6), 2, 2, 2), [crosses_only(2, 3)]),
    (((0, 6), 2, 2, 2), [crosses_only(0, 2), crosses_only(1, 3)]),
])
def test_off_diagonal_flips_fail_both_routes_alike(monkeypatch, args, flipped):
    _flip_signs(monkeypatch, set(flipped), identity_too=False)
    rep = orthogonality_report(*args)
    assert not rep.ok
    assert rep == orthogonality_dense(*args)


def test_verify_orthogonality_names_the_failing_pair(monkeypatch, capsys):
    _flip_signs(monkeypatch, {crosses_only(2)}, identity_too=True)
    code = cli.main(["verify", "--only", "orthogonality", "--format", "json"])
    suite = json.loads(capsys.readouterr().out)["suites"]["orthogonality"]
    assert code == 4
    assert not suite["ok"]
    assert suite["failure"] == \
        "row A=[2] B=[2] column A=[2] B=[2] pairs to -1, not 1"


def test_orthogonality_gl33_window():
    rep = orthogonality_report((0, 7), 3, 3, 3)
    assert rep.ok
    assert (rep.family_size, rep.interior_rows) == (3136, 2352)
