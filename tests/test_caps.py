import random

from superchar.caps import cap_diagram, projective_family, render_caps, segment_data
from superchar.weights import CROSS, GREATER, LESS, WeightDiagram

from helpers import random_diagram, stack_cap_ends


def crosses_only(*positions):
    return WeightDiagram({p: CROSS for p in positions})


def test_cap_ends_gl33_example():
    cf = cap_diagram(crosses_only(0, 1, 3))
    assert cf.cap_end == {3: 4, 1: 2, 0: 5}


def test_cap_single_cross():
    cf = cap_diagram(crosses_only(7))
    assert cf.cap_end == {7: 8}


def test_cap_run_of_three():
    cf = cap_diagram(crosses_only(0, 1, 2))
    assert cf.cap_end == {2: 3, 1: 4, 0: 5}


def test_caps_skip_core_symbols():
    f = WeightDiagram({0: CROSS, 1: GREATER, 2: CROSS})
    cf = cap_diagram(f)
    assert cf.cap_end == {2: 3, 0: 4}


def test_cap_constructions_agree_on_corpus():
    rng = random.Random(11)
    for _ in range(200):
        f = random_diagram(rng, lo=0, hi=8, r_max=4)
        cf = cap_diagram(f)
        assert cf.cap_end == stack_cap_ends(f)


def test_cap_constructions_agree_exhaustively_on_window():
    from itertools import product

    for symbols in product([None, CROSS, LESS, GREATER], repeat=5):
        f = WeightDiagram({p: s for p, s in enumerate(symbols) if s is not None})
        cf = cap_diagram(f)
        assert cf.cap_end == stack_cap_ends(f)


def test_caps_noncrossing_on_corpus():
    rng = random.Random(13)
    for _ in range(100):
        f = random_diagram(rng, r_max=4)
        cf = cap_diagram(f)
        ends = cf.cap_end
        for a in cf.crosses:
            for b in cf.crosses:
                if a >= b:
                    continue
                nested = b > a and ends[b] < ends[a]
                disjoint = b > ends[a]
                assert nested or disjoint


def test_precedes():
    cf = cap_diagram(crosses_only(0, 1, 3))
    assert cf.nested_under(0, 1)
    assert cf.nested_under(0, 3)
    assert not cf.nested_under(1, 3)
    assert not cf.nested_under(1, 1)
    cf2 = cap_diagram(crosses_only(0, 1, 2))
    assert cf2.nested_under(1, 2)


def test_nesting_is_strict_partial_order():
    rng = random.Random(17)
    for _ in range(60):
        f = random_diagram(rng, r_max=4)
        cf = cap_diagram(f)
        cs = cf.crosses
        for a in cs:
            assert not cf.nested_under(a, a)
            for b in cs:
                if cf.nested_under(a, b):
                    assert not cf.nested_under(b, a)
                for c in cs:
                    if cf.nested_under(a, b) and cf.nested_under(b, c):
                        assert cf.nested_under(a, c)


def test_projective_family_typical():
    f = WeightDiagram({0: GREATER, 1: LESS})
    assert projective_family(f) == {f}


def test_projective_family_gl33():
    fam = projective_family(crosses_only(0, 1, 3))
    assert len(fam) == 8


def test_projective_family_size_on_corpus():
    rng = random.Random(19)
    for _ in range(40):
        f = random_diagram(rng, r_max=3)
        assert len(projective_family(f)) == 2 ** len(f.crosses)


def test_segment_data_gl33():
    sd = segment_data(crosses_only(0, 1, 3))
    assert sd.segments == ((0, 1), (3, 3))
    assert sd.tilde_c == {0: 1, 1: 1, 3: 3}


def test_segment_data_single():
    sd = segment_data(crosses_only(5))
    assert sd.tilde_c == {5: 5}


def test_segment_data_run():
    sd = segment_data(crosses_only(0, 1, 2))
    assert sd.segments == ((0, 2),)
    assert sd.tilde_c == {0: 2, 1: 2, 2: 2}


def test_render_caps_deterministic():
    f = crosses_only(0, 1, 3)
    first = render_caps(f)
    assert first == render_caps(f)
    lines = first.splitlines()
    # symbol row shows the three crosses, arc rows show the nested caps
    assert any("x" in line for line in lines)
    assert any("." in line for line in lines)
    assert len([line for line in lines if "." in line and "-" in line]) == 2
