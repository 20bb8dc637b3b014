import argparse
import contextlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import superchar
import superchar.caps
import superchar.charring
import superchar.cli as cli
import superchar.oracle
import superchar.weights
from superchar.capgraph import ThetaPoly
from superchar.weights import (
    CROSS,
    GREATER,
    LESS,
    ABPair,
    HighestWeight,
    WeightDiagram,
    ab_from_diagram,
    build_diagram,
)

from helpers import (
    char_payload,
    diagram_payload,
    gl_weights,
    json_reference,
    kac_payload,
    proj_output_by_diagrams,
    theta_payload,
    verify_payload,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _diagram(ab_text):
    a, b = (tuple(map(int, side.split(","))) for side in ab_text.split(":"))
    return build_diagram(ABPair(a, b))


def _ab_arg(f):
    ab = ab_from_diagram(f)
    return ",".join(map(str, ab.A)) + ":" + ",".join(map(str, ab.B))


def test_char_gl11_single_monomial(capsys):
    code, out, _ = run(capsys, "char", "--m", "1", "--n", "1",
                       "--lambda", "0", "--mu", "0")
    assert code == 0
    assert "dimension: 1" in out


def test_char_json_is_byte_stable(capsys):
    args = ["char", "--m", "2", "--n", "2", "--lambda", "1,1",
            "--mu", "-1,-1", "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_char_json_round_trip(capsys):
    code, out, _ = run(capsys, "char", "--m", "2", "--n", "2",
                       "--lambda", "2,1", "--mu", "-1,-2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2 and payload["n"] == 2
    assert payload["lambda"] == [2, 1] and payload["mu"] == [-1, -2]
    total = sum(eval_frac(t["coeff"]) for t in payload["monomials"])
    assert total == payload["dimension"]
    reserialized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert reserialized == out


def eval_frac(text):
    from fractions import Fraction

    return Fraction(text)


def test_char_latex_gl33(capsys):
    code, out, _ = run(capsys, "char", "--m", "3", "--n", "3",
                       "--lambda", "3,2,2", "--mu", "-2,-2,-3",
                       "--format", "latex")
    assert code == 0
    assert "e^{\\chi+\\rho}" in out
    assert "\\tfrac{1}{2}e^{-\\alpha_{2}}" in out
    assert "\\tfrac{1}{2}e^{-3\\alpha_{3}}" in out
    assert "\\tfrac{1}{3}e^{-\\alpha_{2}}e^{-3\\alpha_{3}}" in out
    assert "(1+e^{-\\alpha_{1}})(1+e^{-\\alpha_{2}})(1+e^{-\\alpha_{3}})" in out


def test_char_variants_agree(capsys):
    base = ["char", "--m", "2", "--n", "2", "--lambda", "1,1", "--mu", "-1,-1",
            "--format", "json"]
    _, classic, _ = run(capsys, *base)
    _, reduced, _ = run(capsys, *base, "--variant", "reduced")
    left = json.loads(classic)
    right = json.loads(reduced)
    assert left["monomials"] == right["monomials"]


def test_theta_text_golden(capsys):
    code, out, _ = run(capsys, "theta", "--m", "3", "--n", "3",
                       "--lambda", "3,2,2", "--mu", "-2,-2,-3")
    assert code == 0
    assert out.strip() == "1 - 1/2 t2^-1 - 1/2 t3^-3 + 1/3 t2^-1 t3^-3"


def test_theta_reduced_text(capsys):
    code, out, _ = run(capsys, "theta", "--m", "3", "--n", "3",
                       "--lambda", "3,2,2", "--mu", "-2,-2,-3",
                       "--variant", "reduced")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1/2 - 1/6 t3^-2"
    assert lines[1] == "nu = 1, gamma coefficients = [1, 0, 0]"


def test_theta_edgeless(capsys):
    code, out, _ = run(capsys, "theta", "--m", "2", "--n", "2",
                       "--lambda", "2,0", "--mu", "0,-2")
    assert code == 0
    assert out.strip() == "1"


def test_diagram_text(capsys):
    code, out, _ = run(capsys, "diagram", "--m", "3", "--n", "3",
                       "--lambda", "3,2,2", "--mu", "-2,-2,-3")
    assert code == 0
    assert "A = [3, 1, 0]  B = [0, 1, 3]" in out
    assert "0->1, 0->2" in out


def test_diagram_json(capsys):
    code, out, _ = run(capsys, "diagram", "--m", "3", "--n", "3",
                       "--lambda", "3,2,2", "--mu", "-2,-2,-3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["crosses"] == [0, 1, 3]
    assert payload["caps"] == {"0": 5, "1": 2, "3": 4}
    assert payload["edges"] == [[0, 1], [0, 2]]
    assert payload["segments"] == [[0, 1], [3, 3]]


def test_ab_input(capsys):
    code, out, _ = run(capsys, "diagram", "--ab", "3,1,0:0,1,3")
    assert code == 0
    assert "A = [3, 1, 0]  B = [0, 1, 3]" in out


def test_proj_counts(capsys):
    code, out, _ = run(capsys, "proj", "--m", "2", "--n", "2",
                       "--lambda", "1,1", "--mu", "-1,-1")
    assert code == 0
    assert "4 diagrams" in out


def test_invariant_violation_exits_4(capsys, monkeypatch):
    # caps (1, 2) and (0, 4) nest, so the crossing check passes, but cap end 2
    # sits on the '>' of --ab 2,1,0:0,1: a swap would overwrite that core
    monkeypatch.setattr(superchar.caps, "_caps_greedy", lambda f: {1: 2, 0: 4})
    with pytest.raises(superchar.InvariantError):
        superchar.caps.projective_family(_diagram("2,1,0:0,1"))
    code, _, err = run(capsys, "proj", "--ab", "2,1,0:0,1")
    assert code == 4
    assert err.startswith("error: invariant violated: ")
    assert err.count("\n") == 1


# r = 12 with three cores, negative and two-digit positions: the shape of the
# slowest forest-wide proj operations
R12_AB = "23,21,16,12,11,10,9,6,5,4,3,1,-1,-2,-3:-3,-2,-1,1,3,4,5,6,9,10,11,21"


def _lines(text):
    # byte-equal iff equal; a failure names the first differing line without
    # pytest diffing two 4,096-member outputs character by character
    return text.splitlines(keepends=True)


@st.composite
def _proj_diagrams(draw):
    # positions in [-14, 14], so JSON keys such as "-10" and "-9" must order as strings
    r = draw(st.integers(0, 6))
    k = draw(st.integers(0 if r else 2, 3))
    positions = draw(st.lists(st.integers(-14, 14), min_size=r + k,
                              max_size=r + k, unique=True))
    cores = draw(st.lists(st.sampled_from([LESS, GREATER]), min_size=k, max_size=k))
    symbols = {p: CROSS for p in positions[:r]}
    symbols.update(zip(positions[r:], cores))
    f = WeightDiagram(symbols)
    assume(f.m >= 1 and f.n >= 1)
    return f


@given(_proj_diagrams())
def test_proj_bytes_match_the_diagram_route(f):
    for fmt in ("text", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["proj", "--ab", _ab_arg(f), "--format", fmt]) == 0
        assert _lines(out.getvalue()) == _lines(proj_output_by_diagrams(f, fmt)), fmt


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_proj_bytes_match_the_diagram_route_at_r12(capsys, fmt):
    f = _diagram(R12_AB)
    assert len(f.crosses) == 12
    code, out, _ = run(capsys, "proj", "--ab", R12_AB, "--format", fmt)
    assert code == 0
    assert _lines(out) == _lines(proj_output_by_diagrams(f, fmt))


def test_proj_renders_from_the_pairs(capsys, monkeypatch):
    # proj builds no diagram per member and no generic JSON: with the family
    # of diagrams and json.dumps unavailable it still prints all 4,096
    def unavailable(*args, **kwargs):
        raise AssertionError("proj went through a diagram per member or json.dumps")

    monkeypatch.setattr(superchar.caps, "projective_family", unavailable)
    monkeypatch.setattr(superchar.cli.json, "dumps", unavailable)
    code, out, _ = run(capsys, "proj", "--ab", R12_AB, "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 4096


def test_consecutive_main_calls_share_no_state(capsys):
    gl33 = ("--m", "3", "--n", "3", "--lambda", "3,2,2", "--mu", "-2,-2,-3")
    run(capsys, "theta", *gl33, "--variant", "reduced")
    _, out, _ = run(capsys, "theta", *gl33)
    assert out == "1 - 1/2 t2^-1 - 1/2 t3^-3 + 1/3 t2^-1 t3^-3\n"
    run(capsys, "proj", *gl33, "--format", "json")
    _, out, _ = run(capsys, "proj", *gl33)
    assert out.startswith("8 diagrams in the projective family:\n")
    assert cli._parser() is cli._parser()


def test_crossing_caps_exit_4(capsys, monkeypatch):
    # caps (0, 2) and (1, 3) cross
    monkeypatch.setattr(superchar.caps, "_caps_greedy",
                        lambda f: {0: 2, 1: 3})
    code, _, err = run(capsys, "diagram", "--m", "2", "--n", "2",
                       "--lambda", "1,1", "--mu", "-1,-1")
    assert code == 4
    assert err == "error: invariant violated: caps (0,2) and (1,3) cross\n"


def test_kac_command(capsys):
    code, out, _ = run(capsys, "kac", "--m", "1", "--n", "1",
                       "--lambda", "0", "--mu", "1")
    assert code == 0
    assert "dimension: 2" in out


def test_bad_weight_exits_2(capsys):
    code, _, err = run(capsys, "char", "--m", "2", "--n", "1",
                       "--lambda", "0,1", "--mu", "0")
    assert code == 2
    assert "non-increasing" in err


def test_bad_lengths_exit_2(capsys):
    code, _, err = run(capsys, "char", "--m", "2", "--n", "1",
                       "--lambda", "1", "--mu", "0")
    assert code == 2


def test_missing_weight_exits_2(capsys):
    code, _, err = run(capsys, "char", "--format", "json")
    assert code == 2


# one list entry: an integer with |x| <= 9, or something that is not one
_ENTRY = st.one_of(st.integers(-9, 9).map(str),
                   st.sampled_from(["", " ", "x", "1.5", "--", "-", "+2", "1e3"]))
# at most two entries with any separators, stray ':' and ',' included; three
# entries would allow gl(3|3) weights with labels near 9, whose Kac modules
# have ~10^10 terms and hang like huge labels do until the work is bounded
_LIST = st.lists(st.tuples(_ENTRY, st.sampled_from(["", ",", ":", ",,", ", ", ":,"])),
                 max_size=2).map(lambda parts: "".join(e + sep for e, sep in parts))
_NOISE = st.one_of(
    st.tuples(st.sampled_from(["--m", "--n"]), _ENTRY),
    st.tuples(st.sampled_from(["--lambda", "--mu", "--ab"]), _LIST),
    st.tuples(st.just("--ab"), st.tuples(_LIST, _LIST).map(":".join)),
    st.tuples(st.sampled_from(["--format", "--variant"]),
              st.sampled_from(["text", "json", "latex", "classic", "reduced", ""])))


def _int_list(k):
    return st.lists(st.integers(-9, 9), min_size=k, max_size=k).map(
        lambda xs: ",".join(map(str, xs)))


# a well-formed weight (its lists may still be non-increasing or repeat a
# label), so that some soups parse and run
_WEIGHT = st.one_of(
    st.tuples(_int_list(1) | _int_list(2), _int_list(1) | _int_list(2)).map(
        lambda ab: [("--ab", ":".join(ab))]),
    st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(lambda mn: st.tuples(
        _int_list(mn[0]), _int_list(mn[1])).map(lambda lm: [
            ("--m", str(mn[0])), ("--n", str(mn[1])), ("--lambda", lm[0]), ("--mu", lm[1])])))


@settings(max_examples=300)
@given(st.sampled_from(["char", "kac", "diagram", "theta", "proj", "verify"]),
       st.tuples(st.just([]) | _WEIGHT, st.lists(_NOISE, max_size=4)).flatmap(
           lambda parts: st.permutations(parts[0] + parts[1])))
def test_weight_flag_soups_exit_0_or_2(command, flags):
    # duplicates, empty lists, stray separators, non-integers and
    # non-increasing lists on every command and format: the CLI prints a
    # result (0) or refuses on stderr (2, argparse's refusals included),
    # and never raises; verify takes no weight flag, so it always refuses
    # one (alone it would run every suite)
    assume(command != "verify" or any(flag != "--format" for flag, _ in flags))
    argv = [command] + [tok for flag in flags for tok in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert bool(err.getvalue()) == (code == 2), (argv, code)
    assert bool(out.getvalue()) == (code == 0), (argv, code)


def _exits_2_unrecognized(capsys, argv, rest):
    # argparse refuses an unknown option: exit 2, the usage on stderr
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {rest}" in err
    return err


@pytest.mark.parametrize("depth", ["abc", "1.5"])
def test_non_integer_depth_exits_2(capsys, depth):
    # no series is truncated, so --depth is not an option
    _exits_2_unrecognized(capsys, ["char", "--m", "1", "--n", "1", "--lambda", "0",
                                   "--mu", "0", "--depth", depth], f"--depth {depth}")


def test_instability_exits_3(capsys):
    # there is no depth option, so no exit 3: argparse refuses any depth
    for fmt in ("text", "latex"):
        _exits_2_unrecognized(capsys, ["char", "--m", "2", "--n", "2", "--lambda", "1,1",
                                       "--mu", "-1,-1", "--depth", "0", "--format", fmt],
                              "--depth 0")


@pytest.mark.parametrize("fmt", ["text", "latex"])
@pytest.mark.parametrize("weight,depth,message", [
    (("--m", "4", "--n", "3", "--lambda", "0,0,0,0", "--mu", "0,-1,-1"), "auto",
     "reduced variant unsupported: a non-special edge of the nesting forest leaves "
     "the core subforest (use the classic variant for this weight)"),
    (("--ab", "3,0:0,3"), "-1", "depth must be non-negative"),
    (("--ab", "3,1:0,3"), "-2", "depth must be non-negative"),
])
def test_unsupported_weight_or_depth_exits_2(capsys, fmt, weight, depth, message):
    # the reduced-support refusal is ours; a depth, even a negative one, is
    # an unknown option to argparse and never reaches a depth message
    argv = ["char", *weight, "--variant", "reduced", "--format", fmt]
    if depth == "auto":
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    else:
        err = _exits_2_unrecognized(capsys, argv + ["--depth", depth], f"--depth {depth}")
        assert message not in err


def test_char_latex_runs_no_series(capsys, monkeypatch):
    # the closed form needs only theta: with the odd columns unavailable it
    # still prints, and a weight whose expansion has dimension about 4e12
    # prints at once
    def unavailable(*args, **kwargs):
        raise AssertionError("char --format latex ran the odd columns")

    monkeypatch.setattr(superchar.charring, "_tail_blocks", unavailable)
    for variant in ("classic", "reduced"):
        code, out, err = run(capsys, "char", "--ab", "9,6,4,2,0:0,2,4,6,9",
                             "--variant", variant, "--format", "latex")
        assert (code, err) == (0, "")
        assert out.startswith("D\\,\\mathrm{ch}\\,L(\\chi)="), variant


def test_reduced_variant_runs_at_its_default_depth(capsys):
    # gl(5|5) trivial: the reduced series bound m*n + nu = 25 + 10 is above
    # m*n + spread + 5 = 34, so the default depth is 35
    code, out, err = run(capsys, "char", "--m", "5", "--n", "5", "--lambda", "0,0,0,0,0",
                         "--mu", "0,0,0,0,0", "--variant", "reduced")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["1", "dimension: 1"]
    code, out, err = run(capsys, "char", "--ab", "4,3,2,1,0:0,1,2,3,4",
                         "--variant", "reduced", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["depth"], payload["dimension"]) == (35, 1)
    assert payload["monomials"] == [{"eps": [4] * 5, "delta": [-4] * 5, "coeff": "1"}]


def test_non_integral_character_exits_4(capsys, monkeypatch):
    # theta scaled by 1/3 gives the engine the g0 block chi + rho with
    # multiplicity 1/3
    original = superchar.charring.theta
    monkeypatch.setattr(superchar.charring, "theta", lambda forest: ThetaPoly(
        forest.r, {e: c / 3 for e, c in original(forest).terms.items()}))
    code, out, err = run(capsys, "char", "--m", "2", "--n", "2",
                         "--lambda", "1,1", "--mu", "-1,-1")
    assert (code, out) == (4, "")
    assert err.startswith("error: invariant violated: g0 block (")
    assert err.count("\n") == 1


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--only", "kac")
    assert code == 0
    assert "kac" in out and "PASS" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--only", "nope")
    assert code == 2


def test_verify_cutoff_override(capsys):
    # the oracle always uses its proved cutoff; an override is not an option
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--only", "oracle", "--cutoff", "0"])
    assert info.value.code == 2
    assert "unrecognized arguments: --cutoff 0" in capsys.readouterr().err


def test_readme_flags_are_the_parser_options():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    [paragraph] = [p for p in readme.split("\n\n") if p.startswith("Flags:")]
    documented = {flag for span in re.findall(r"`([^`]*)`", paragraph)
                  for flag in re.findall(r"--[a-z]+", span)}
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {opt for sub in commands.choices.values() for action in sub._actions
               for opt in action.option_strings} - {"-h", "--help"}
    assert documented == options


def test_diagram_typical_renders_core_only(capsys):
    code, out, _ = run(capsys, "diagram", "--m", "1", "--n", "1",
                       "--lambda", "0", "--mu", "1")
    assert code == 0
    assert ">" in out and "<" in out and "x" not in out.splitlines()[1]
    assert "(none)" in out  # no forest edges


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--only", "theta-mult",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"]["theta-mult"]["checked"] == 25


def test_injected_sign_bug_fails_oracle_suite(capsys, monkeypatch):
    original = superchar.oracle.epsilon_sign

    def flipped(f, wm):
        sign = original(f, wm)
        return -sign if any(a != b for a, b in wm.phi.items()) else sign

    monkeypatch.setattr(superchar.oracle, "epsilon_sign", flipped)
    code, out, _ = run(capsys, "verify", "--only", "oracle")
    assert code == 4
    assert "FAIL" in out


def test_spurious_far_block_fails_oracle_suite(capsys, monkeypatch):
    # one folded g0 block far from every grid character: a window around
    # the engine's character would filter it out, a block comparison cannot
    original = superchar.oracle._tail_blocks

    def spurious(m, n, *args):
        far = tuple(range(49 + m, 49, -1)) + tuple(range(-50, -50 - n, -1))
        return {**original(m, n, *args), far: 1}

    monkeypatch.setattr(superchar.oracle, "_tail_blocks", spurious)
    code, out, _ = run(capsys, "verify", "--only", "oracle")
    assert code == 4
    assert "oracle           FAIL  {'checked': 0, 'failure': 'lambda=(2,) mu=(2,): oracle " \
           "gives 1 at g0 block (50, -50), classic 0'" in out
    assert out.endswith("verification: FAIL\n")


def test_variants_failure_names_the_first_differing_block(capsys, monkeypatch):
    original = cli.g0_blocks

    def flipped(chi, variant="classic"):
        blocks = original(chi, variant)
        return {v: -c for v, c in blocks.items()} if variant == "reduced" else blocks

    monkeypatch.setattr(cli, "g0_blocks", flipped)
    code, out, _ = run(capsys, "verify", "--only", "variants", "--format", "json")
    assert code == 4
    assert json.loads(out)["suites"]["variants"]["failure"] \
        == "lambda=(2,) mu=(2,): reduced gives -1 at g0 block (2, 2), classic 1"


def test_full_verify_computes_each_character_once(capsys, monkeypatch):
    # oracle, variants and supersymmetry check the same classic g0 blocks
    # and kac and supersymmetry the same Kac characters of the 325 grid
    # weights: one run makes 650 engine runs (classic and reduced), not
    # 1,300, and 325 Kac characters, not 650.  The engine's g0 blocks are
    # counted, under both names verify could reach them by, not the tail,
    # which the Kac characters and oracles run through too
    counts = {"engine": 0, "kac": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__name__ = fn.__name__
        return wrapper

    engine = counted("engine", superchar.charring.g0_blocks)
    monkeypatch.setattr(superchar.charring, "g0_blocks", engine)
    monkeypatch.setattr(cli, "g0_blocks", engine)
    monkeypatch.setattr(cli, "kac_char", counted("kac", cli.kac_char))
    code, _, _ = run(capsys, "verify")
    assert code == 0
    assert counts == {"engine": 650, "kac": 325}
    # nothing is shared between runs
    counts.update(engine=0, kac=0)
    code, _, _ = run(capsys, "verify", "--only", "oracle")
    assert code == 0 and counts == {"engine": 325, "kac": 0}


# ---------------------------------------------------------------------------
# JSON outputs are written directly; their bytes are json.dumps(payload,
# indent=2, sort_keys=True) of the reference payloads in helpers

def _weight_args(chi):
    return ("--m", str(chi.m), "--n", str(chi.n), "--lambda=" + ",".join(map(str, chi.lam)),
            "--mu=" + ",".join(map(str, chi.mu)))


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@given(gl_weights)
def test_char_and_kac_json_are_the_reference_bytes(chi):
    for variant in ("classic", "reduced"):
        try:
            want = json_reference(char_payload(chi, variant))
        except ValueError:
            continue  # the reduced variant does not cover this weight
        assert _stdout(("char", *_weight_args(chi), "--variant", variant,
                        "--format", "json")) == (0, want), variant
    assert _stdout(("kac", *_weight_args(chi), "--format", "json")) \
        == (0, json_reference(kac_payload(chi)))


@given(_proj_diagrams())
def test_theta_and_diagram_json_are_the_reference_bytes(f):
    for variant in ("classic", "reduced"):
        assert _stdout(("theta", "--ab", _ab_arg(f), "--variant", variant, "--format", "json")) \
            == (0, json_reference(theta_payload(f, variant))), variant
    assert _stdout(("diagram", "--ab", _ab_arg(f), "--format", "json")) \
        == (0, json_reference(diagram_payload(f)))


@pytest.mark.parametrize("ab,present", [
    # typical: theta has one term with "exponents": [], the diagram no caps,
    # edges or segments
    ("2:0", ['"exponents": []', '"caps": {}', '"edges": []', '"segments": []']),
    # reduced theta with a rational coefficient
    ("3,1,0:0,1,3", ['"coeff": "-1/6"']),
    # keys sorted as strings: "-1" before "-10", "10" before "2"
    ("10,2,-1:-10,2", ['"-1": ">",\n    "-10": "<",\n    "10": ">",\n    "2": "x"']),
])
def test_json_edge_cases_are_the_reference_bytes(capsys, ab, present):
    f = _diagram(ab)
    chi = superchar.weights.weight_from_diagram(f)
    outputs = []
    for variant in ("classic", "reduced"):
        code, out, _ = run(capsys, "char", "--ab", ab, "--variant", variant, "--format", "json")
        assert (code, out) == (0, json_reference(char_payload(chi, variant)))
        code, out, _ = run(capsys, "theta", "--ab", ab, "--variant", variant, "--format", "json")
        assert (code, out) == (0, json_reference(theta_payload(f, variant)))
        outputs.append(out)
    code, out, _ = run(capsys, "kac", "--ab", ab, "--format", "json")
    assert (code, out) == (0, json_reference(kac_payload(chi)))
    code, out, _ = run(capsys, "diagram", "--ab", ab, "--format", "json")
    assert (code, out) == (0, json_reference(diagram_payload(f)))
    outputs.append(out)
    for text in present:
        assert any(text in out for out in outputs), text


def _recording(results, name, suite):
    # the suite's result dict, which cmd_verify then times into: the
    # reference carries the very `seconds` the run printed
    def wrapper(*args):
        results[name] = suite(*args)
        return results[name]
    return wrapper


def test_verify_json_is_the_reference_bytes(capsys, monkeypatch):
    suites = dict(cli.SUITES)
    results = {}
    monkeypatch.setattr(cli, "SUITES", {name: _recording(results, name, suite)
                                        for name, suite in suites.items()})
    code, out, _ = run(capsys, "verify", "--only", "orthogonality", "--format", "json")
    assert (code, out) == (0, json_reference(verify_payload(results)))
    assert '"reports": [' in out and '"ok": true' in out

    # one suite fails, with free text that json.dumps must escape
    def failing():
        return {"ok": False, "checked": 3, "failure": 'crosses "(0, 1)" \\ \u00e9'}

    results.clear()
    monkeypatch.setattr(cli, "SUITES", {
        "orthogonality": _recording(results, "orthogonality", suites["orthogonality"]),
        "theta-mult": _recording(results, "theta-mult", failing)})
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert (code, out) == (4, json_reference(verify_payload(results)))
    assert '"failure": "crosses \\"(0, 1)\\" \\\\ \\u00e9"' in out


def test_json_commands_render_without_json_dumps(capsys, monkeypatch):
    # char, kac, theta, diagram and a passing verify write their JSON
    # without the standard library's encoder
    def unavailable(*args, **kwargs):
        raise AssertionError("a JSON output went through json.dumps")

    monkeypatch.setattr(superchar.cli.json, "dumps", unavailable)
    gl33 = ("--m", "3", "--n", "3", "--lambda", "3,2,2", "--mu", "-2,-2,-3")
    for argv in [("char", *gl33), ("char", *gl33, "--variant", "reduced"), ("kac", *gl33),
                 ("theta", *gl33), ("theta", *gl33, "--variant", "reduced"),
                 ("diagram", *gl33), ("verify", "--only", "theta-mult")]:
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        assert json.loads(out), argv
