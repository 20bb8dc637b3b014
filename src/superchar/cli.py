"""Command-line front end: compute characters, render diagrams, emit the
theta polynomials, run the verification suites, export JSON or LaTeX.

Exit codes: 0 success, 2 invalid input, 4 verification failure or a
violated internal invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Iterable
from itertools import combinations_with_replacement

from .capgraph import gamma, theta, theta_tilde
from .caps import cap_diagram, family_pairs, render_caps, segment_data
from .charring import (
    CharPoly,
    _expand_blocks,
    alt_J,
    auto_depth,
    chi_plus_rho_exponent,
    dhat_denominator,
    dimension_eval,
    g0_blocks,
    irreducible_char,
    kac_char,
    supersymmetry_check,
    variant_theta,
)
from .oracle import oracle_blocks, orthogonality_report
from .weights import (
    CROSS,
    GREATER,
    LESS,
    ABPair,
    HighestWeight,
    InvariantError,
    WeightDiagram,
    ab_from_diagram,
    build_diagram,
    diagram_of_weight,
    weight_from_diagram,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_VERIFY_FAILED = 4


class InputError(Exception):
    pass


def _parse_int_list(text: str, expected: int, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise InputError(f"{what} must be a comma-separated integer list: {exc}")
    if len(values) != expected:
        raise InputError(f"{what} must have exactly {expected} entries, got {len(values)}")
    return values


def _weight_from_args(args) -> HighestWeight:
    if args.ab:
        try:
            a_text, b_text = args.ab.split(":")
            a = tuple(int(t) for t in a_text.split(","))
            b = tuple(int(t) for t in b_text.split(","))
        except ValueError as exc:
            raise InputError(f"--ab must look like 'a1,a2:b1,b2': {exc}")
        try:
            diagram = build_diagram(ABPair(tuple(sorted(a, reverse=True)),
                                           tuple(sorted(b))))
        except ValueError as exc:
            raise InputError(str(exc))
        return weight_from_diagram(diagram)
    if args.m is None or args.n is None:
        raise InputError("provide --m and --n (with --lambda/--mu) or --ab")
    if args.m < 1 or args.n < 1:
        raise InputError("--m and --n must be positive")
    lam = _parse_int_list(args.lam, args.m, "--lambda")
    mu = _parse_int_list(args.mu, args.n, "--mu")
    try:
        return HighestWeight(args.m, args.n, lam, mu)
    except ValueError as exc:
        raise InputError(str(exc))


# ---------------------------------------------------------------------------
# JSON output: the bytes json.dumps(payload, indent=2, sort_keys=True) gives,
# written directly (with indent set the standard library runs its
# pure-Python encoder).  Values arrive rendered: str(int) for integers,
# '"' + s + '"' for the fixed-alphabet strings (coefficients, the variant,
# the diagram symbols), "true"/"false", repr(float) and json.dumps(s) for
# free text (_jscalar).

def _jlist(items: Iterable[str], depth: int) -> str:
    """A list at nesting depth `depth`, its items rendered; [] when empty."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return f"[{pad}{body}{pad[:-2]}]" if body else "[]"


def _jobj(fields: dict[str, str], depth: int) -> str:
    """An object at nesting depth `depth`, its values rendered, its keys
    sorted as strings; {} when empty."""
    if not fields:
        return "{}"
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join([f'"{k}": {v}' for k, v in sorted(fields.items())])
    return f"{{{pad}{body}{pad[:-2]}}}"


def _jscalar(v) -> str:
    """A bool, an int, a float or free text."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return json.dumps(v) if isinstance(v, str) else repr(v)


def _lex_desc(p: CharPoly) -> list[tuple[tuple[int, ...], int]]:
    """The terms of a character in CharPoly.sorted_terms order.  Every root
    of gl(m|n) (eps_i - eps_j, delta_k - delta_l, eps_i - delta_j) has
    total degree 0, so every monomial of ch L(chi) and ch K(chi) has total
    degree |chi|: graded, then lexicographic, is lexicographic."""
    return sorted(p.terms.items(), reverse=True)


def _monomials_json(p: CharPoly) -> str:
    """The "monomials" list of char and kac JSON (depth 1), one template per
    row; m and n are positive, so no row has an empty list."""
    m = p.m
    sep = ",\n        "
    return _jlist([f'{{\n      "coeff": "{c}",\n      "delta": [\n        '
                   f'{sep.join(map(str, v[m:]))}\n      ],\n      "eps": [\n        '
                   f'{sep.join(map(str, v[:m]))}\n      ]\n    }}'
                   for v, c in _lex_desc(p)], 1)


def _theta_fields(th, depth: int) -> dict[str, str]:
    """"terms" and "variables" of a theta object at nesting depth `depth`,
    one template per term; exponents are [] when theta has no variable."""
    p2, p3, p4 = ("  " * (depth + k) for k in (2, 3, 4))
    sep = ",\n" + p4
    opener, closer = (f"[\n{p4}", f"\n{p3}]") if th.r else ("[", "]")
    rows = [f'{{\n{p3}"coeff": "{c!s}",\n{p3}"exponents": '
            f'{opener}{sep.join(map(str, e))}{closer}\n{p2}}}'
            for e, c in th.sorted_terms()]
    return {"terms": _jlist(rows, depth + 1), "variables": str(th.r)}


def _char_text(p: CharPoly) -> str:
    if p.is_zero():
        return "0"
    # "x{i}^{e}" / "y{j}^{e}" built once per (slot, exponent)
    pieces = [{} for _ in range(p.m + p.n)]
    heads = [f"x{i + 1}^" for i in range(p.m)] + [f"y{j + 1}^" for j in range(p.n)]
    chunks = []
    for v, c in _lex_desc(p):
        mono = []
        for t, e in enumerate(v):
            if e:
                piece = pieces[t].get(e)
                if piece is None:
                    piece = pieces[t][e] = f"{heads[t]}{e}"
                mono.append(piece)
        # a coefficient of +-1 is written as a sign, except on the constant
        if not mono:
            chunks.append(str(c))
        else:
            prefix = "" if c == 1 else "-" if c == -1 else f"{c} "
            chunks.append(prefix + " ".join(mono))
    return " + ".join(chunks).replace("+ -", "- ")


def _frac_latex(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def _theta_numerator_latex(th) -> str:
    """theta(-e^{alpha}) expanded in the e^{-alpha_i} basis."""
    parts = []
    for exps, coeff in th.sorted_terms():
        c = -coeff if sum(exps) % 2 else coeff
        factors = []
        for i, e in enumerate(exps):
            if e:
                k = "-" if e == -1 else ("" if e == 1 else str(e))
                factors.append(f"e^{{{k}\\alpha_{{{i + 1}}}}}")
        body = "".join(factors)
        if body and abs(c) == 1:
            term = ("-" if c < 0 else "") + body
        else:
            term = _frac_latex(c) + body
        parts.append("+" + term if parts and not term.startswith("-") else term)
    return "".join(parts) if parts else "0"


def _char_latex(chi: HighestWeight, variant: str) -> str:
    th, nu, shift = variant_theta(diagram_of_weight(chi), variant)
    numer = _theta_numerator_latex(th)
    denom = "".join(f"(1+e^{{-\\alpha_{{{i + 1}}}}})" for i in range(len(shift))) or "1"
    if variant == "classic":
        return (f"D\\,\\mathrm{{ch}}\\,L(\\chi)=\\sum_{{w\\in W_0}}\\varepsilon(w)w"
                f"\\left(e^{{\\chi+\\rho}}\\,\\frac{{{numer}}}{{{denom}}}\\right)")
    gamma_parts = [f"{'' if k == 1 else k}\\alpha_{{{i + 1}}}"
                   for i, k in enumerate(shift) if k]
    gamma_tex = "+" + "+".join(gamma_parts) if gamma_parts else ""
    sign = "-" if nu % 2 else ""
    return (f"D\\,\\mathrm{{ch}}\\,L(\\chi)={sign}J\\left(e^{{\\chi+\\rho{gamma_tex}}}\\,"
            f"\\frac{{{numer}}}{{{denom}}}\\right)")


def cmd_char(args) -> int:
    chi = _weight_from_args(args)
    try:
        if args.format == "latex":  # the closed form needs only theta
            print(_char_latex(chi, args.variant))
            return EXIT_OK
        ch = irreducible_char(chi, variant=args.variant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.format == "json":
        th = theta(gamma(cap_diagram(diagram_of_weight(chi))))
        print(_jobj({
            "m": str(chi.m), "n": str(chi.n),
            "lambda": _jlist(map(str, chi.lam), 1), "mu": _jlist(map(str, chi.mu), 1),
            "variant": f'"{args.variant}"',
            "depth": str(auto_depth(chi)),
            "dimension": str(dimension_eval(ch)),
            "monomials": _monomials_json(ch),
            "theta": _jobj(_theta_fields(th, 1), 1),
        }, 0))
    else:
        print(f"ch L(chi) for gl({chi.m}|{chi.n}), lambda={list(chi.lam)}, "
              f"mu={list(chi.mu)} [{args.variant}]")
        print(_char_text(ch))
        print(f"dimension: {dimension_eval(ch)}")
    return EXIT_OK


def cmd_kac(args) -> int:
    chi = _weight_from_args(args)
    f = diagram_of_weight(chi)
    k = kac_char(f)
    if args.format == "json":
        print(_jobj({
            "m": str(chi.m), "n": str(chi.n),
            "lambda": _jlist(map(str, chi.lam), 1), "mu": _jlist(map(str, chi.mu), 1),
            "dimension": str(dimension_eval(k)),
            "monomials": _monomials_json(k),
        }, 0))
    else:
        print(_char_text(k))
        print(f"dimension: {dimension_eval(k)}")
    return EXIT_OK


def _diagram_json(f: WeightDiagram) -> str:
    cf = cap_diagram(f)
    forest = gamma(cf)
    return _jobj({
        "symbols": _jobj({str(p): f'"{s}"' for p, s in f.symbols.items()}, 1),
        "crosses": _jlist(map(str, f.crosses), 1),
        "caps": _jobj({str(c): str(cf.cap_end[c]) for c in cf.crosses}, 1),
        "edges": _jlist([_jlist(map(str, e), 2) for e in sorted(forest.edges)], 1),
        "segments": _jlist([_jlist(map(str, s), 2) for s in segment_data(f).segments], 1),
        "atypicality": str(len(f.crosses)),
        "components": str(forest.component_count()),
    }, 0)


def cmd_diagram(args) -> int:
    chi = _weight_from_args(args)
    f = diagram_of_weight(chi)
    if args.format == "json":
        print(_diagram_json(f))
    else:
        ab = ab_from_diagram(f)
        print(f"A = {list(ab.A)}  B = {list(ab.B)}")
        print(render_caps(f))
        forest = gamma(cap_diagram(f))
        edges = ", ".join(f"{i}->{j}" for i, j in sorted(forest.edges)) or "(none)"
        print(f"forest edges (vertex indices): {edges}")
    return EXIT_OK


def cmd_theta(args) -> int:
    chi = _weight_from_args(args)
    f = diagram_of_weight(chi)
    forest = gamma(cap_diagram(f))
    if args.variant == "reduced":
        th, nu, shift = theta_tilde(forest, segment_data(f))
    else:
        th, nu, shift = theta(forest), None, None
    if args.format == "json":
        fields = _theta_fields(th, 0)
        if nu is not None:
            fields["nu"] = str(nu)
            fields["gamma"] = _jlist(map(str, shift), 1)
        print(_jobj(fields, 0))
    elif args.format == "latex":
        print(_theta_numerator_latex(th))
        if nu is not None:
            print(f"% nu = {nu}, gamma coefficients = {list(shift)}")
    else:
        print(str(th))
        if nu is not None:
            print(f"nu = {nu}, gamma coefficients = {list(shift)}")
    return EXIT_OK


def cmd_proj(args) -> int:
    chi = _weight_from_args(args)
    cores, pairs = family_pairs(diagram_of_weight(chi))
    symbol = {**cores, **{p: CROSS for pair in pairs for p in pair}}
    # a member is the mask of the positions it holds, the smallest position
    # in the top bit; a position carries the same symbol in every member, so
    # descending masks are the members by ascending (position, symbol) items
    ascending = sorted(symbol)
    bit = {p: 1 << (len(ascending) - 1 - k) for k, p in enumerate(ascending)}
    members = [sum(bit[p] for p in cores)]
    for c, e in pairs:
        members = [m | bit[c] for m in members] + [m | bit[e] for m in members]
    members.sort(reverse=True)
    if args.format == "json":
        # the lines json.dumps(indent=2, sort_keys=True) gives, keys as strings
        lines = [(f'    "{p}": "{symbol[p]}"', bit[p]) for p in sorted(symbol, key=str)]
        blocks = (",\n".join([line for line, b in lines if m & b]) for m in members)
        print("[\n  {\n" + "\n  },\n  {\n".join(blocks) + "\n  }\n]")
    else:
        a_side = [(str(p), bit[p]) for p in reversed(ascending) if symbol[p] != LESS]
        b_side = [(str(p), bit[p]) for p in ascending if symbol[p] != GREATER]
        print(f"{len(members)} diagrams in the projective family:")
        print("\n".join("  A = [" + ", ".join([p for p, b in a_side if m & b])
                        + "]  B = [" + ", ".join([p for p, b in b_side if m & b]) + "]"
                        for m in members))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites

def _grid(m: int, n: int, lo: int, hi: int):
    for lam in combinations_with_replacement(range(hi, lo - 1, -1), m):
        for mu in combinations_with_replacement(range(hi, lo - 1, -1), n):
            yield HighestWeight(m, n, lam, mu)


def _once(memo: dict, fn, arg):
    """fn(arg), computed once per verify run: memo is shared by the suites of
    one cmd_verify call and dropped when it returns."""
    key = (fn.__name__, arg)
    if key not in memo:
        memo[key] = fn(arg)
    return memo[key]


GRID_SHAPES = [(1, 1), (2, 1), (2, 2)]


def _grid_suite(check) -> dict:
    """check(chi) on every weight of the gl(1|1), gl(2|1) and gl(2|2) grids
    with entries in [-2, 2], stopping at the first weight it fails: check
    gives True on a pass, else False or the text naming what differs."""
    checked = 0
    for (m, n) in GRID_SHAPES:
        for chi in _grid(m, n, -2, 2):
            verdict = check(chi)
            if verdict is not True:
                return {"ok": False, "checked": checked,
                        "failure": f"lambda={chi.lam} mu={chi.mu}{verdict or ''}"}
            checked += 1
    return {"ok": True, "checked": checked}


def _suite_kac(memo: dict) -> dict:
    denominators = {(m, n): dhat_denominator(m, n) for m, n in GRID_SHAPES}

    def check(chi):
        num, den = denominators[chi.m, chi.n]
        lhs = num * _once(memo, kac_char, diagram_of_weight(chi))
        return lhs == alt_J(CharPoly.monomial(chi.m, chi.n, chi_plus_rho_exponent(chi))) * den

    return _grid_suite(check)


def _same_blocks(route: str, got: dict, classic: dict) -> bool | str:
    """True when a route gives the engine's classic g0 blocks, else the
    first differing block in descending order with both multiplicities.
    Block dicts are canonical (folded keys, no zero values), and the
    characters of distinct L0(omega - rho) are linearly independent: equal
    blocks are equal whole characters, with no window to hide a term."""
    if got == classic:
        return True
    v = max(v for v in got.keys() | classic.keys() if got.get(v, 0) != classic.get(v, 0))
    return f": {route} gives {got.get(v, 0)} at g0 block {v}, classic {classic.get(v, 0)}"


def _suite_oracle(memo: dict) -> dict:
    return _grid_suite(lambda chi: _same_blocks(
        "oracle", oracle_blocks(diagram_of_weight(chi)), _once(memo, g0_blocks, chi)))


def _suite_variants(memo: dict) -> dict:
    return _grid_suite(lambda chi: _same_blocks(
        "reduced", g0_blocks(chi, "reduced"), _once(memo, g0_blocks, chi)))


def _ab_text(f: WeightDiagram) -> str:
    ab = ab_from_diagram(f)
    return f"A={list(ab.A)} B={list(ab.B)}"


def _suite_orthogonality() -> dict:
    reports = []
    for (window, m, n, r_max) in [((0, 5), 1, 1, 1), ((0, 6), 2, 2, 2)]:
        rep = orthogonality_report(window, m, n, r_max)
        reports.append({"window": list(window), "m": m, "n": n,
                        "interior_rows": rep.interior_rows, "ok": rep.ok})
        if not rep.ok:
            f, g, pairing = rep.first_failure
            return {"ok": False, "reports": reports,
                    "failure": f"row {_ab_text(f)} column {_ab_text(g)} "
                               f"pairs to {pairing}, not {int(f == g)}"}
    return {"ok": True, "reports": reports}


def _suite_supersymmetry(memo: dict) -> dict:
    return _grid_suite(lambda chi: all(supersymmetry_check(p) for p in (
        _once(memo, kac_char, diagram_of_weight(chi)),
        _expand_blocks(chi.m, chi.n, _once(memo, g0_blocks, chi)))))


def _suite_theta_mult() -> dict:
    import random

    from .capgraph import embed_disjoint

    rng = random.Random(20240817)
    checked = 0
    for _ in range(25):
        crosses1 = _random_crosses(rng)
        crosses2 = _random_crosses(rng)
        f1 = WeightDiagram({c: CROSS for c in crosses1})
        f2 = WeightDiagram({c: CROSS for c in crosses2})
        g1 = gamma(cap_diagram(f1))
        g2 = gamma(cap_diagram(f2))
        th1, th2 = theta(g1), theta(g2)
        combined = theta(embed_disjoint(g1, g2))
        product = {}
        for e1, c1 in th1.terms.items():
            for e2, c2 in th2.terms.items():
                key = e1 + e2
                product[key] = product.get(key, 0) + c1 * c2
        if {k: v for k, v in product.items() if v} != combined.terms:
            return {"ok": False, "checked": checked,
                    "failure": f"{crosses1} vs {crosses2}"}
        checked += 1
    return {"ok": True, "checked": checked}


def _random_crosses(rng) -> tuple[int, ...]:
    size = rng.randint(1, 3)
    out = set()
    while len(out) < size:
        out.add(rng.randint(0, 6))
    return tuple(sorted(out))


SUITES = {
    "kac": _suite_kac,
    "oracle": _suite_oracle,
    "variants": _suite_variants,
    "orthogonality": _suite_orthogonality,
    "supersymmetry": _suite_supersymmetry,
    "theta-mult": _suite_theta_mult,
}


def _verify_json(all_ok: bool, report: dict) -> str:
    def suite(res: dict) -> str:
        fields = {k: _jscalar(v) for k, v in res.items() if k != "reports"}
        if "reports" in res:
            fields["reports"] = _jlist([_jobj({k: _jlist(map(str, v), 5) if k == "window"
                                               else _jscalar(v) for k, v in rep.items()}, 4)
                                        for rep in res["reports"]], 3)
        return _jobj(fields, 2)

    return _jobj({"ok": _jscalar(all_ok),
                  "suites": _jobj({name: suite(res) for name, res in report.items()}, 1)}, 0)


def cmd_verify(args) -> int:
    names = [args.only] if args.only else list(SUITES)
    for name in names:
        if name not in SUITES:
            print(f"error: unknown suite {name!r}; choose from {sorted(SUITES)}",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
    report = {}
    all_ok = True
    # the Kac characters and classic g0 blocks several suites check, kept
    # only while this run lasts
    memo: dict = {}
    suite_args = {name: (memo,) for name in ("kac", "oracle", "variants", "supersymmetry")}
    for name in names:
        start = time.monotonic()
        result = SUITES[name](*suite_args.get(name, ()))
        result["seconds"] = round(time.monotonic() - start, 3)
        report[name] = result
        all_ok = all_ok and result["ok"]
    if args.format == "json":
        print(_verify_json(all_ok, report))
    else:
        for name in names:
            res = report[name]
            status = "PASS" if res["ok"] else "FAIL"
            extra = {k: v for k, v in res.items() if k != "ok"}
            print(f"{name:16s} {status}  {extra}")
        print("verification:", "PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superchar",
        description="Exact characters of irreducible gl(m|n) modules")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight_flags(p):
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--lambda", dest="lam", default="")
        p.add_argument("--mu", dest="mu", default="")
        p.add_argument("--ab", default="",
                       help="shifted label sets, e.g. '3,1,0:0,1,3'")
        p.add_argument("--format", choices=["text", "json", "latex"],
                       default="text")

    p_char = sub.add_parser("char", help="irreducible character")
    add_weight_flags(p_char)
    p_char.add_argument("--variant", choices=["classic", "reduced"],
                        default="classic")
    p_char.set_defaults(func=cmd_char)

    p_kac = sub.add_parser("kac", help="Kac module character")
    add_weight_flags(p_kac)
    p_kac.set_defaults(func=cmd_kac)

    p_diag = sub.add_parser("diagram", help="weight diagram, caps, forest")
    add_weight_flags(p_diag)
    p_diag.set_defaults(func=cmd_diagram)

    p_theta = sub.add_parser("theta", help="theta polynomial of the forest")
    add_weight_flags(p_theta)
    p_theta.add_argument("--variant", choices=["classic", "reduced"],
                         default="classic")
    p_theta.set_defaults(func=cmd_theta)

    p_proj = sub.add_parser("proj", help="projective family of the diagram")
    add_weight_flags(p_proj)
    p_proj.set_defaults(func=cmd_proj)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--only", default=None,
                          help=f"run one suite: {sorted(SUITES)}")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    return parser


_VALUE_FLAGS = ("--lambda", "--mu", "--ab")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Glue '--mu -2,-2,-3' into '--mu=-2,-2,-3' so argparse does not read the
    leading minus as an option."""
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and k + 1 < len(argv) and argv[k + 1].startswith("-"):
            out.append(f"{tok}={argv[k + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


# built by the first main call of a process and reused by every later one
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_join_negative_values(
        list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvariantError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
