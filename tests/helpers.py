"""Brute-force oracles and corpus generators shared across the test suite.

Everything here is deliberately independent of the library's own algorithms:
cap ends come from a stack matcher, extension counts from filtering raw
permutations, Schur weights from semistandard tableaux or a ratio of
alternants, lattice points from plain nested loops, the alternation tail from
full-orbit expansion and exact division instead of folding and Schur-block
assembly, or from one binomial of the odd factor at a time instead of Pieri
steps, the g0 blocks of a paired tail from one binomial at a time and one
fold, the formula engine with the paper's geometric series expanded in full
instead of cancelled by the odd factor, Kac characters from whole even-block characters
times the fully expanded odd factor, theta from one built subgraph per edge
subset instead of an edge-mask walk, the orthogonality product by pairing
every row with every column, the proj output from one swapped diagram per
subset of crosses, Kac coordinates from each relocation's image weight or
from lattice points laid out crosses first and folded, the CLI's JSON
outputs from payload dicts through json.dumps instead of written text.
core_strip, scale, restrict and _swap have no caller in the library and live
here for the tests that use them.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import factorial

from hypothesis import strategies as st

from superchar import oracle
from superchar.capgraph import (
    ThetaPoly,
    _component_min_vertex,
    _downset_count,
    gamma,
    gamma0,
    linear_extensions,
    reduced_subgraphs,
    subgraphs,
    theta,
    theta_tilde,
)
from superchar.caps import CapForest, cap_diagram, projective_family, segment_data
from superchar.charring import (
    CharPoly,
    Window,
    _acc,
    _fold,
    _numerator,
    _schur_block,
    _sort_desc_signed,
    alt_J,
    auto_depth,
    chi_plus_rho_exponent,
    dimension_eval,
    divide_exact,
    even_positive_roots,
    irreducible_char,
    kac_char,
    odd_positive_roots,
    q_odd_product,
)
from superchar.weights import (
    CROSS,
    GREATER,
    LESS,
    HighestWeight,
    WeightDiagram,
    ab_from_diagram,
    diagram_of_weight,
    rho,
    weight_from_diagram,
)


def scale(p: CharPoly, factor) -> CharPoly:
    """p with every coefficient multiplied by factor."""
    return CharPoly(p.m, p.n, {v: c * factor for v, c in p.terms.items()})


def restrict(p: CharPoly, window: Window) -> CharPoly:
    """The terms of p with every exponent inside its slot's window interval."""
    box = window.eps + window.delta
    return CharPoly(p.m, p.n, {v: c for v, c in p.terms.items()
                               if all(lo <= x <= hi for x, (lo, hi) in zip(v, box))})


def shift(p: CharPoly, vec) -> CharPoly:
    """p times the monomial e^vec."""
    return CharPoly(p.m, p.n, {tuple(a + b for a, b in zip(v, vec)): c
                               for v, c in p.terms.items()})


def delta_sum_slice(p: CharPoly, lo: int, hi: int) -> CharPoly:
    """The terms of p whose odd-exponent sum lies in [lo, hi]."""
    return CharPoly(p.m, p.n, {v: c for v, c in p.terms.items()
                               if lo <= sum(v[p.m:]) <= hi})


def weyl0_character(chi: HighestWeight) -> CharPoly:
    """Character of the even-part irreducible: a product of two Laurent Schur
    polynomials, one per block."""
    return CharPoly(chi.m, chi.n, {ve + vd: ce * cd for ve, ce in _schur_block(chi.lam)
                                   for vd, cd in _schur_block(chi.mu)})


def dominant_weights(m, n, lo, hi):
    out = []
    for lam in itertools.product(range(hi, lo - 1, -1), repeat=m):
        if any(lam[i] < lam[i + 1] for i in range(m - 1)):
            continue
        for mu in itertools.product(range(hi, lo - 1, -1), repeat=n):
            if any(mu[j] < mu[j + 1] for j in range(n - 1)):
                continue
            out.append(HighestWeight(m, n, lam, mu))
    return out


# a gl(m|n) highest weight, m, n <= 3, entries in [-2, 2]
gl_weights = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda mn: st.builds(HighestWeight, st.just(mn[0]), st.just(mn[1]),
                         *(st.lists(st.integers(-2, 2), min_size=k, max_size=k)
                           .map(lambda xs: tuple(sorted(xs, reverse=True))) for k in mn)))


def random_diagram(rng, lo=0, hi=8, r_max=4, with_core=True) -> WeightDiagram:
    positions = list(range(lo, hi + 1))
    rng.shuffle(positions)
    r = rng.randint(0, r_max)
    symbols = {p: CROSS for p in positions[:r]}
    rest = positions[r:]
    if with_core and rest:
        k = rng.randint(0, min(2, len(rest)))
        for p in rest[:k]:
            symbols[p] = rng.choice([LESS, GREATER])
    return WeightDiagram(symbols)


def stack_cap_ends(f: WeightDiagram) -> dict[int, int]:
    """Match crosses to circles like balanced parentheses: scan left to right,
    every circle closes the most recent open cross."""
    crosses = f.crosses
    if not crosses:
        return {}
    open_stack: list[int] = []
    ends: dict[int, int] = {}
    pos = min(crosses)
    while len(ends) < len(crosses):
        sym = f.symbol(pos)
        if sym == CROSS:
            open_stack.append(pos)
        elif sym is None and open_stack:
            ends[open_stack.pop()] = pos
        pos += 1
    return ends


def brute_extension_count(r: int, edges) -> int:
    """Count permutations respecting every edge by filtering all r! of them."""
    total = 0
    for perm in itertools.permutations(range(r)):
        if all(perm[i] < perm[j] for i, j in edges):
            total += 1
    return total


def all_rooted_forests(max_vertices: int):
    """Canonical unlabeled rooted forests with up to max_vertices nodes, as
    (vertex_count, edge tuple) pairs with edges pointing away from roots and
    parents numbered before children."""

    @lru_cache(maxsize=None)
    def trees(n):
        # a tree of size n is a root plus a forest of size n - 1
        if n == 1:
            return [()]
        return [f for f in forests(n - 1)]

    @lru_cache(maxsize=None)
    def forests(n):
        # multisets of trees totaling n, canonical (sorted) tuples
        if n == 0:
            return [()]
        out = set()
        for first_size in range(1, n + 1):
            for t in trees(first_size):
                for rest in forests(n - first_size):
                    out.add(tuple(sorted(((first_size, t),) + rest)))
        return sorted(out)

    def materialize(forest) -> tuple[int, tuple[tuple[int, int], ...]]:
        edges = []
        counter = 0

        def walk_tree(children, parent):
            nonlocal counter
            my_id = counter
            counter += 1
            if parent is not None:
                edges.append((parent, my_id))
            for size, sub in children:
                walk_tree(sub, my_id)

        for size, tree in forest:
            walk_tree(tree, None)
        return counter, tuple(edges)

    out = []
    for n in range(1, max_vertices + 1):
        for forest in forests(n):
            out.append(materialize(forest))
    return out


def theta_by_subgraphs(forest) -> ThetaPoly:
    """capgraph.theta the long way round: build every spanning subgraph, find
    its component minima by a component search and count its linear
    extensions, each over r! and signed by edge parity."""
    r = len(forest.labels)
    rfact = factorial(r)
    terms: dict[tuple[int, ...], Fraction] = {}
    for delta in subgraphs(forest):
        mins = _component_min_vertex(delta)
        exps = tuple(delta.labels[mins[i]] - delta.labels[i] for i in range(r))
        coeff = Fraction((-1) ** len(delta.edges) * linear_extensions(delta), rfact)
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return ThetaPoly(r, terms)


def theta_tilde_by_subgraphs(forest, sd) -> ThetaPoly:
    """The polynomial of capgraph.theta_tilde the long way round: one Forest
    per subgraph keeping every non-special edge, its component minima by a
    component search, and the linear extensions of the subgraph with its
    edges outside the core reversed counted by one down-set count over all
    r vertices, each over r! and signed by the number reversed."""
    r = len(forest.labels)
    rfact = factorial(r)
    tc = sd.tilde_c
    core = gamma0(forest, sd).edges
    terms: dict[tuple[int, ...], Fraction] = {}
    for delta in reduced_subgraphs(forest, sd):
        flipped = delta.edges - core
        star = (delta.edges - flipped) | {(j, i) for i, j in flipped}
        mins = _component_min_vertex(delta)
        exps = tuple(tc[delta.labels[mins[i]]] - tc[delta.labels[i]] for i in range(r))
        coeff = Fraction((-1) ** len(flipped) * _downset_count(tuple(range(r)), star), rfact)
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return ThetaPoly(r, terms)


def ssyt_weight_multiplicities(lam: tuple[int, ...], k: int) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of the gl(k) irreducible from semistandard
    tableaux, filled cell by cell (rows weakly increasing, columns strictly
    increasing); Laurent highest weights are translated to a partition first."""
    if len(lam) != k:
        raise ValueError("lam must have k entries")
    base = lam[-1]
    cells = [(r, c) for r, width in enumerate(x - base for x in lam) for c in range(width)]
    grid: dict[tuple[int, int], int] = {}
    weight = [0] * k
    counts: dict[tuple[int, ...], int] = {}

    def fill(t):
        if t == len(cells):
            w = tuple(x + base for x in weight)
            counts[w] = counts.get(w, 0) + 1
            return
        r, c = cells[t]
        for entry in range(max(grid.get((r, c - 1), 1), grid.get((r - 1, c), 0) + 1), k + 1):
            grid[r, c] = entry
            weight[entry - 1] += 1
            fill(t + 1)
            weight[entry - 1] -= 1
        grid.pop((r, c), None)

    fill(0)
    return counts


def schur_block_by_division(lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of the gl(k) irreducible as a ratio of
    alternants: the alternant of lam + staircase, divided exactly by every
    positive root, then shifted back by the staircase."""
    k = len(lam)
    staircase = tuple(range(k - 1, -1, -1))
    shifted = tuple(x + s for x, s in zip(lam, staircase))
    # one-block alternant in a (k, 0)-variable ring
    numerator = alt_J(CharPoly.monomial(k, 0, shifted))
    for alpha in even_positive_roots(k, 0):
        numerator = divide_exact(numerator, alpha)
    return shift(numerator, tuple(-s for s in staircase)).terms


def weyl_dimension(lam: tuple[int, ...]) -> int:
    """Dimension of the gl(k) irreducible by the product formula."""
    k = len(lam)
    num = den = 1
    for i in range(k):
        for j in range(i + 1, k):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    assert rem == 0
    return dim


def brute_lattice_points(bounds, chains, cutoff):
    """Nested-loop enumeration of bounded order-region points (cross space)."""
    r = len(bounds)
    out = []
    for point in itertools.product(*[range(cutoff, b + 1) for b in bounds]):
        if all(point[i] <= point[j] for i, j in chains):
            out.append(point)
    return sorted(out)


def tail_by_division(m, n, num, slice_lo, slice_hi):
    """The alternation tail the long way round: expand J over the full W0
    orbit, multiply by the whole odd factor, keep the odd-degree slice, divide
    by every even positive root and unshift by rho."""
    t = delta_sum_slice(alt_J(CharPoly(m, n, num)) * q_odd_product(m, n),
                        slice_lo, slice_hi)
    for alpha in even_positive_roots(m, n):
        t = divide_exact(t, alpha)
    r = rho(m, n)
    return shift(t, tuple(-x for x in r.eps_part + r.delta_part))


def tail_by_binomials(m, n, num, slice_lo, slice_hi):
    """The alternation tail with the odd factor applied one binomial
    (1 + e^{-(eps_i - delta_j)}) at a time, odd slot outer and even slot
    inner.  With k binomials left a term of odd degree d ends in [d, d + k],
    so the untaken branch is kept only while d + k >= slice_lo and the step
    only while d < slice_hi.  The even block is folded after each odd column
    (the binomials left are symmetric in it), both blocks after the last;
    each folded term e^omega is then expanded as the whole even-part
    character of highest weight omega - rho."""
    r = rho(m, n)
    left = m * n
    terms = {v: c for v, c in _fold(m, num.items()).items()
             if slice_lo - left <= sum(v[m:]) <= slice_hi}
    for j in range(m, m + n):
        for i in range(m):
            left -= 1
            nxt = {}
            for v, c in terms.items():
                d = sum(v[m:])
                if d + left >= slice_lo:
                    _acc(nxt, v, c)
                if d < slice_hi:
                    w = list(v)
                    w[i] -= 1
                    w[j] += 1
                    _acc(nxt, tuple(w), c)
            terms = nxt
        even = {}
        for v, c in terms.items():
            sign, eps = _sort_desc_signed(v[:m])
            if sign:
                _acc(even, eps + v[m:], sign * c)
        terms = even
    out = {}
    for v, c in _fold(m, terms.items()).items():
        lam = tuple(a - b for a, b in zip(v[:m], r.eps_part))
        mu = tuple(a - b for a, b in zip(v[m:], r.delta_part))
        for w, cw in weyl0_character(HighestWeight(m, n, lam, mu)).terms.items():
            _acc(out, w, c * cw)
    return CharPoly(m, n, out)


def irreducible_char_unfolded(chi: HighestWeight, variant: str = "classic") -> CharPoly:
    """The formula engine without its folds: every atypical root's geometric
    series expanded in full on theta's numerator, in rational arithmetic,
    each series cut where it leaves the odd-degree slice, then the
    binomial-by-binomial tail (tail_by_binomials)."""
    m = chi.m
    num, alphas, slice_lo, slice_hi = _numerator(chi, variant)
    for alpha in alphas:
        nxt = {}
        for v, c in num.items():
            vec = list(v)
            for _ in range(slice_hi - sum(v[m:]) + 1):
                _acc(nxt, tuple(vec), c)
                c = -c
                vec = [x - a for x, a in zip(vec, alpha)]
        num = nxt
    return tail_by_binomials(m, chi.n, num, slice_lo, slice_hi)


def blocks_by_binomials(m, n, num, alphas):
    """The folded terms of J(num * Q'), Q' the odd factor without the
    atypical binomials (1 + e^{-alpha}) over alpha in alphas: num times each
    other binomial (1 + e^{-(eps_i - delta_j)}) in turn, then one fold."""
    terms = dict(num)
    for beta in odd_positive_roots(m, n):
        if beta in alphas:
            continue
        nxt = {}
        for v, c in terms.items():
            _acc(nxt, v, c)
            _acc(nxt, tuple(x - b for x, b in zip(v, beta)), c)
        terms = nxt
    return _fold(m, terms.items())


def maps_down_to(f: WeightDiagram, cutoff: int) -> list:
    """The relocations of f with every value >= cutoff, in enumeration order:
    the budget sum(c - cutoff) over the crosses holds them all, and the
    budgeted list is filtered by value."""
    budget = sum(c - cutoff for c in f.crosses)
    return [wm for wm in oracle.enumerate_weight_maps(f, budget)
            if all(x >= cutoff for x in wm.phi.values())]


def kac_coordinates_by_relocations(f: WeightDiagram) -> dict:
    """The Su-Zhang Kac coordinates of L(f): every relocation with values
    down to min(crosses) - m*n, each giving its image diagram's chi + rho
    (through the image's weight) the sign epsilon_sign.  A relocation raises
    the odd degree by its total displacement, so the ones below that cutoff
    end above the slice."""
    cutoff = (min(f.crosses) if f.crosses else 0) - f.m * f.n
    coords: dict = {}
    for wm in maps_down_to(f, cutoff):
        omega = chi_plus_rho_exponent(weight_from_diagram(wm.image_diagram(f)))
        _acc(coords, omega, oracle.epsilon_sign(f, wm))
    return coords


def kac_coordinates_by_lattice(f: WeightDiagram) -> dict:
    """The Kac coordinates of L(f) from the lattice points x of the nesting
    forest's order polyhedron down to min(crosses) - m*n, then a fold.  A
    point moves each cross to its value: the term has A = the values then
    the '>' positions and B = the values then the '<' positions, written A
    then -B, and the sign of its total displacement.  Every term carries the
    sign that makes the point at the crosses, chi + rho, count +1."""
    m = f.m
    forest = gamma(cap_diagram(f))
    cutoff = (min(f.crosses) if f.crosses else 0) - m * f.n

    def term(x):
        return (tuple(x) + f.greater_positions
                + tuple(-b for b in tuple(x) + f.less_positions))

    [top_sign] = _fold(m, [(term(forest.labels), 1)]).values()
    points = brute_lattice_points(forest.labels, forest.edges, cutoff)
    return _fold(m, ((term(x), top_sign * (-1) ** (sum(forest.labels) - sum(x)))
                     for x in points))


def core_strip(f: WeightDiagram) -> tuple[WeightDiagram, dict[int, int]]:
    """Delete all '<' and '>' symbols, closing up the gaps they leave.

    A surviving position a moves to a - n(a), where n(a) counts core symbols
    strictly to its left.  Returns the stripped diagram and the map
    cross position -> new position.
    """
    cores = f.core_positions
    reindex = {a: a - sum(1 for c in cores if c < a) for a in f.crosses}
    return WeightDiagram({p: CROSS for p in reindex.values()}), reindex


def orthogonality_dense(window, m, n, r_max):
    """oracle.orthogonality_report the long way round: pair every interior
    row f with every column g of the family, summing g's signed relocation
    counts over f's projective members.  Signs come from oracle.epsilon_sign
    looked up at call time, so a patched sign reaches both routes."""
    lo, hi = window
    family = oracle._diagram_family(window, m, n, r_max)

    def in_window(d):
        ps = d.positions()
        return not ps or (lo <= min(ps) and max(ps) <= hi)

    b_rows = {}
    for g in family:
        row = {}
        for wm in maps_down_to(g, lo):
            h = wm.image_diagram(g)
            row[h] = row.get(h, 0) + oracle.epsilon_sign(g, wm)
        b_rows[g] = row

    first_failure = None
    interior = 0
    excluded = []
    for f in family:
        members = projective_family(f)
        if not all(in_window(h) for h in members):
            excluded.append(f)
            continue
        interior += 1
        for g in family:
            pairing = sum(b_rows[g].get(h, 0) for h in members)
            if pairing != (1 if g == f else 0) and first_failure is None:
                first_failure = (f, g, pairing)
    return oracle.OrthogonalityReport(len(family), interior, tuple(excluded),
                                      first_failure)


def _swap(f: WeightDiagram, cf: CapForest, swap) -> WeightDiagram:
    """Exchange each chosen cross of f with its cap end in cf."""
    symbols = f.symbols
    for c in swap:
        del symbols[c]
        symbols[cf.cap_end[c]] = CROSS
    return WeightDiagram(symbols)


def proj_output_by_diagrams(f: WeightDiagram, fmt: str) -> str:
    """What `superchar proj` prints for f, the long way round: one swapped
    diagram per subset of crosses, sorted by their (position, symbol) items,
    then json.dumps or ab_from_diagram on every member."""
    cf = cap_diagram(f)
    crosses = cf.crosses
    members = sorted((_swap(f, cf, [c for i, c in enumerate(crosses) if mask >> i & 1])
                      for mask in range(1 << len(crosses))),
                     key=lambda d: tuple(d.symbols.items()))
    if fmt == "json":
        return json.dumps([{str(p): s for p, s in d.symbols.items()} for d in members],
                          indent=2, sort_keys=True) + "\n"
    lines = [f"{len(members)} diagrams in the projective family:"]
    for d in members:
        ab = ab_from_diagram(d)
        lines.append(f"  A = {list(ab.A)}  B = {list(ab.B)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the CLI's JSON outputs as payloads: json_reference(payload) is what the
# command prints

def json_reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def char_json_terms(p: CharPoly) -> list[dict]:
    m = p.m
    return [{"eps": list(v[:m]), "delta": list(v[m:]), "coeff": str(c)}
            for v, c in p.sorted_terms()]


def theta_json(th: ThetaPoly) -> dict:
    return {
        "variables": th.r,
        "terms": [{"exponents": list(e), "coeff": str(c)}
                  for e, c in th.sorted_terms()],
    }


def char_payload(chi: HighestWeight, variant: str) -> dict:
    ch = irreducible_char(chi, variant=variant)
    return {
        "m": chi.m, "n": chi.n,
        "lambda": list(chi.lam), "mu": list(chi.mu),
        "variant": variant,
        "depth": auto_depth(chi),
        "dimension": dimension_eval(ch),
        "monomials": char_json_terms(ch),
        "theta": theta_json(theta(gamma(cap_diagram(diagram_of_weight(chi))))),
    }


def kac_payload(chi: HighestWeight) -> dict:
    k = kac_char(diagram_of_weight(chi))
    return {
        "m": chi.m, "n": chi.n,
        "lambda": list(chi.lam), "mu": list(chi.mu),
        "dimension": dimension_eval(k),
        "monomials": char_json_terms(k),
    }


def theta_payload(f: WeightDiagram, variant: str) -> dict:
    forest = gamma(cap_diagram(f))
    if variant == "classic":
        return theta_json(theta(forest))
    th, nu, shift = theta_tilde(forest, segment_data(f))
    return {**theta_json(th), "nu": nu, "gamma": list(shift)}


def diagram_payload(f: WeightDiagram) -> dict:
    cf = cap_diagram(f)
    forest = gamma(cf)
    return {
        "symbols": {str(p): s for p, s in f.symbols.items()},
        "crosses": list(f.crosses),
        "caps": {str(c): cf.cap_end[c] for c in cf.crosses},
        "edges": sorted(list(e) for e in forest.edges),
        "segments": [list(s) for s in segment_data(f).segments],
        "atypicality": len(f.crosses),
        "components": forest.component_count(),
    }


def verify_payload(results: dict) -> dict:
    """The report of `verify --format json` on the suites' result dicts."""
    return {"ok": all(res["ok"] for res in results.values()), "suites": results}
