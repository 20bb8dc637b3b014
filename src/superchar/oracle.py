"""Independent verification oracle: the irreducible character as a signed,
filtration-convergent sum of Kac characters indexed by order-preserving
injections of the crosses.

Every result of the closed formula engines is checked against this expansion,
block by block: `verify --only oracle` compares its g0 blocks (oracle_blocks)
with the engine's.  On the character's odd-degree slice the sum is finite: a
term's total displacement raises its odd degree (_slice), so the relocations
within the displacement budget m*n give the exact sum in one enumeration, and
a window restricts only its final expansion (oracle_char).  Each relocation
goes straight to its Kac coordinate chi + rho, read off its values and the
core symbols without building its image diagram or weight.  The signed Kac
characters are summed by running the alternation tail the engine and the
lattice route share once on the merged Kac coordinates.  This route takes
its nesting order from the caps directly, so it checks the caps and the
forest end to end.  The shared tail's odd factor is checked against the
fully expanded product by `verify --only kac`.

A second route sums plain alternants over the lattice points of the nesting
forest's order polyhedron, the polyhedron whose vertex cones capgraph.theta
sums; by Brion's theorem the two must agree, so this route checks the stage
from the forest onward.  The two routes carry independently coded sign
conventions.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

from .capgraph import gamma
from .caps import cap_diagram, projective_family
from .charring import (
    CharPoly,
    Window,
    _acc,
    _expand_blocks,
    _fold,
    _tail_blocks,
)
from .latticegen import enumerate_lattice, polyhedron_of_forest
from .weights import CROSS, GREATER, LESS, WeightDiagram, position_exponents


@dataclass(frozen=True)
class WeightMap:
    """Injective, nesting-order-preserving, non-increasing relocation of the
    crosses of a diagram."""

    phi: dict[int, int]

    def image_diagram(self, f: WeightDiagram) -> WeightDiagram:
        symbols = {p: s for p, s in f.symbols.items() if s != CROSS}
        for a, b in self.phi.items():
            symbols[b] = CROSS
        return WeightDiagram(symbols)


def enumerate_weight_maps(f: WeightDiagram, cutoff: int,
                          budget: int | None = None) -> list[WeightMap]:
    """All relocations with every value >= cutoff and, given a budget, total
    displacement sum(c - x) <= budget, depth-first over the crosses in
    increasing position order.

    Constraints: values never exceed their cross, respect the cap-nesting
    order strictly, avoid each other and every core position.  A cross
    can always stay put (the crosses before it end below it, their values
    too), so the budget bounds each value below by c - (budget - spent)
    without a dead end: the list is the unbudgeted one, filtered.
    """
    crosses = f.crosses
    if crosses and cutoff > min(crosses):
        raise ValueError("cutoff must not exceed the smallest cross")
    cf = cap_diagram(f)
    cores = set(f.core_positions)
    ancestors: dict[int, list[int]] = {
        b: [a for a in crosses if cf.nested_under(a, b)] for b in crosses}

    out: list[WeightMap] = []
    chosen: dict[int, int] = {}

    def descend(k: int, spent: int):
        if k == len(crosses):
            out.append(WeightMap(dict(chosen)))
            return
        c = crosses[k]
        lo = cutoff if budget is None else max(cutoff, c - (budget - spent))
        for a in ancestors[c]:
            lo = max(lo, chosen[a] + 1)
        used = set(chosen.values())
        for val in range(lo, c + 1):
            if val in used or val in cores:
                continue
            chosen[c] = val
            descend(k + 1, spent + c - val)
            del chosen[c]

    descend(0, 0)
    return out


def epsilon_sign(f: WeightDiagram, wm: WeightMap) -> int:
    """Sign of a relocation: parity of the total displacement, discounting the
    core symbols jumped over.  Invariant under core stripping."""
    if set(wm.phi) != set(f.crosses):
        raise ValueError("map must be defined exactly on the crosses")
    cores = f.core_positions  # ascending
    total = 0
    for a, b in wm.phi.items():
        if b > a:
            raise ValueError(f"relocation {a} -> {b} goes right")
        # the cores in (b, a], which is (b, a): a is a cross
        total += a - b - (bisect(cores, a) - bisect(cores, b))
    return -1 if total % 2 else 1


def _slice(f: WeightDiagram) -> tuple[int, int, int]:
    """(slice_lo, slice_hi, cutoff): the odd-degree slice of ch L(f) and the
    one cutoff of both oracle routes, which is exact for every window.

    slice_lo = -sum(crosses and '<' positions) is the odd degree of chi +
    rho, and slice_hi = slice_lo + m*n; L(f) is a quotient of its Kac
    module, so its character lives in the slice.  Each route moves every
    cross c to a value x <= c, and its term (a relocation's Kac coordinate,
    a lattice point's alternant) has odd degree slice_lo + sum(c - x), which
    Q only raises.  So a term with sum(c - x) > m*n ends above slice_hi:
    the relocations within the displacement budget m*n give the whole sum
    on the slice (oracle_blocks).  The budget implies the cutoff: c - x <=
    m*n makes x >= c - m*n >= min(crosses) - m*n = cutoff, so the terms
    with every value at or above the cutoff include them all (the lattice
    route, which enumerates by cutoff).  Without crosses the cutoff is
    -m*n, and nothing moves.
    """
    mn = f.m * f.n
    slice_lo = -sum(f.crosses) - sum(f.less_positions)
    return slice_lo, slice_lo + mn, (min(f.crosses) if f.crosses else 0) - mn


def oracle_blocks(f: WeightDiagram) -> dict[tuple[int, ...], int]:
    """The g0 blocks of L(f) from the signed sum of Kac characters over all
    relocations within the displacement budget m*n (_slice), on the
    character's odd-degree slice.  Each relocation's Kac coordinate is read
    off directly: A is its values and the '>' positions, descending, B its
    values and the '<' positions, ascending, and the coordinate is A then
    -B.  Relocation signs are accumulated per coordinate (equal images
    merge, cancelling ones drop), and the shared alternation tail runs once
    on the merged Kac coordinates.
    """
    m, n = f.m, f.n
    slice_lo, slice_hi, cutoff = _slice(f)
    greater, less = f.greater_positions, f.less_positions
    coeffs: dict[tuple[int, ...], int] = {}
    for wm in enumerate_weight_maps(f, cutoff, m * n):
        values = tuple(wm.phi.values())
        omega = (tuple(sorted(values + greater, reverse=True))
                 + tuple(-b for b in sorted(values + less)))
        _acc(coeffs, omega, epsilon_sign(f, wm))
    return _tail_blocks(m, n, coeffs, slice_lo, slice_hi)


def oracle_char(f: WeightDiagram, window: Window) -> CharPoly:
    """The relocation route's character (oracle_blocks), restricted to the
    window: the window restricts the blocks' expansion only."""
    return _expand_blocks(f.m, f.n, oracle_blocks(f), window)


def oracle_char_lattice(f: WeightDiagram, window: Window) -> CharPoly:
    """Second oracle route: sum plain alternants over the lattice points x of
    the nesting forest's order polyhedron (polyhedron_of_forest), signed by
    the position sums, then divide by the normalized denominator.  J
    commutes with multiplying by the W0-invariant Q and the slice is
    W0-stable, so J(sum * Q) = J(fold(sum) * Q): the shared tail
    (_tail_blocks) gets the sum folded onto Kac coordinates, and its g0
    blocks are expanded once, restricted to the window (_expand_blocks).
    Sign conventions are coded independently of epsilon_sign.

    Each position's exponent vector (position_exponents) is weighted by its
    coordinate: a cross by x, a core symbol by its own position, which gives
    one constant shift.  The slice and the cutoff are oracle_blocks'
    (_slice); a point's odd degree is slice_lo + sum(c - x), and the points
    that end above slice_hi are dropped before the fold."""
    m, n = f.m, f.n
    exps = position_exponents(f)
    cross_vecs = [exps[c] for c in f.crosses]
    shift = [sum(p * exps[p][t] for p in f.core_positions) for t in range(m + n)]
    slice_lo, slice_hi, cutoff = _slice(f)

    sign_f = -1 if sum(f.crosses) % 2 else 1
    terms = []
    for x in enumerate_lattice(polyhedron_of_forest(gamma(cap_diagram(f))), cutoff):
        vec = list(shift)
        for xi, v in zip(x, cross_vecs):
            for t in range(m + n):
                vec[t] += xi * v[t]
        if sum(vec[m:]) <= slice_hi:
            terms.append((tuple(vec), sign_f * (-1 if sum(x) % 2 else 1)))
    blocks = _tail_blocks(m, n, _fold(m, terms), slice_lo, slice_hi)
    return _expand_blocks(m, n, blocks, window)


# ---------------------------------------------------------------------------
# projective / irreducible orthogonality

@dataclass(frozen=True)
class OrthogonalityReport:
    """first_failure is (row f, column g, pairing) for the first failing row
    in family order and its first failing column in that order, or None."""

    family_size: int
    interior_rows: int
    excluded_rows: tuple[WeightDiagram, ...]
    first_failure: tuple[WeightDiagram, WeightDiagram, int] | None

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def _diagram_family(window: tuple[int, int], m: int, n: int,
                    r_max: int) -> list[WeightDiagram]:
    """All diagrams of the (m, n) family supported in the position window with
    at most r_max crosses."""
    from itertools import combinations

    lo, hi = window
    slots = list(range(lo, hi + 1))
    out = []
    for r in range(0, min(m, n, r_max) + 1):
        for cross_set in combinations(slots, r):
            rest1 = [p for p in slots if p not in cross_set]
            for gt_set in combinations(rest1, m - r):
                rest2 = [p for p in rest1 if p not in gt_set]
                for lt_set in combinations(rest2, n - r):
                    symbols = {p: CROSS for p in cross_set}
                    symbols.update({p: GREATER for p in gt_set})
                    symbols.update({p: LESS for p in lt_set})
                    out.append(WeightDiagram(symbols))
    return out


def orthogonality_report(window: tuple[int, int], m: int, n: int,
                         r_max: int) -> OrthogonalityReport:
    """Pair the projective-family matrix against the signed relocation-count
    matrix; their product must be the identity on every row whose projective
    family stays inside the window.

    Entry (f, g) of the product is the sum, over the members h of the
    projective family of f, of the signed count of relocations of g onto h.
    The counts are indexed by column: cols[h] maps each family diagram g to
    its signed count onto h, nonzero entries only.  Summing cols[h] over the
    members of f gives row f of the product at every column where it is
    nonzero; every other family column pairs to 0.  So row f passes exactly
    when that sum is {f: 1}, the same test as pairing f with every column,
    at a cost linear in the nonzero counts reached.
    """
    lo, hi = window
    family = _diagram_family(window, m, n, r_max)

    def in_window(d: WeightDiagram) -> bool:
        ps = d.positions()
        return not ps or (lo <= min(ps) and max(ps) <= hi)

    cols: dict[WeightDiagram, dict[WeightDiagram, int]] = {}
    for g in family:
        for wm in enumerate_weight_maps(g, lo):
            _acc(cols.setdefault(wm.image_diagram(g), {}), g, epsilon_sign(g, wm))

    order = {g: k for k, g in enumerate(family)}
    first_failure = None
    interior = 0
    excluded = []
    for f in family:
        members = projective_family(f)
        if not all(in_window(h) for h in members):
            excluded.append(f)
            continue
        interior += 1
        pairing: dict[WeightDiagram, int] = {}
        for h in members:
            for g, c in cols.get(h, {}).items():
                _acc(pairing, g, c)
        if first_failure is None and pairing != {f: 1}:
            bad = [g for g in pairing.keys() | {f}
                   if pairing.get(g, 0) != (1 if g == f else 0)]
            g = min(bad, key=order.__getitem__)
            first_failure = (f, g, pairing.get(g, 0))
    return OrthogonalityReport(len(family), interior, tuple(excluded),
                               first_failure)
