"""Independent verification oracle: the irreducible character as a signed,
filtration-convergent sum of Kac characters indexed by order-preserving
injections of the crosses.

Every result of the closed formula engines is checked against this expansion.
Inside a window the sum is finite: a proved per-value cutoff (the block-sum
bound of `oracle_char`) drops exactly the relocations whose Kac characters
cannot reach the window, so one enumeration gives the exact windowed result.
Each relocation goes straight to its Kac coordinate chi + rho, read off its
values and the core symbols without building its image diagram or weight.
The signed Kac characters are summed in one Kac sum, which runs the
alternation tail the engine and the lattice route share once on the merged
Kac coordinates.  This route takes its nesting order from the caps
directly, so it checks the caps and the forest end to end.  The shared
tail's odd factor is checked against the fully expanded product by
`verify --only kac`.

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
    _fold,
    alternate_tail,
    kac_sum,
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


def enumerate_weight_maps(f: WeightDiagram, cutoff: int) -> list[WeightMap]:
    """All relocations with every value >= cutoff, depth-first over the
    crosses in increasing position order.

    Constraints: values never exceed their cross, respect the cap-nesting
    order strictly, avoid each other and every core position.
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

    def descend(k: int):
        if k == len(crosses):
            out.append(WeightMap(dict(chosen)))
            return
        c = crosses[k]
        lo = cutoff
        for a in ancestors[c]:
            lo = max(lo, chosen[a] + 1)
        used = set(chosen.values())
        for val in range(lo, c + 1):
            if val in used or val in cores:
                continue
            chosen[c] = val
            descend(k + 1)
            del chosen[c]

    descend(0)
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


def _suggested_cutoff(f: WeightDiagram, window: Window) -> int:
    """The proved cutoff bound of oracle_char for a diagram with crosses: no
    relocation with a value below it can contribute inside the window."""
    crosses = f.crosses
    m = f.m
    # Kac character terms have even-block sum in [sum(lam(g)) - m*n, sum(lam(g))],
    # with sum(lam(g)) = sum(values) + sum(core '>') + m(m-1)/2.
    window_lo = sum(lo for lo, _ in window.eps)
    a_core = sum(f.greater_positions)
    value_sum_lo = window_lo - m * (m - 1) // 2 - a_core
    return min(value_sum_lo - (sum(crosses) - min(crosses)) - 1, min(crosses))


def _window_reachable(omega: tuple[int, ...], window: Window) -> bool:
    """Exact even-block-sum test: can any term of the Kac character with
    Kac coordinate omega (A then -B, chi + rho) fall in the box?  Its
    highest weight has even-block sum sum(A) + m(m-1)/2.  The odd-block sum
    needs no test here: kac_sum's tail clips its slice to the window's
    odd-degree range."""
    m, n = len(window.eps), len(window.delta)
    lam_sum = sum(omega[:m]) + m * (m - 1) // 2
    # odd factor lowers the even-block sum by at most m*n
    return (sum(lo for lo, _ in window.eps) <= lam_sum
            <= sum(hi for _, hi in window.eps) + m * n)


def oracle_char(f: WeightDiagram, window: Window) -> CharPoly:
    """Signed sum of Kac characters over all relocations with values at or
    above the cutoff B = _suggested_cutoff(f, window), restricted to the
    window.  Each relocation's Kac coordinate is read off directly: A is
    its values and the '>' positions, descending, B its values and the '<'
    positions, ascending, and the coordinate is A then -B.  Relocation
    signs are accumulated per coordinate (equal images merge, cancelling
    ones drop), and the signed Kac characters are summed in one kac_sum
    call, which runs the shared alternation tail once on the merged Kac
    coordinates.

    The cutoff is exact.  B is min(value_sum_lo - (sum(crosses) -
    min(crosses)) - 1, min(crosses)), where value_sum_lo is the lowest value
    sum whose image can reach the window's lowest even-block sum.  Take a
    relocation with some value v < B.  Every other value is at most its own
    cross, so the value sum is at most v + sum(crosses) - min(crosses) <
    value_sum_lo.  The image diagram g then has sum(lam(g)) = sum(values) +
    sum(core '>') + m(m-1)/2 below the window's lowest even-block sum, while
    every term of ch K(g) has even-block sum at most sum(lam(g)).  So its Kac
    character misses the window (_window_reachable), and the relocations
    with all values >= B give the whole windowed sum.  A diagram without
    crosses has one relocation, the empty one.
    """
    cutoff = _suggested_cutoff(f, window) if f.crosses else 0
    greater, less = f.greater_positions, f.less_positions
    coeffs: dict[tuple[int, ...], int] = {}
    for wm in enumerate_weight_maps(f, cutoff):
        values = tuple(wm.phi.values())
        omega = (tuple(sorted(values + greater, reverse=True))
                 + tuple(-b for b in sorted(values + less)))
        if _window_reachable(omega, window):
            _acc(coeffs, omega, epsilon_sign(f, wm))
    return kac_sum(f.m, f.n, coeffs, window)


def oracle_char_lattice(f: WeightDiagram, window: Window) -> CharPoly:
    """Second oracle route: sum plain alternants over the lattice points x of
    the nesting forest's order polyhedron (polyhedron_of_forest), signed by
    the position sums, then divide by the normalized denominator.  J
    commutes with multiplying by the W0-invariant Q and the slice is
    W0-stable, so J(sum * Q) = J(fold(sum) * Q): the shared tail
    (alternate_tail) gets the sum folded onto Kac coordinates, and the
    window, inside which alone it expands each Schur block.  Sign
    conventions are coded independently of epsilon_sign.

    Each position's exponent vector (position_exponents) is weighted by its
    coordinate: a cross by x, a core symbol by its own position, which gives
    one constant shift.  The cutoff min(crosses) - m*n is exact: a value x
    never exceeds its cross c and a point's odd degree is base_delta +
    sum(c - x), so a value below the cutoff puts the point above
    slice_hi = base_delta + m*n, where the slice check drops it."""
    m, n = f.m, f.n
    crosses = f.crosses
    exps = position_exponents(f)
    cross_vecs = [exps[c] for c in crosses]
    shift = [sum(p * exps[p][t] for p in f.core_positions) for t in range(m + n)]
    base_delta = sum(p * sum(v[m:]) for p, v in exps.items())
    slice_lo, slice_hi = base_delta, base_delta + m * n
    cutoff = (min(crosses) if crosses else 0) - m * n

    sign_f = -1 if sum(crosses) % 2 else 1
    terms = []
    for x in enumerate_lattice(polyhedron_of_forest(gamma(cap_diagram(f))), cutoff):
        vec = list(shift)
        for xi, v in zip(x, cross_vecs):
            for t in range(m + n):
                vec[t] += xi * v[t]
        if sum(vec[m:]) <= slice_hi:
            terms.append((tuple(vec), sign_f * (-1 if sum(x) % 2 else 1)))
    return alternate_tail(m, n, _fold(m, terms), slice_lo, slice_hi, window)


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
