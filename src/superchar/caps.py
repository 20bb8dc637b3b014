"""Cap diagrams over weight diagrams and the nesting order they induce.

Each cross is joined to a circle on its right by a cap; caps never intersect,
so they nest into a forest.  Cap ends drive the cap-swap moves whose 2^r
results form the projective family of a diagram, and the maximal runs of
consecutive crosses (segments) feed the reduced character formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .weights import CROSS, InvariantError, WeightDiagram


@dataclass(frozen=True)
class CapForest:
    """Caps of a diagram: cross positions, their cap ends, and nesting parents.

    parent[c] is the cross whose cap immediately encloses the cap of c, or
    None for an outermost cap.
    """

    crosses: tuple[int, ...]
    cap_end: dict[int, int]
    parent: dict[int, int | None]

    def __post_init__(self):
        _check_noncrossing(self.crosses, self.cap_end)

    def nested_under(self, a: int, b: int) -> bool:
        """True iff the cap of b lies strictly under the cap of a."""
        return a < b and self.cap_end[b] < self.cap_end[a]


@dataclass(frozen=True)
class SegmentData:
    """Maximal consecutive runs of crosses, and the largest cross of each run."""

    segments: tuple[tuple[int, int], ...]
    tilde_c: dict[int, int]


def _check_noncrossing(crosses, cap_end) -> None:
    for a in crosses:
        if cap_end[a] <= a:
            raise InvariantError(f"cap end {cap_end[a]} not right of cross {a}")
    for a in crosses:
        for b in crosses:
            if a >= b:
                continue
            # intervals [a, end_a], [b, end_b] must be nested or disjoint
            ea, eb = cap_end[a], cap_end[b]
            if b <= ea and not eb < ea:
                raise InvariantError(
                    f"caps ({a},{ea}) and ({b},{eb}) cross")


def _caps_greedy(f: WeightDiagram) -> dict[int, int]:
    """Rightmost cross first, each joined to the first free circle on its right."""
    used: set[int] = set()
    cap_end: dict[int, int] = {}
    for a in sorted(f.crosses, reverse=True):
        c = a + 1
        while not f.is_circle(c) or c in used:
            c += 1
        used.add(c)
        cap_end[a] = c
    return cap_end


def cap_diagram(f: WeightDiagram) -> CapForest:
    """Build the cap diagram from the greedy construction.

    The tests compare it with an independent stack-matching construction on
    random diagrams and on every diagram of a five-position window.
    """
    cap_end = _caps_greedy(f)
    crosses = f.crosses
    parent: dict[int, int | None] = {}
    for b in crosses:
        # tightest enclosing cap, if any
        enclosing = [a for a in crosses
                     if a < b and cap_end[b] < cap_end[a]]
        parent[b] = max(enclosing) if enclosing else None
    return CapForest(crosses, cap_end, parent)


def family_pairs(f: WeightDiagram) -> tuple[dict[int, str], tuple[tuple[int, int], ...]]:
    """The projective family of f as its core symbols and its (cross, cap end)
    pairs, crosses ascending: each of the 2^r members keeps the cores and puts
    one cross on each pair.

    The 2r pair positions are checked distinct and off the cores, which makes
    the 2^r members distinct.
    """
    cf = cap_diagram(f)
    cores = {p: s for p, s in f.symbols.items() if s != CROSS}
    pairs = tuple((c, cf.cap_end[c]) for c in cf.crosses)
    held = {p for pair in pairs for p in pair}
    if len(held) != 2 * len(pairs) or not held.isdisjoint(cores):
        raise InvariantError(
            f"cross and cap end pairs {list(pairs)} are not "
            f"{2 * len(pairs)} distinct positions off the cores")
    return cores, pairs


def projective_family(f: WeightDiagram) -> set[WeightDiagram]:
    """All 2^r diagrams obtained by swapping a subset of crosses with cap ends."""
    cores, pairs = family_pairs(f)
    family: set[WeightDiagram] = set()
    for mask in range(1 << len(pairs)):
        symbols = dict(cores)
        for i, pair in enumerate(pairs):
            symbols[pair[mask >> i & 1]] = CROSS
        family.add(WeightDiagram(symbols))
    return family


def segment_data(f: WeightDiagram) -> SegmentData:
    """Split the crosses into maximal consecutive-integer runs."""
    crosses = f.crosses
    segments: list[tuple[int, int]] = []
    tilde: dict[int, int] = {}
    i = 0
    while i < len(crosses):
        j = i
        while j + 1 < len(crosses) and crosses[j + 1] == crosses[j] + 1:
            j += 1
        lo, hi = crosses[i], crosses[j]
        segments.append((lo, hi))
        for k in range(i, j + 1):
            tilde[crosses[k]] = hi
        i = j + 1
    return SegmentData(tuple(segments), tilde)


def render_caps(f: WeightDiagram) -> str:
    """ASCII picture: one line of symbols, cap arcs stacked above by depth."""
    cf = cap_diagram(f)
    lo_candidates = list(f.positions())
    hi_candidates = list(f.positions()) + [cf.cap_end[c] for c in cf.crosses]
    if not hi_candidates:
        return "(empty diagram)"
    lo = min(lo_candidates or hi_candidates) - 1
    hi = max(hi_candidates) + 1
    # one column per position, wide enough for its label and a space; the
    # longest label is at an end of the range
    width = max(3, 1 + max(len(str(lo)), len(str(hi))))

    def col(pos: int) -> int:
        return (pos - lo) * width

    total = (hi - lo + 1) * width
    sym_row = [" "] * total
    for pos in range(lo, hi + 1):
        s = f.symbol(pos)
        sym_row[col(pos)] = s if s is not None else "o"

    def depth(c: int) -> int:
        d = 0
        p = cf.parent[c]
        while p is not None:
            d += 1
            p = cf.parent[p]
        return d

    depths = {c: depth(c) for c in cf.crosses}
    max_depth = max(depths.values(), default=-1)
    arc_rows = []
    # deepest caps drawn closest to the symbol line
    for d in range(max_depth, -1, -1):
        row = [" "] * total
        for c in cf.crosses:
            if depths[c] != d:
                continue
            start, end = col(c), col(cf.cap_end[c])
            row[start] = "."
            row[end] = "."
            for k in range(start + 1, end):
                row[k] = "-"
        arc_rows.append("".join(row).rstrip())

    label_row = []
    for pos in range(lo, hi + 1):
        label_row.append(str(pos).ljust(width))
    lines = [line for line in arc_rows if line.strip()]
    lines.append("".join(sym_row).rstrip())
    lines.append("".join(label_row).rstrip())
    return "\n".join(lines)
