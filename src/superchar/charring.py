"""Exact Laurent-polynomial character ring for gl(m|n) and both irreducible
character engines.

Exponent vectors live in Z^(m+n): the first m slots are even (x = e^eps)
coordinates, the last n odd (y = e^delta).  The alternation J, the normalized
Weyl-type denominator, Kac characters, and the closed vertex-cone formula are
all computed with exact integer arithmetic.  The formula engine runs theta's
numerator through the alternation tail the oracles share, in three layers:
numerator -> paired and Pieri odd columns -> g0 blocks -> expansion.  The
odd factor's atypical binomials cancel the paper's geometric series
exactly, so no series is expanded and nothing is truncated (g0_blocks); the
only rationals, theta's coefficients, are scaled to integers for the tail
and divided out of each g0 block exactly.  Every character route is g0
blocks, then one expansion: the engine, the Kac characters and both oracles
run the tail (_tail_blocks) on the odd-degree slice (_slice), the one bound
of their sums, and expand its blocks (_expand_blocks) through one gl(k)
kernel (_schur_block); a window only filters the finished Schur blocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import lcm
from operator import add, sub

from .capgraph import (
    ThetaPoly,
    gamma,
    reduced_formula_supported,
    special_edges,
    theta,
    theta_tilde,
)
from .caps import cap_diagram, segment_data
from .weights import (
    HighestWeight,
    InvariantError,
    WeightDiagram,
    ab_from_diagram,
    ab_sets,
    diagram_of_weight,
    position_exponents,
    rho,
    weight_from_diagram,
)

Vec = tuple[int, ...]


class ExactDivisionError(ArithmeticError):
    """A division the normalization guarantees to be exact left a remainder."""


class CharPoly:
    """Laurent polynomial in m even and n odd variables.

    Terms map exponent vectors to nonzero coefficients, kept as given (the
    library's characters have ints); the zero polynomial has no terms.
    """

    __slots__ = ("m", "n", "terms")

    def __init__(self, m: int, n: int, terms: dict[Vec, object] | None = None):
        self.m = m
        self.n = n
        self.terms = {v: c for v, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, m: int, n: int) -> "CharPoly":
        return cls(m, n)

    @classmethod
    def monomial(cls, m: int, n: int, exps: Vec, coeff=1) -> "CharPoly":
        return cls(m, n, {tuple(exps): coeff})

    def _like(self, terms: dict[Vec, object]) -> "CharPoly":
        return CharPoly(self.m, self.n, terms)

    def coefficient(self, exps: Vec):
        return self.terms.get(tuple(exps), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, CharPoly) and self.m == other.m
                and self.n == other.n and self.terms == other.terms)

    def __add__(self, other: "CharPoly") -> "CharPoly":
        out = dict(self.terms)
        for v, c in other.terms.items():
            _acc(out, v, c)
        return self._like(out)

    def __sub__(self, other: "CharPoly") -> "CharPoly":
        out = dict(self.terms)
        for v, c in other.terms.items():
            _acc(out, v, -c)
        return self._like(out)

    def __neg__(self) -> "CharPoly":
        return self._like({v: -c for v, c in self.terms.items()})

    def __mul__(self, other: "CharPoly") -> "CharPoly":
        out: dict[Vec, object] = {}
        for v1, c1 in self.terms.items():
            for v2, c2 in other.terms.items():
                _acc(out, tuple(map(add, v1, v2)), c1 * c2)
        return self._like(out)

    def eval_at_ones(self):
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[Vec, object]]:
        """Graded (total degree) then lexicographic, descending."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __repr__(self) -> str:
        body = ", ".join(f"{v}: {c}" for v, c in self.sorted_terms()[:8])
        tail = ", ..." if len(self.terms) > 8 else ""
        return f"CharPoly(m={self.m}, n={self.n}, {{{body}{tail}}})"


def _acc(d: dict, key, val) -> None:
    cur = d.get(key)
    if cur is None:
        if val != 0:
            d[key] = val
    else:
        cur = cur + val
        if cur == 0:
            del d[key]
        else:
            d[key] = cur


@dataclass(frozen=True)
class Window:
    """Per-coordinate exponent box: (lo, hi) for each even and odd slot."""

    eps: tuple[tuple[int, int], ...]
    delta: tuple[tuple[int, int], ...]

    @classmethod
    def hull(cls, p: CharPoly, margin: int = 0) -> "Window":
        """Bounding box of a polynomial's support, optionally padded."""
        if p.is_zero():
            raise ValueError("zero polynomial has no support hull")
        m, n = p.m, p.n
        eps = []
        for i in range(m):
            vals = [v[i] for v in p.terms]
            eps.append((min(vals) - margin, max(vals) + margin))
        delta = []
        for j in range(n):
            vals = [v[m + j] for v in p.terms]
            delta.append((min(vals) - margin, max(vals) + margin))
        return cls(tuple(eps), tuple(delta))


# ---------------------------------------------------------------------------
# root systems and the normalized denominator

def even_positive_roots(m: int, n: int) -> list[Vec]:
    roots = []
    for i in range(m):
        for j in range(i + 1, m):
            v = [0] * (m + n)
            v[i], v[j] = 1, -1
            roots.append(tuple(v))
    for k in range(n):
        for l in range(k + 1, n):
            v = [0] * (m + n)
            v[m + k], v[m + l] = 1, -1
            roots.append(tuple(v))
    return roots


def odd_positive_roots(m: int, n: int) -> list[Vec]:
    roots = []
    for i in range(m):
        for j in range(n):
            v = [0] * (m + n)
            v[i], v[m + j] = 1, -1
            roots.append(tuple(v))
    return roots


def chi_plus_rho_exponent(chi: HighestWeight) -> Vec:
    ab = ab_sets(chi)
    return ab.A + tuple(-b for b in ab.B)


@lru_cache(maxsize=None)
def q_odd_product(m: int, n: int) -> CharPoly:
    """The full odd factor: product over all eps_i - delta_j of (1 + e^{-alpha})."""
    p = CharPoly.monomial(m, n, (0,) * (m + n))
    for alpha in odd_positive_roots(m, n):
        neg = tuple(-a for a in alpha)
        p = p * CharPoly(m, n, {(0,) * (m + n): 1, neg: 1})
    return p


def dhat_denominator(m: int, n: int) -> tuple[CharPoly, CharPoly]:
    """Normalized Weyl-type denominator as a (numerator, denominator) pair:
    e^rho * prod_even (1 - e^{-alpha})  over  prod_odd (1 + e^{-alpha}).

    The monomial normalization is the unique one for which numerator times a
    Kac character equals denominator times the plain alternant of the Kac
    module's shifted highest weight, with integer exponents throughout.
    """
    r = rho(m, n)
    num = CharPoly.monomial(m, n, r.eps_part + r.delta_part)
    for alpha in even_positive_roots(m, n):
        neg = tuple(-a for a in alpha)
        num = num * CharPoly(m, n, {(0,) * (m + n): 1, neg: -1})
    return num, q_odd_product(m, n)


# ---------------------------------------------------------------------------
# alternation

@lru_cache(maxsize=None)
def _signed_perms(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    out = []
    for perm in permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k)
                  if perm[a] > perm[b])
        out.append((perm, -1 if inv % 2 else 1))
    return tuple(out)


def _sort_desc_signed(seq: Vec) -> tuple[int, Vec | None]:
    """(sign, strictly decreasing rearrangement), or (0, None) on a repeat."""
    inv = 0
    for a, x in enumerate(seq):
        for y in seq[a + 1:]:
            if x < y:
                inv += 1
            elif x == y:
                return 0, None
    return (-1 if inv & 1 else 1), tuple(sorted(seq, reverse=True))


def _fold(m: int, terms) -> dict[Vec, object]:
    """Sum (vector, coefficient) pairs onto the strictly decreasing (per
    block) representatives of their orbits, with the sign of the sorting
    permutation; terms with a repeated entry in a block die."""
    into: dict[Vec, object] = {}
    for v, c in terms:
        s1, eps = _sort_desc_signed(v[:m])
        if s1 == 0:
            continue
        s2, delta = _sort_desc_signed(v[m:])
        if s2 == 0:
            continue
        _acc(into, eps + delta, c if s1 == s2 else -c)
    return into


def alt_J(p: CharPoly) -> CharPoly:
    """Signed sum over separate permutations of the even and odd exponents.

    Terms are first folded onto the strictly decreasing representative of
    their orbit (terms with a repeated entry die), then each surviving
    representative is expanded over the full signed orbit.
    """
    m, n = p.m, p.n
    folded = _fold(m, p.terms.items())
    out: dict[Vec, object] = {}
    perms_m = _signed_perms(m)
    perms_n = _signed_perms(n)
    for v, c in folded.items():
        eps, delta = v[:m], v[m:]
        for pm, sm in perms_m:
            left = tuple(eps[i] for i in pm)
            cs = c * sm
            for pn, sn in perms_n:
                _acc(out, left + tuple(delta[j] for j in pn), cs * sn)
    return CharPoly(m, n, out)


# ---------------------------------------------------------------------------
# exact division

def _ht(v: Vec) -> int:
    """Linear functional strictly positive on every positive root: the dot
    product with (m+n, m+n-1, ..., 1)."""
    k = len(v)
    return sum((k - i) * x for i, x in enumerate(v))


def divide_exact(p: CharPoly, alpha: Vec, plus: bool = False) -> CharPoly:
    """Exact quotient p / (1 -+ e^{-alpha}); raises if a remainder appears.

    Synthetic division from the top of the height order: each emitted
    quotient term pushes a single correction strictly downward, and an exact
    division never sends the working polynomial below the dividend's floor.
    """
    if p.is_zero():
        return p
    drop = tuple(-a for a in alpha)
    corr = -1 if plus else 1
    floor = min(_ht(v) for v in p.terms)
    work = dict(p.terms)
    heap = [(-_ht(v), v) for v in work]
    heapq.heapify(heap)
    quot: dict[Vec, object] = {}
    while heap:
        negh, v = heapq.heappop(heap)
        c = work.get(v)
        if not c:
            continue
        if -negh < floor:
            raise ExactDivisionError(
                f"division by (1 {'+' if plus else '-'} e^-{alpha}) left a remainder")
        del work[v]
        _acc(quot, v, c)
        w = tuple(a + b for a, b in zip(v, drop))
        fresh = w not in work
        _acc(work, w, corr * c)
        if fresh and w in work:
            heapq.heappush(heap, (-_ht(w), w))
    return CharPoly(p.m, p.n, quot)


# ---------------------------------------------------------------------------
# classical block characters (Laurent Schur polynomials)

@lru_cache(maxsize=None)
def _schur_block(lam: tuple[int, ...]) -> tuple[tuple[Vec, int], ...]:
    """Weight multiplicities of the gl(k) irreducible with highest weight lam.

    Gelfand-Tsetlin branching: ch L(lam) is the sum, over the rows mu with
    lam_1 >= mu_1 >= lam_2 >= ... >= mu_{k-1} >= lam_k, of
    ch L(mu) * x_k^(|lam| - |mu|), where L(mu) is the gl(k-1) irreducible in
    x_1 .. x_{k-1}.  The cache is shared across calls, because sub-blocks
    recur across blocks and callers.
    """
    if len(lam) == 1:
        return ((lam, 1),)
    total = sum(lam)
    out: dict[Vec, int] = {}
    for mu in product(*(range(low, high + 1) for high, low in zip(lam, lam[1:]))):
        last = (total - sum(mu),)
        for w, c in _schur_block(mu):
            w += last
            out[w] = out.get(w, 0) + c
    return tuple(out.items())


# ---------------------------------------------------------------------------
# the alternation tail shared by the formula engine, the Kac characters and
# both oracles

@lru_cache(maxsize=1024)
def _strips(block: Vec) -> tuple[tuple[Vec, ...], ...]:
    """Vertical strips on a strictly decreasing block: entry k lists the
    blocks block - 1_S over the k-subsets S of its slots that stay strictly
    decreasing, i.e. where no lowered slot ends equal to its unlowered right
    neighbour (_tail_blocks).  That neighbour is one below the lowered
    slot only inside a run of consecutive entries, so S is valid exactly
    when it meets each maximal run in a suffix of it: one choice of suffix
    length per run, and no candidate is rejected.  The cache is bounded: a
    large weight's blocks are mostly seen once, and keeping them all
    doubles its peak memory."""
    runs: list[Vec] = []
    for i, x in enumerate(block):
        if i and block[i - 1] == x + 1:
            runs[-1] += (x,)
        else:
            runs.append((x,))
    out: list[list[Vec]] = [[()]]
    for run in runs:
        size = len(run)
        ends = [run[:size - t] + tuple(x - 1 for x in run[size - t:])
                for t in range(size + 1)]
        nxt: list[list[Vec]] = [[] for _ in range(len(out) + size)]
        for k, heads in enumerate(out):
            for t, end in enumerate(ends):
                nxt[k + t].extend(head + end for head in heads)
        out = nxt
    return tuple(map(tuple, out))


@lru_cache(maxsize=1024)
def _paired_strips(prefix: Vec, value: int, free: Vec
                   ) -> tuple[tuple[tuple[Vec, ...], ...], tuple[tuple[Vec, ...], ...]]:
    """A paired column on the even block prefix + (value,) + free, as two
    lists (sign +1, sign -1) whose entry k holds the blocks of its degree-k
    terms (_tail_blocks): a vertical strip of the folded prefix lowered
    (_strips), any subset of the free slots lowered, and value inserted into
    the lowered prefix with sign (-1)^(places passed); a tie dies.  Cached
    and bounded, as _strips is."""
    out = [[[] for _ in range(len(prefix) + len(free) + 1)] for _ in "+-"]
    for mask in range(1 << len(free)):
        low_free = tuple(x - (mask >> t & 1) for t, x in enumerate(free))
        for k, lows in enumerate(_strips(prefix), mask.bit_count()):
            for low in lows:
                q = len(low)
                while q and low[q - 1] < value:
                    q -= 1
                if not q or low[q - 1] != value:
                    out[(len(low) - q) & 1][k].append(low[:q] + (value,) + low[q:] + low_free)
    return tuple(tuple(map(tuple, half)) for half in out)


def _tail_blocks(m: int, n: int, terms: dict[Vec, object],
                 slice_lo: int, slice_hi: int, paired: int = 0) -> dict[Vec, object]:
    """The g0 blocks {omega: c} of J(terms * Q') on odd degrees [slice_lo,
    slice_hi]: its folded terms, c the multiplicity of the gl(m)+gl(n)
    irreducible L0(omega - rho) (_expand_blocks).  Q' is the product of the
    binomials (1 + e^{-(eps_i - delta_j)}) but the `paired` ones that pair
    odd slot j < paired with even slot m - paired + j.  Each term's first
    m - paired even slots are strictly decreasing; with paired = 0 the terms
    are Kac coordinates and Q' = Q.  Q' is applied one odd column at a time,
    column j being prod_i (1 + y_j/x_i) over its even slots, and every term
    stays folded.

    Pieri step (j >= paired).  The column is symmetric in the even block,
    so for a strictly decreasing even block v, J(x^v e_k(1/x) g) is the sum
    of J(x^(v - 1_S) g) over the k-subsets S of the even slots.  Lowering S
    keeps the gap between slots i and i+1 when both or neither is lowered,
    widens it when only i+1 is, and narrows it by one when only i is; so
    v - 1_S is strictly decreasing unless a lowered slot now equals its
    unlowered right neighbour, where it has a repeat and J kills it.  The
    surviving strips (_strips) are folded terms with sign +1.

    Paired step (j < paired).  No column from j on skips a slot of the even
    prefix 0 .. m - paired + j - 1, so what is left of Q' is symmetric in it
    and it is kept folded.  Column j lowers a vertical strip of the prefix
    and any subset of the later partners, which are not yet symmetric with
    it, and skips its own partner; the columns after it are symmetric in
    the prefix plus that partner, whose value is then inserted into the
    prefix with sign (-1)^(places passed), a tie dying (_paired_strips).

    Insertion fold.  The columns after j touch neither odd slot j nor the
    ones before it, so what is left of Q' is symmetric in odd slots 0..j,
    and J(sigma f * g) = sgn(sigma) J(f * g) for sigma permuting them.  Slots
    0..j-1 are kept strictly decreasing, so column j inserts y_j + k into
    them with sign (-1)^(places passed), and drops the term on a tie.

    Prune.  A Pieri column adds k in [0, m] to a term's odd degree d, a
    paired one k in [0, m - 1]; with room `left` in the columns after it the
    term ends in [d + k, d + k + left], so keeping d + k in [slice_lo -
    left, slice_hi] drops exactly the terms that cannot end in the slice.
    """
    terms = {v: c for v, c in terms.items()
             if slice_lo - m * n + paired <= sum(v[m:]) <= slice_hi}
    for j in range(n):
        pair = j < paired
        left = m * (n - 1 - j) - max(0, paired - 1 - j)
        nxt: dict[Vec, object] = {}
        get = nxt.get
        for v, c in terms.items():
            odd = v[m:]
            head, y, rest = odd[:j], odd[j], odd[j + 1:]
            d = sum(odd)
            if pair:
                cut = m - paired + j
                strips, minus = _paired_strips(v[:cut], v[cut], v[cut + 1:m])
            else:
                strips, minus = _strips(v[:m]), None
            p = j
            for k in range(max(0, slice_lo - left - d), min(m - pair, slice_hi - d) + 1):
                z = y + k
                while p and head[p - 1] < z:
                    p -= 1
                if p and head[p - 1] == z:
                    continue
                ys = head[:p] + (z,) + head[p:] + rest
                ck = -c if (j - p) & 1 else c
                for low in strips[k]:
                    key = low + ys
                    nxt[key] = get(key, 0) + ck
                if minus:
                    for low in minus[k]:
                        key = low + ys
                        nxt[key] = get(key, 0) - ck
        terms = {v: c for v, c in nxt.items() if c}
    return terms


def _expand_blocks(m: int, n: int, blocks: dict[Vec, object],
                   window: Window | None = None) -> CharPoly:
    """Sum of c * ch L0(omega - rho) over g0 blocks {omega: c}: the product of
    the two Laurent Schur blocks of highest weight omega - rho (_schur_block).
    A window is a product of per-slot intervals, so the sum restricted to it
    is the sum of the blocks' weights inside their halves of the window: a
    block whose range [lam_k, lam_1] lies in every slot is used whole, any
    other is filtered weight by weight."""

    def part(lam: Vec, box) -> tuple[tuple[Vec, int], ...]:
        block = _schur_block(lam)
        if box is None or all(lo <= lam[-1] and lam[0] <= hi for lo, hi in box):
            return block
        return tuple((w, c) for w, c in block
                     if all(lo <= x <= hi for x, (lo, hi) in zip(w, box)))

    r = rho(m, n)
    # group by the even block so each even Schur block is expanded once
    eps_box, delta_box = (window.eps, window.delta) if window else (None, None)
    odd_parts: dict[Vec, dict[Vec, int]] = {}
    for w, c in blocks.items():
        lam = tuple(map(sub, w[:m], r.eps_part))
        inner = odd_parts.setdefault(lam, {})
        for vd, cd in part(tuple(map(sub, w[m:], r.delta_part)), delta_box):
            inner[vd] = inner.get(vd, 0) + c * cd
    out: dict[Vec, object] = {}
    for lam, inner in odd_parts.items():
        odd_terms = [(vd, cd) for vd, cd in inner.items() if cd]
        for ve, ce in part(lam, eps_box):
            for vd, cd in odd_terms:
                key = ve + vd
                out[key] = out.get(key, 0) + ce * cd
    # drop the cancelled terms in place and hand the dict over uncopied
    for key in [key for key, c in out.items() if not c]:
        del out[key]
    ch = CharPoly(m, n)
    ch.terms = out
    return ch


@lru_cache(maxsize=None)
def gt_multiplicity(lam: tuple[int, ...], w: Vec) -> int:
    """Multiplicity of the weight w in the gl(k) irreducible with highest
    weight lam: a lookup in its block (_schur_block)."""
    return dict(_schur_block(lam)).get(w, 0)


# ---------------------------------------------------------------------------
# Kac characters

def _slice(f: WeightDiagram) -> tuple[int, int]:
    """(slice_lo, slice_hi): the odd degrees of ch K(f) and ch L(f), the one
    bound of every character route's sum.

    slice_lo = -sum(crosses and '<' positions) is the odd degree of the Kac
    coordinate chi + rho, whose odd part is -B.  ch K(f) is Q times a
    W0-alternant of that degree, and Q raises the odd degree by 0 to m*n, so
    ch K(f) lives in [slice_lo, slice_hi = slice_lo + m*n]; L(f) is a
    quotient of K(f), so ch L(f) does too.  Each oracle route moves every
    cross c to a value x <= c, and its term (a relocation's Kac coordinate,
    a lattice point's alternant) has odd degree slice_lo + sum(c - x), which
    Q only raises.  So a term whose displacement sum(c - x) exceeds m*n
    ends above slice_hi: the budget m*n bounds both oracle enumerations.
    """
    crosses, less = f.crosses, f.less_positions
    slice_lo = -sum(crosses) - sum(less)
    m, n = len(crosses) + len(f.greater_positions), len(crosses) + len(less)
    return slice_lo, slice_lo + m * n


def _kac_tail(f: WeightDiagram, window: Window | None) -> CharPoly:
    """ch K(chi) = Q * ch L0(chi), and by Weyl's formula ch L0(chi) is
    J(e^(chi+rho)) over the tail's denominator.  Q is W0-invariant, so
    ch K(chi) is the alternation tail on one term, the Kac coordinate
    omega = chi + rho, over the slice (_slice), which holds every term."""
    m, n = f.m, f.n
    omega = chi_plus_rho_exponent(weight_from_diagram(f))
    return _expand_blocks(m, n, _tail_blocks(m, n, {omega: 1}, *_slice(f)), window)


def kac_char(f: WeightDiagram) -> CharPoly:
    """Character of the Kac module of a diagram: the alternation tail shared
    with the formula engine and both oracles, on one Kac coordinate
    (_kac_tail).  `verify --only kac` and the tests check it against the
    alternant form, whose odd factor is the full product q_odd_product."""
    return _kac_tail(f, None)


def kac_char_window(f: WeightDiagram, window: Window) -> CharPoly:
    """Kac character restricted to a window: the shared tail on its one Kac
    coordinate (_kac_tail), whose expansion keeps only the weights inside
    the window."""
    return _kac_tail(f, window)


# ---------------------------------------------------------------------------
# irreducible characters

def auto_depth(chi: HighestWeight) -> int:
    """The depth the paper's truncated geometric series would need, reported
    in the JSON output; the engine expands no series (g0_blocks).  It is
    m*n + max(spread + 5, nu), spread the distance from the largest shifted
    label down to the smallest cross, nu the total distance of the crosses
    to their segment maxima, and never below the series bound, the slice top
    (the odd degree of chi + rho, plus m*n) minus the numerator's lowest odd
    degree.  A term
    t^e of theta sits at chi + rho + shift + sum_i e_i alpha_i, and each
    alpha_i = eps - delta has odd degree -1.  Classic: the exponents are
    <= 0 and the constant term is 1 (only the empty subgraph keeps every
    vertex at its component minimum; the alpha_i are independent, so
    nothing cancels it), so the bound is exactly m*n.  Reduced: the shift
    sum_i nu_i alpha_i lowers the odd degree by nu = sum_i nu_i, and
    theta-tilde's exponents are <= 0 and only raise it, so the bound is at
    most m*n + nu.
    """
    f = diagram_of_weight(chi)
    crosses = f.crosses
    spread = (max(ab_from_diagram(f).A) - min(crosses)) if crosses else 0
    nu = sum(top - c for c, top in segment_data(f).tilde_c.items())
    return chi.m * chi.n + max(spread + 5, nu)


def irreducible_char(chi: HighestWeight, variant: str = "classic",
                     depth: int | str = "auto") -> CharPoly:
    """Character of the irreducible module with highest weight chi: the
    expansion of its g0 blocks (g0_blocks).

    variant 'classic' sums over every spanning subgraph of the nesting
    forest; 'reduced' keeps only non-special edges and compensates with the
    segment shift.  depth has no effect, as no series is truncated; it is
    still checked to be 'auto' or a non-negative int.
    """
    if depth != "auto":
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise ValueError(f"depth must be 'auto' or an int, not {depth!r}")
        if depth < 0:
            raise ValueError("depth must be non-negative")
    return _expand_blocks(chi.m, chi.n, g0_blocks(chi, variant))


def engine_summand_count(chi: HighestWeight, variant: str = "classic") -> int:
    """Number of subgraph summands the chosen engine touches: one per subset
    of the nesting forest's edges (classic) or of its special edges (reduced)."""
    f = diagram_of_weight(chi)
    forest = gamma(cap_diagram(f))
    if variant == "classic":
        return 1 << len(forest.edges)
    return 1 << len(special_edges(forest, segment_data(f)))


def variant_theta(f: WeightDiagram, variant: str
                  ) -> tuple[ThetaPoly, int, tuple[int, ...]]:
    """(theta, nu, shift) of a variant: the classic theta, nu = 0 and no
    shift, or the reduced theta-tilde with its segment shift (theta_tilde).
    Raises ValueError on an unknown variant, or on a weight whose nesting
    forest the reduced formula does not support."""
    forest = gamma(cap_diagram(f))
    if variant == "classic":
        return theta(forest), 0, (0,) * len(f.crosses)
    if variant != "reduced":
        raise ValueError(f"unknown variant {variant!r}")
    sd = segment_data(f)
    if not reduced_formula_supported(forest, sd):
        raise ValueError(
            "reduced variant unsupported: a non-special edge of the "
            "nesting forest leaves the core subforest (use the classic "
            "variant for this weight)")
    return theta_tilde(forest, sd)


def _numerator(chi: HighestWeight, variant: str
               ) -> tuple[dict[Vec, object], tuple[Vec, ...], int, int]:
    """e^top * theta(-e^alpha): its terms, the atypical roots, and the
    odd-degree slice of the character (_slice)."""
    m, n = chi.m, chi.n
    f = diagram_of_weight(chi)
    vecs = position_exponents(f)
    alphas = tuple(vecs[c] for c in f.crosses)
    th, nu, shift_coeffs = variant_theta(f, variant)
    global_sign = -1 if nu % 2 else 1

    top = chi_plus_rho_exponent(chi)
    top = tuple(t + sum(s * a[k] for s, a in zip(shift_coeffs, alphas))
                for k, t in enumerate(top))

    num: dict[Vec, object] = {}
    for exps, coeff in th.terms.items():
        vec = list(top)
        for i, e in enumerate(exps):
            for k in range(m + n):
                vec[k] += e * alphas[i][k]
        sign = -1 if sum(exps) % 2 else 1
        _acc(num, tuple(vec), coeff * sign * global_sign)
    return num, alphas, *_slice(f)


def g0_blocks(chi: HighestWeight, variant: str = "classic") -> dict[Vec, int]:
    """The g0 blocks {omega: c} of L(chi): ch L(chi) is the sum of
    c * ch L0(omega - rho) over them, c the multiplicity of the gl(m)+gl(n)
    irreducible L0(omega - rho) (Kac 1977), omega folded.

    Why no series is needed.  The paper writes D * ch L = J(X) with X =
    e^top theta(-e^alpha) / prod_i (1 + e^{-alpha_i}) over the atypical
    roots alpha_i, each factor a geometric series, and D = e^rho *
    prod_even (1 - e^{-alpha}) / Q, Q the product of the m*n odd binomials
    (1 + e^{-beta}).  Every step of a series raises the odd degree by one,
    and W0 keeps the odd degree.  So the series, their W0-images and Q all
    lie in one ring: Laurent series whose odd degree is bounded below, with
    finitely many terms in each degree.  In that ring J(X) * Q = J(X * Q),
    as Q is W0-invariant, and Q contains each atypical binomial, so X * Q =
    e^top theta(-e^alpha) * Q' with Q' the product of the other binomials:
    a finite product.  Hence e^rho * prod_even (1 - e^{-alpha}) * ch L =
    J(_numerator * Q'), and by Weyl's formula each folded term e^omega of
    J(...) over that denominator is ch L0(omega - rho).

    The tail applies Q' (_tail_blocks with paired = r).  Its slots are first
    relabelled, with the sign of the relabelling (J(sigma f * g) = sgn(sigma)
    J(f * g) for the W0-invariant Q), so that the even block lists the slots
    no root touches, folded once, then the roots' even slots in root order,
    and the odd block the roots' odd slots in root order, then the rest:
    odd column j < r is then paired with even slot m - r + j.  The
    character's odd degrees lie in its slice (_slice), so only that slice
    is kept.  Theta is scaled to ints by the lcm of its denominators; the
    scale is divided out of each block, and a remainder is a bug
    (InvariantError).
    """
    m, n = chi.m, chi.n
    num, alphas, slice_lo, slice_hi = _numerator(chi, variant)
    scale = lcm(*(c.denominator for c in num.values()))
    pairs = [(alpha.index(1), alpha.index(-1)) for alpha in alphas]
    roots = {s for pair in pairs for s in pair}
    order = ([s for s in range(m) if s not in roots] + [i for i, _ in pairs]
             + [j for _, j in pairs] + [s for s in range(m, m + n) if s not in roots])
    sign, _ = _sort_desc_signed(tuple(-s for s in order))  # order's parity
    free = m - len(pairs)
    terms: dict[Vec, int] = {}
    for v, c in num.items():
        w = tuple(v[s] for s in order)
        head_sign, head = _sort_desc_signed(w[:free])
        if head_sign:
            _acc(terms, head + w[free:], head_sign * sign * int(c * scale))
    blocks: dict[Vec, int] = {}
    for omega, c in _tail_blocks(m, n, terms, slice_lo, slice_hi, paired=len(pairs)).items():
        q, rem = divmod(c, scale)
        if rem:
            raise InvariantError(
                f"g0 block {omega} has the non-integer multiplicity {c}/{scale}")
        blocks[omega] = q
    return blocks


# ---------------------------------------------------------------------------
# structural checks

def is_w0_symmetric(p: CharPoly) -> bool:
    """Invariance under permutations acting separately on the two blocks."""
    m, n = p.m, p.n
    swaps = [(i, i + 1) for i in range(m - 1)]
    swaps += [(m + j, m + j + 1) for j in range(n - 1)]
    for a, b in swaps:
        for v, c in p.terms.items():
            w = list(v)
            w[a], w[b] = w[b], w[a]
            if p.terms.get(tuple(w), 0) != c:
                return False
    return True


def supersymmetry_check(p: CharPoly) -> bool:
    """Membership test for the image of the character map: the polynomial must
    be symmetric in each block, and for every pair (i, j) the combination
    x_i d/dx_i + y_j d/dy_j must vanish under the substitution x_i -> -y_j."""
    if not is_w0_symmetric(p):
        return False
    m, n = p.m, p.n
    for i in range(m):
        for j in range(n):
            folded: dict[Vec, object] = {}
            for v, c in p.terms.items():
                weight = v[i] + v[m + j]
                if weight == 0:
                    continue
                w = list(v)
                w[m + j] += w[i]
                sign = -1 if w[i] % 2 else 1
                w[i] = 0
                _acc(folded, tuple(w), c * weight * sign)
            if folded:
                return False
    return True


def dimension_eval(p: CharPoly) -> int:
    """Sum of coefficients; characters must give a (positive) integer."""
    total = p.eval_at_ones()
    if total.denominator != 1:
        raise ArithmeticError(f"non-integer coefficient sum {total}")
    return int(total)


def highest_term_ok(p: CharPoly, chi: HighestWeight) -> bool:
    """The exponent of chi carries coefficient 1 and dominates the support in
    the height order."""
    top = tuple(chi.lam + chi.mu)
    if p.coefficient(top) != 1:
        return False
    h = _ht(top)
    return all(_ht(v) <= h for v in p.terms)
