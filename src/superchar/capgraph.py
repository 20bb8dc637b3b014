"""Nesting forests of cap diagrams, linear-extension counts, and the theta
polynomials that aggregate vertex-cone contributions of the order polyhedron.

The classic polynomial runs over all edge subsets of the forest (one per
polyhedron vertex); the reduced variant keeps every non-special edge, reverses
the part of each subgraph lying outside the core subforest, and compensates
with a monomial shift (nu, gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .caps import CapForest, SegmentData
from .weights import InvariantError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Forest:
    """Directed graph, acyclic even ignoring orientation, on labelled vertices.

    labels[i] is the cross position of vertex i (strictly increasing); edges
    are vertex-index pairs.  vertices defaults to all of range(len(labels));
    an induced subgraph may restrict it.
    """

    labels: tuple[int, ...]
    edges: frozenset[Edge]
    vertices: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.vertices:
            object.__setattr__(self, "vertices", tuple(range(len(self.labels))))
        vs = set(self.vertices)
        if any(self.labels[i] >= self.labels[i + 1] for i in range(len(self.labels) - 1)):
            raise ValueError("labels must be strictly increasing")
        root = {v: v for v in self.vertices}

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for i, j in self.edges:
            if i not in vs or j not in vs:
                raise ValueError(f"edge ({i},{j}) leaves the vertex set")
            if self.labels[i] >= self.labels[j]:
                raise ValueError(f"edge ({i},{j}) must point to the larger label")
            ri, rj = find(i), find(j)
            if ri == rj:
                raise ValueError("edges form a cycle (ignoring orientation)")
            root[ri] = rj

    @property
    def r(self) -> int:
        return len(self.vertices)

    def components(self) -> list[tuple[int, ...]]:
        """Connected components (orientation ignored), each sorted, in order."""
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        out: list[tuple[int, ...]] = []
        left = set(self.vertices)
        for v in self.vertices:
            if v not in left:
                continue
            comp, stack = set(), [v]
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(adj[u] - comp)
            left -= comp
            out.append(tuple(sorted(comp)))
        return out

    def component_count(self) -> int:
        return len(self.components())


def gamma(cf: CapForest) -> Forest:
    """Covering graph of the cap-nesting order: vertex i is the i-th cross,
    an edge joins each cross to the crosses immediately nested under it."""
    crosses = cf.crosses
    index = {c: i for i, c in enumerate(crosses)}
    edges = {(index[cf.parent[b]], index[b])
             for b in crosses if cf.parent[b] is not None}
    return Forest(crosses, frozenset(edges))


def subgraphs(forest: Forest) -> list[Forest]:
    """All 2^|E| spanning subgraphs (same vertices, any edge subset)."""
    edge_list = sorted(forest.edges)
    out = []
    for mask in range(1 << len(edge_list)):
        kept = frozenset(e for k, e in enumerate(edge_list) if mask >> k & 1)
        out.append(Forest(forest.labels, kept, forest.vertices))
    return out


def _component_min_vertex(delta: Forest) -> dict[int, int]:
    """vertex -> the vertex carrying the minimal label of its component."""
    out: dict[int, int] = {}
    for comp in delta.components():
        mv = min(comp, key=lambda v: delta.labels[v])
        for v in comp:
            out[v] = mv
    return out


def _second_parent(forest: Forest) -> int | None:
    """A vertex with two incoming edges, or None when there is none."""
    children: set[int] = set()
    for _, j in forest.edges:
        if j in children:
            return j
        children.add(j)
    return None


def is_out_forest(forest: Forest) -> bool:
    """True when every vertex has at most one incoming edge."""
    return _second_parent(forest) is None


def linear_extensions_hook(forest: Forest) -> int:
    """Hook-length count r!/prod(subtree sizes); edges must point away from roots."""
    if not is_out_forest(forest):
        raise ValueError("hook formula needs edges oriented away from the roots")
    children: dict[int, list[int]] = {v: [] for v in forest.vertices}
    indeg = {v: 0 for v in forest.vertices}
    for i, j in forest.edges:
        children[i].append(j)
        indeg[j] += 1

    sizes: dict[int, int] = {}

    def size(v: int) -> int:
        if v not in sizes:
            sizes[v] = 1 + sum(size(c) for c in children[v])
        return sizes[v]

    denom = 1
    for v in forest.vertices:
        denom *= size(v)
    count, rem = divmod(factorial(forest.r), denom)
    if rem:
        raise InvariantError(
            f"hook product {denom} does not divide {forest.r}!")
    return count


def linear_extensions_dp(forest: Forest) -> int:
    """Topological-sort count by dynamic programming over down-sets."""
    return _downset_count(forest.vertices, forest.edges)


def _downset_count(verts: tuple[int, ...], edges) -> int:
    """Orderings of verts with i before j for every edge (i, j), counted over
    the down-sets already placed; a directed cycle raises ValueError."""
    preds: dict[int, set[int]] = {v: set() for v in verts}
    for i, j in edges:
        preds[j].add(i)

    @lru_cache(maxsize=None)
    def count(placed: frozenset) -> int:
        if len(placed) == len(verts):
            return 1
        total = 0
        for v in verts:
            if v in placed or not preds[v] <= placed:
                continue
            total += count(placed | {v})
        if total == 0:
            raise ValueError("graph has a directed cycle")
        return total

    result = count(frozenset())
    count.cache_clear()
    return result


def linear_extensions(forest: Forest) -> int:
    """Number of vertex orderings compatible with every edge direction."""
    if is_out_forest(forest):
        return linear_extensions_hook(forest)
    return linear_extensions_dp(forest)


@dataclass(frozen=True)
class ThetaPoly:
    """Laurent polynomial in t_1..t_r with exact rational coefficients."""

    r: int
    terms: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        object.__setattr__(
            self, "terms",
            {e: Fraction(c) for e, c in self.terms.items() if c != 0})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Graded (total degree), then lexicographic, descending."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def coefficient(self, exponents: tuple[int, ...]) -> Fraction:
        return self.terms.get(exponents, Fraction(0))

    def eval_at_ones(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __mul__(self, other: "ThetaPoly") -> "ThetaPoly":
        if self.r != other.r:
            raise ValueError("variable counts differ")
        prod: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod[e] = prod.get(e, Fraction(0)) + c1 * c2
        return ThetaPoly(self.r, prod)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = " ".join(f"t{i + 1}^{e}" for i, e in enumerate(exps) if e)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)} {mono}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(chunks)


def embed_disjoint(left: Forest, right: Forest) -> Forest:
    """Disjoint union, translating the right forest's labels above the left's.

    Uniform translation keeps every within-component label difference, so the
    theta polynomial of the union factors over the two pieces.
    """
    if not left.labels or not right.labels:
        raise ValueError("both forests must be non-empty")
    offset = max(0, left.labels[-1] + 1 - right.labels[0])
    shift = len(left.labels)
    labels = left.labels + tuple(c + offset for c in right.labels)
    edges = set(left.edges) | {(i + shift, j + shift) for i, j in right.edges}
    return Forest(labels, frozenset(edges))


def theta(forest: Forest) -> ThetaPoly:
    """Alternating sum over spanning subgraphs: each contributes its extension
    count over r!, signed by edge parity, on the monomial recording how far
    every vertex sits above its component minimum.

    The input is a nesting forest: every vertex has at most one parent (a
    vertex with two raises ValueError).  A spanning subgraph is then an edge
    mask, walked without building it.  Labels grow along every edge, so
    vertex index order is a topological order.  A forward pass over the kept
    edges in child order sets root[j] = root[i] after root[i] is final; the
    root of a component is its only vertex without a kept parent, so it
    carries the component's smallest label.  A backward pass adds each
    child's subtree size into its parent after the child's is final.  Every
    kept subgraph is a rooted forest with edges pointing away from its roots,
    so by the hook-length formula it has r! / prod(subtree sizes) linear
    extensions, an integer: the numerators over r! are summed exactly as
    integers and the coefficient is (-1)^|mask| / prod(subtree sizes).
    """
    labels = forest.labels
    r = len(labels)
    v = _second_parent(forest)
    if v is not None:
        raise ValueError(f"vertex {v} has two parents; theta needs a nesting forest")
    # (mask bit, parent, child) in child order; bit k is the k-th sorted edge
    walk = sorted(((1 << k, i, j) for k, (i, j) in enumerate(sorted(forest.edges))),
                  key=lambda e: e[2])
    back = walk[::-1]
    rfact = factorial(r)
    numerators: dict[tuple[int, ...], int] = {}
    for mask in range(1 << len(walk)):
        root = list(range(r))
        size = [1] * r
        for bit, i, j in walk:
            if mask & bit:
                root[j] = root[i]
        for bit, i, j in back:
            if mask & bit:
                size[i] += size[j]
        exps = tuple(labels[root[v]] - labels[v] for v in range(r))
        count = rfact // prod(size)
        numerators[exps] = numerators.get(exps, 0) + (
            -count if mask.bit_count() & 1 else count)
    return ThetaPoly(r, {e: Fraction(c, rfact) for e, c in numerators.items()})


def special_edges(forest: Forest, sd: SegmentData) -> frozenset[Edge]:
    """Edges whose endpoints' segment maxima strictly increase."""
    tc = sd.tilde_c
    return frozenset((i, j) for i, j in forest.edges
                     if tc[forest.labels[i]] < tc[forest.labels[j]])


def gamma0(forest: Forest, sd: SegmentData) -> Forest:
    """Induced subgraph on the vertices whose segment maximum agrees with the
    segment maximum of their component's minimal vertex."""
    tc = sd.tilde_c
    mins = _component_min_vertex(forest)
    verts = tuple(v for v in forest.vertices
                  if tc[forest.labels[v]] == tc[forest.labels[mins[v]]])
    vs = set(verts)
    edges = frozenset((i, j) for i, j in forest.edges if i in vs and j in vs)
    return Forest(forest.labels, edges, verts)


def reduced_formula_supported(forest: Forest, sd: SegmentData) -> bool:
    """The reduced expansion is derived for forests whose non-special edges all
    lie in the core subforest; outside that family the relaxed polyhedron
    acquires vertices the theta-tilde template cannot express."""
    return forest.edges - special_edges(forest, sd) <= gamma0(forest, sd).edges


def reduced_subgraphs(forest: Forest, sd: SegmentData) -> list[Forest]:
    """Spanning subgraphs keeping every non-special edge."""
    specials = sorted(special_edges(forest, sd))
    base = forest.edges - frozenset(specials)
    out = []
    for mask in range(1 << len(specials)):
        kept = set(base)
        kept.update(e for k, e in enumerate(specials) if mask >> k & 1)
        out.append(Forest(forest.labels, frozenset(kept), forest.vertices))
    return out


@dataclass(frozen=True)
class MixedForest:
    """Edge orientations may disagree with the label order; only used to count
    linear extensions of partially reversed subgraphs."""

    labels: tuple[int, ...]
    edges: frozenset[Edge]

    def extension_count(self) -> int:
        return _downset_count(tuple(range(len(self.labels))), self.edges)


def theta_tilde(forest: Forest, sd: SegmentData) -> tuple[ThetaPoly, int, tuple[int, ...]]:
    """Reduced theta polynomial plus the compensating shift data.

    Every non-special edge is kept; edges outside the core subforest are
    reversed before counting extensions and contribute the sign.  Exponents
    are read off the segment maxima.  Returns (polynomial, nu,
    gamma_coefficients) where nu is the total distance of crosses to their
    segment maxima and the coefficient vector expands the shift over the
    atypical roots.
    """
    r = len(forest.labels)
    rfact = factorial(r)
    tc = sd.tilde_c
    core = gamma0(forest, sd).edges
    terms: dict[tuple[int, ...], Fraction] = {}
    for delta in reduced_subgraphs(forest, sd):
        flipped = delta.edges - core
        star_edges = (delta.edges - flipped) | {(j, i) for i, j in flipped}
        ext = MixedForest(delta.labels, frozenset(star_edges)).extension_count()
        mins = _component_min_vertex(delta)
        exps = tuple(tc[delta.labels[mins[i]]] - tc[delta.labels[i]]
                     for i in range(r))
        coeff = Fraction((-1) ** len(flipped) * ext, rfact)
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    shift = tuple(tc[c] - c for c in forest.labels)
    return ThetaPoly(r, terms), sum(shift), shift
