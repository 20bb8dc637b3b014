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
        for i, j in self.edges:
            if i not in vs or j not in vs:
                raise ValueError(f"edge ({i},{j}) leaves the vertex set")
            if self.labels[i] >= self.labels[j]:
                raise ValueError(f"edge ({i},{j}) must point to the larger label")
        # a simple graph has |V| - |E| components exactly when it has no cycle
        if len(_components(vs, self.edges)) != len(vs) - len(self.edges):
            raise ValueError("edges form a cycle (ignoring orientation)")

    @property
    def r(self) -> int:
        return len(self.vertices)

    def components(self) -> list[tuple[int, ...]]:
        """Connected components (orientation ignored), each sorted, in order."""
        return _components(self.vertices, self.edges)

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


def _components(verts, edges) -> list[tuple[int, ...]]:
    """Connected components of (verts, edges), orientation ignored, each
    sorted, in the order of their first vertex in verts."""
    root = {v: v for v in verts}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, j in edges:
        root[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for v in verts:
        comps.setdefault(find(v), []).append(v)
    return [tuple(sorted(c)) for c in comps.values()]


def _subtree_size_product(verts, edges) -> int:
    """Product of the subtree sizes of an out-forest on verts."""
    parent = {j: i for i, j in edges}
    children: dict[int, list[int]] = {}
    for i, j in edges:
        children.setdefault(i, []).append(j)
    order = [v for v in verts if v not in parent]
    for v in order:  # breadth first from the roots; the list grows as it is read
        order.extend(children.get(v, ()))
    size = dict.fromkeys(verts, 1)
    for v in reversed(order):
        if v in parent:
            size[parent[v]] += size[v]
    return prod(size.values())


def linear_extensions_hook(forest: Forest) -> int:
    """Hook-length count r!/prod(subtree sizes); edges must point away from roots."""
    if not is_out_forest(forest):
        raise ValueError("hook formula needs edges oriented away from the roots")
    denom = _subtree_size_product(forest.vertices, forest.edges)
    count, rem = divmod(factorial(forest.r), denom)
    if rem:
        raise InvariantError(
            f"hook product {denom} does not divide {forest.r}!")
    return count


def linear_extensions_dp(forest: Forest) -> int:
    """Topological-sort count by dynamic programming over down-sets."""
    return _downset_count(forest.vertices, forest.edges)


def _downset_count(verts: tuple[int, ...], edges) -> int:
    """Orderings of verts with i before j for every edge (i, j), counted layer
    by layer over the down-sets (bitmasks of the vertices placed so far) of
    each size; a directed cycle leaves a layer empty and raises ValueError."""
    bit = {v: 1 << k for k, v in enumerate(verts)}
    need = dict.fromkeys(bit.values(), 0)
    for i, j in edges:
        need[bit[j]] |= bit[i]
    ways = {0: 1}
    for _ in verts:
        grown: dict[int, int] = {}
        for placed, w in ways.items():
            for b, pre in need.items():
                if not placed & b and pre & placed == pre:
                    grown[placed | b] = grown.get(placed | b, 0) + w
        if not grown:
            raise ValueError("graph has a directed cycle")
        ways = grown
    return sum(ways.values())


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
            {e: c if isinstance(c, Fraction) else Fraction(c)
             for e, c in self.terms.items() if c})

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
    mask, and every per-vertex quantity is a column over all 2^|E| masks at
    once.  Labels grow along every edge, so vertex index order is a
    topological order.  A forward pass over the edges in child order sets the
    column of how far j sits above its component minimum from its parent i's
    finished column (its own label gap on the masks keeping the edge, 0 on
    the others, where j is a root and so carries the smallest label of its
    component).  A backward pass adds each child's subtree-size column into
    its parent's on the masks keeping the edge, after the child's is final.
    Every kept subgraph is a rooted forest with edges pointing away from its
    roots, so by the hook-length formula it has r! / prod(subtree sizes)
    linear extensions, an integer: the numerators over r! are summed exactly
    as integers and the coefficient is (-1)^|mask| / prod(subtree sizes).
    """
    labels = forest.labels
    r = len(labels)
    v = _second_parent(forest)
    if v is not None:
        raise ValueError(f"vertex {v} has two parents; theta needs a nesting forest")
    # (mask bit, parent, child) in child order; bit k is the k-th sorted edge
    walk = sorted(((1 << k, i, j) for k, (i, j) in enumerate(sorted(forest.edges))),
                  key=lambda e: e[2])
    masks = range(1 << len(walk))
    ones = [1] * len(masks)
    depth = [[0] * len(masks)] * r  # columns are replaced, never changed in place
    size = {i: ones for _, i, _ in walk}
    for bit, i, j in walk:
        gap = labels[i] - labels[j]
        depth[j] = [d + gap if m & bit else 0 for m, d in zip(masks, depth[i])]
    for bit, i, j in reversed(walk):
        size[i] = [a + b if m & bit else a
                   for m, a, b in zip(masks, size[i], size.get(j, ones))]
    rfact = factorial(r)
    numerators: dict[tuple[int, ...], int] = {}
    # with no vertex there is one mask, on the empty monomial; the ones
    # column gives the product 1 when there is no edge
    rows = zip(*depth) if r else [()]
    for m, exps, p in zip(masks, rows, map(prod, zip(ones, *size.values()))):
        count = rfact // p
        numerators[exps] = numerators.get(exps, 0) + (-count if m.bit_count() & 1 else count)
    coeffs = {c: Fraction(c, rfact) for c in set(numerators.values())}
    return ThetaPoly(r, {e: coeffs[c] for e, c in numerators.items()})


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
        """Orderings of the vertices with i before j for every edge (i, j),
        counted per connected component: the product of the component counts
        times the ways to interleave the components, r! / prod |C|!.  A tree
        component whose vertices all have at most one predecessor (an
        out-tree) or all at most one successor (an in-tree, the reverse of an
        out-tree with as many orderings) counts |C|! / prod(subtree sizes) by
        the hook-length formula; any other goes to _downset_count."""
        comps = _components(range(len(self.labels)), self.edges)
        where = {v: k for k, comp in enumerate(comps) for v in comp}
        inner: list[list[Edge]] = [[] for _ in comps]
        for e in self.edges:
            inner[where[e[0]]].append(e)
        num, den = factorial(len(self.labels)), 1
        for comp, es in zip(comps, inner):
            if not es:
                continue
            tree = len(es) == len(comp) - 1
            if tree and len({j for _, j in es}) == len(es):
                den *= _subtree_size_product(comp, es)
            elif tree and len({i for i, _ in es}) == len(es):
                den *= _subtree_size_product(comp, [(j, i) for i, j in es])
            else:
                num *= _downset_count(comp, es)
                den *= factorial(len(comp))
        return num // den


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
