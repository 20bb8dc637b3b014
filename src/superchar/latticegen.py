"""Order polyhedra attached to nesting forests: vertices, tangent cones, and
brute-force lattice enumeration used as a verification oracle.

A forest with labels c_1 < ... < c_r cuts out the region x_i <= c_i with
x_i <= x_j along every edge.  Its vertices correspond one-to-one with the
spanning subgraphs; each tangent cone carries a scalar (extension count over
r!) and a monomial, which is all the character formula needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .capgraph import Edge, Forest, _component_min_vertex, linear_extensions, subgraphs
from .weights import InvariantError


@dataclass(frozen=True)
class OrderPolyhedron:
    """Bounded-above order region, with optional pinned coordinates.

    bounds[i] is the upper bound of coordinate i; pinned maps a coordinate to
    the single value it may take (used for the full-dimensional view where
    core symbols are frozen at their positions); chain_edges (i, j) impose
    x_i <= x_j.
    """

    dim: int
    bounds: dict[int, int]
    chain_edges: frozenset[Edge]
    pinned: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for i in range(self.dim):
            if (i in self.bounds) == (i in self.pinned):
                raise ValueError(f"coordinate {i} must be bounded or pinned, not both")
        for i, j in self.chain_edges:
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"chain edge ({i},{j}) out of range")

    def contains(self, point: tuple[int, ...]) -> bool:
        if len(point) != self.dim:
            return False
        for i, b in self.bounds.items():
            if point[i] > b:
                return False
        for i, v in self.pinned.items():
            if point[i] != v:
                return False
        return all(point[i] <= point[j] for i, j in self.chain_edges)


def polyhedron_of_forest(forest: Forest) -> OrderPolyhedron:
    """Cross-space region of a nesting forest."""
    return OrderPolyhedron(
        dim=len(forest.labels),
        bounds={i: forest.labels[i] for i in range(len(forest.labels))},
        chain_edges=forest.edges)


@dataclass(frozen=True)
class ConeDescriptor:
    """Tangent-cone generating data at one vertex: a rational scalar, the
    numerator exponents (component minimum per coordinate), and one
    (1 - t_i^-1) denominator factor per coordinate."""

    vertex: tuple[int, ...]
    scalar: Fraction
    numerator_exp: tuple[int, ...]
    denominator_vars: tuple[int, ...]


def vertices(forest: Forest) -> list[tuple[Forest, tuple[int, ...]]]:
    """One vertex per spanning subgraph: coordinate i sits at the minimal
    label of its subgraph component.  The points are pairwise distinct."""
    out: list[tuple[Forest, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for delta in subgraphs(forest):
        mins = _component_min_vertex(delta)
        point = tuple(delta.labels[mins[i]] for i in range(len(delta.labels)))
        if point in seen:
            raise InvariantError(f"vertex {point} duplicated")
        seen.add(point)
        out.append((delta, point))
    return out


def tangent_cone(delta: Forest) -> tuple[list[tuple[int, int]], list[Edge]]:
    """Active inequalities at the vertex of delta: one upper bound per
    component minimum, one chain inequality per edge.

    Returns (bounds as (coordinate, limit) pairs, chain edges).
    """
    mins = _component_min_vertex(delta)
    bound_list = sorted({(mins[i], delta.labels[mins[i]]) for i in delta.vertices})
    return bound_list, sorted(delta.edges)


def cone_genfun(delta: Forest) -> ConeDescriptor:
    """Scalar |extensions|/r!, numerator exponents, denominators (1 - t_i^-1)."""
    r = len(delta.labels)
    mins = _component_min_vertex(delta)
    point = tuple(delta.labels[mins[i]] for i in range(r))
    scalar = Fraction(linear_extensions(delta), factorial(r))
    return ConeDescriptor(vertex=point, scalar=scalar, numerator_exp=point,
                          denominator_vars=tuple(range(r)))


def enumerate_lattice(poly: OrderPolyhedron, cutoff: int) -> list[tuple[int, ...]]:
    """All integer points with every free coordinate >= cutoff, lexicographic.

    Pinned coordinates keep their fixed value regardless of the cutoff; the
    cutoff exists to make the downward-unbounded region finite.
    """
    for i, b in poly.bounds.items():
        if cutoff > b:
            return []

    succ: dict[int, list[int]] = {i: [] for i in range(poly.dim)}
    pred: dict[int, list[int]] = {i: [] for i in range(poly.dim)}
    for i, j in poly.chain_edges:
        succ[i].append(j)
        pred[j].append(i)

    out: list[tuple[int, ...]] = []
    point: list[int] = [0] * poly.dim

    def fill(i: int):
        if i == poly.dim:
            out.append(tuple(point))
            return
        if i in poly.pinned:
            lo = hi = poly.pinned[i]
        else:
            hi = poly.bounds[i]
            lo = cutoff
        # chain constraints against already-placed coordinates
        for j in pred[i]:
            if j < i:
                lo = max(lo, point[j])
        for j in succ[i]:
            if j < i:
                hi = min(hi, point[j])
        for v in range(lo, hi + 1):
            point[i] = v
            fill(i + 1)

    fill(0)
    return out


def strict_region_of(point: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation sigma (as the tuple sigma(0..r-1)) sorting the point
    strictly, ties broken by coordinate index."""
    order = sorted(range(len(point)), key=lambda i: (point[i], i))
    sigma = [0] * len(point)
    for rank, i in enumerate(order):
        sigma[i] = rank
    return tuple(sigma)


def extension_permutations(forest: Forest) -> list[tuple[int, ...]]:
    """All sigma with sigma(i) < sigma(j) along every edge, as tuples."""
    from itertools import permutations

    verts = forest.vertices
    out = []
    for perm in permutations(range(len(verts))):
        sigma = dict(zip(verts, perm))
        if all(sigma[i] < sigma[j] for i, j in forest.edges):
            out.append(tuple(perm))
    return out


@dataclass(frozen=True)
class ChainDecompositionReport:
    ok: bool
    total_points: int
    diagonal_points: int
    region_counts: dict[tuple[int, ...], int]


def chain_decomposition_report(forest: Forest, bound: int,
                               window: int) -> ChainDecompositionReport:
    """Check that the bounded cone's lattice points split across the strict
    chain regions, one per edge-compatible permutation.

    Points with repeated coordinates fall in no strictly-ordered region; they
    are assigned by the index tie-break and counted separately so the
    discrepancy is visible rather than silently absorbed.
    """
    r = len(forest.labels)
    poly = OrderPolyhedron(dim=r, bounds={i: bound for i in range(r)},
                           chain_edges=forest.edges)
    points = enumerate_lattice(poly, window)
    sigmas = set(extension_permutations(forest))
    region_counts: dict[tuple[int, ...], int] = {s: 0 for s in sorted(sigmas)}
    diagonal = 0
    ok = True
    for p in points:
        strict_hits = [s for s in sigmas if _in_strict_region(p, s)]
        if len(set(p)) < len(p):
            diagonal += 1
            if strict_hits:
                ok = False  # a tied point must not satisfy strict inequalities
            assigned = strict_region_of(p)
            if assigned not in sigmas:
                ok = False
            else:
                region_counts[assigned] += 1
        else:
            if len(strict_hits) != 1:
                ok = False
            else:
                region_counts[strict_hits[0]] += 1
    # every strictly-ordered point of every region must lie in the cone
    for s in sigmas:
        for p in _strict_region_points(s, bound, window):
            if not poly.contains(p):
                ok = False
    if sum(region_counts.values()) != len(points):
        ok = False
    return ChainDecompositionReport(ok, len(points), diagonal, region_counts)


def chain_decomposition_check(forest: Forest, bound: int, window: int = -8) -> bool:
    return chain_decomposition_report(forest, bound, window).ok


def _in_strict_region(point: tuple[int, ...], sigma: tuple[int, ...]) -> bool:
    order = sorted(range(len(point)), key=lambda i: sigma[i])
    return all(point[order[k]] < point[order[k + 1]] for k in range(len(order) - 1))


def _strict_region_points(sigma: tuple[int, ...], bound: int,
                          window: int) -> list[tuple[int, ...]]:
    r = len(sigma)
    order = sorted(range(r), key=lambda i: sigma[i])
    out: list[tuple[int, ...]] = []
    values: list[int] = [0] * r

    def fill(k: int, lo: int):
        if k == r:
            point = [0] * r
            for rank, i in enumerate(order):
                point[i] = values[rank]
            out.append(tuple(point))
            return
        for v in range(lo, bound + 1):
            values[k] = v
            fill(k + 1, v + 1)

    fill(0, window)
    return out
