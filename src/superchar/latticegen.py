"""The order polyhedron of a nesting forest, its lattice points, and the
strict-chain partition check.

A forest with labels c_1 < ... < c_r cuts out the region x_i <= c_i with
x_i <= x_j along every edge.  Its vertices are the spanning subgraphs, and
capgraph.theta sums their tangent cones; enumerate_lattice lists its lattice
points above a cutoff, which the lattice oracle sums instead.  By Brion's
theorem the two sums agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capgraph import Edge, Forest


@dataclass(frozen=True)
class OrderPolyhedron:
    """Order region bounded above in every coordinate.

    bounds[i] is the upper bound of coordinate i; chain_edges (i, j) impose
    x_i <= x_j.
    """

    dim: int
    bounds: dict[int, int]
    chain_edges: frozenset[Edge]

    def __post_init__(self):
        if set(self.bounds) != set(range(self.dim)):
            raise ValueError(f"every coordinate of 0..{self.dim - 1} needs a bound")
        for i, j in self.chain_edges:
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"chain edge ({i},{j}) out of range")

    def contains(self, point: tuple[int, ...]) -> bool:
        if len(point) != self.dim:
            return False
        for i, b in self.bounds.items():
            if point[i] > b:
                return False
        return all(point[i] <= point[j] for i, j in self.chain_edges)


def polyhedron_of_forest(forest: Forest) -> OrderPolyhedron:
    """One coordinate per cross, bounded by that cross, with
    x_parent <= x_child along the forest edges."""
    return OrderPolyhedron(
        dim=len(forest.labels),
        bounds={i: forest.labels[i] for i in range(len(forest.labels))},
        chain_edges=forest.edges)


def enumerate_lattice(poly: OrderPolyhedron, cutoff: int) -> list[tuple[int, ...]]:
    """All integer points with every coordinate >= cutoff, lexicographic;
    the cutoff makes the downward-unbounded region finite."""
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
        lo, hi = cutoff, poly.bounds[i]
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
