"""The lattice points of a nesting forest's order polyhedron within a
displacement budget, and the strict-chain partition check.

A forest with labels c_1 < ... < c_r cuts out the region x_i <= c_i with
x_i <= x_j along every edge.  Its vertices are the spanning subgraphs, and
capgraph.theta sums their tangent cones; enumerate_lattice lists its lattice
points of total displacement sum(c_i - x_i) at most a budget, which the
lattice oracle sums instead.  By Brion's theorem the two sums agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .capgraph import Forest


def enumerate_lattice(forest: Forest, budget: int) -> list[tuple[int, ...]]:
    """All integer points x of the forest's order polyhedron with
    sum(labels[i] - x_i) <= budget, lexicographic; the budget makes the
    downward-unbounded region finite.

    Every edge (i, j) points to the larger label, so i < j and x_j's lower
    bound x_i is placed before it.  Each later coordinate spends
    labels[j] - x_j >= 0, so the budget bounds each value below by
    labels[i] - (budget - spent): the list is the unbudgeted one, filtered.
    """
    if budget < 0:
        raise ValueError("the displacement budget must not be negative")
    labels = forest.labels
    parents: list[list[int]] = [[] for _ in labels]
    for i, j in forest.edges:
        parents[j].append(i)

    out: list[tuple[int, ...]] = []
    point: list[int] = [0] * len(labels)

    def fill(i: int, spent: int):
        if i == len(labels):
            out.append(tuple(point))
            return
        c = labels[i]
        lo = c - (budget - spent)
        for j in parents[i]:
            lo = max(lo, point[j])
        for v in range(lo, c + 1):
            point[i] = v
            fill(i + 1, spent + c - v)

    fill(0, 0)
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

    def in_cone(p: tuple[int, ...]) -> bool:
        return all(p[i] <= p[j] for i, j in forest.edges)

    points = [p for p in product(range(window, bound + 1), repeat=r) if in_cone(p)]
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
            if not in_cone(p):
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
