"""Rebuild ``pools.json``: time weights of each character stratum and keep a
few of equal cost near the stratum's median.

A weight is a shape moved by a shift in ``SHIFTS``; the shift alone changes an
operation's cost by up to a quarter, so pools hold (shape, shift) pairs.
Cost-matched pools keep a pass's cost nearly the same for every seed, so the
end-to-end metrics measure the program rather than the draw.  Run from the
repository root (about ten minutes):

    python3 perfbench/survey.py
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from itertools import combinations, permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from worker import REF_SLICE_S, reference_slice  # noqa: E402
from superchar import charring  # noqa: E402
from superchar.capgraph import gamma, reduced_formula_supported  # noqa: E402
from superchar.caps import cap_diagram, segment_data  # noqa: E402

TOLERANCE = 0.06   # pooled weights cost within 6% of the pool's centre
MAX_WEIGHTS = 24   # strata with more (shape, shift) pairs are sampled
ROUNDS = 3         # cold-cache timings per weight, best kept; one above LONG_S
LONG_S = 1.0


def clear_caches() -> None:
    for fn in (charring.q_odd_product, charring._signed_perms,
               charring._schur_block, charring.gt_multiplicity):
        fn.cache_clear()


def enumerate_shapes(st: wl.Stratum) -> list[str]:
    """Every shape of the stratum: m+n-r symbols with both ends occupied."""
    symbols = "x" * st.r + ">" * (st.m - st.r) + "<" * (st.n - st.r)
    k = len(symbols)
    out = set()
    for span in st.spans:
        for inner in combinations(range(1, span - 1), k - 2):
            slots = (0,) + inner + (span - 1,)
            for perm in set(permutations(symbols)):
                cells = ["o"] * span
                for pos, s in zip(slots, perm):
                    cells[pos] = s
                out.add("".join(cells))
    return sorted(out)


def shape_op(st: wl.Stratum, shape: str, shift: int, kind: str) -> wl.Op:
    weight = wl.shape_weight(shape, shift)
    if kind == "oracle":
        return wl.Op(st.name, "oracle", weight=weight)
    argv = ("char",) + wl.weight_args(*weight) + ("--variant", st.variant, "--format", "json")
    return wl.Op(st.name, "cli", argv)


def timed_once(op: wl.Op) -> float:
    """Cold-cache time of one run in reference seconds: scaled, as the
    benchmark scales it, by the reference slices just before and after."""
    clear_caches()
    before = reference_slice()
    start = time.perf_counter()
    wl.run_op(op)
    seconds = time.perf_counter() - start
    return seconds * 2 * REF_SLICE_S / (before + reference_slice())


def costs_of(ops: dict) -> dict:
    """Best cold-cache time of each operation over ROUNDS round-robin rounds,
    so a slow spell of the machine does not single out one weight."""
    best = {key: timed_once(op) for key, op in ops.items()}
    for _ in range(ROUNDS - 1):
        for key, op in ops.items():
            if best[key] < LONG_S:
                best[key] = min(best[key], timed_once(op))
    return best


def median_cluster(timed: dict, size: int) -> list:
    """``size`` weights around the cost nearest the stratum's median at which
    that many weights agree within TOLERANCE (the ``size`` weights nearest the
    median if no such cost exists)."""
    mid = statistics.median(timed.values())
    ranked = sorted(timed, key=lambda s: abs(timed[s] - mid))
    for centre in ranked:
        near = [s for s in ranked if abs(timed[s] / timed[centre] - 1) <= TOLERANCE]
        if len(near) >= size:
            near.sort(key=lambda s: abs(timed[s] / timed[centre] - 1))
            return sorted(near[:size])
    return sorted(ranked[:size])


def supported(shape: str) -> bool:
    f = wl.shape_diagram(shape)
    return reduced_formula_supported(gamma(cap_diagram(f)), segment_data(f))


def survey(strata, kind: str) -> tuple[dict, dict]:
    pools, costs = {}, {}
    for st in strata:
        shapes = enumerate_shapes(st)
        if st.variant == "reduced":
            shapes = [s for s in shapes if supported(s)]
        weights = [(shape, shift) for shape in shapes for shift in wl.SHIFTS]
        if len(weights) > MAX_WEIGHTS:
            weights = sorted(random.Random(st.name).sample(weights, MAX_WEIGHTS))
        timed = costs_of({w: shape_op(st, *w, kind) for w in weights})
        pools[st.name] = [list(w) for w in median_cluster(timed, st.pool)]
        costs[st.name] = [[shape, shift, round(t, 4)] for (shape, shift), t in sorted(timed.items())]
        print(f"{kind:6s} {st.name:16s} weights={len(weights):3d} pool costs "
              f"{[round(timed[tuple(w)], 4) for w in pools[st.name]]}", flush=True)
    return pools, costs


def main() -> None:
    char_pools, char_costs = survey(wl.CHAR_STRATA, "char")
    oracle_pools, oracle_costs = survey(wl.ORACLE_STRATA, "oracle")
    out = {
        "note": f"per stratum, [shape, shift] weights at the cost level nearest the median at "
                f"which the pool's weights agree within {TOLERANCE:.0%}; costs in reference "
                f"seconds, best of {ROUNDS} cold-cache runs (one above {LONG_S:g} s)",
        "pools": {"char-ladder": char_pools, "oracle-check": oracle_pools},
        "costs": {"char-ladder": char_costs, "oracle-check": oracle_costs},
    }
    (wl.HERE / "pools.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
