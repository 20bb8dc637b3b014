"""One benchmark pass in a fresh interpreter, so every pass starts with the
library's caches as a new ``superchar`` process has them.

Prints ``ready`` once the library is imported and the inputs are built, then
runs every operation once, checks the outputs outside the timed region and
prints one JSON line.  Before, between and after the operations, outside
their timings, it runs a fixed reference slice that does not touch the
library.  Each operation's ``speed`` is ``REF_SLICE_S`` over the mean time of
the slices just before and just after it: the machine's speed while the
operation ran, against a quiet machine.
``run.py`` starts it; the modes are

    worker.py pass WORKLOAD SEED [--trace] [--spans FILE]
    worker.py setup WORKLOAD SEED       (reference slices only after ``ready``)
    worker.py probe WORKLOAD            (default-seed golden subset)
    worker.py frontier NAME             (one frontier weight, no time limit)
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


# Time of ``reference_slice`` on a quiet 2-core 2.1 GHz x86-64 VM under
# CPython 3.  Slices that take twice as long mean a machine half as fast.
REF_SLICE_S = 0.012
SLICE_EVERY_S = 0.25   # operation time between two reference slices
SETUP_SLICES = 5


def reference_slice() -> float:
    """Seconds taken by a fixed stdlib-only product of two sparse polynomials
    held as dicts keyed by exponent tuples, the kind of work the library
    does.  It touches nothing of ``superchar`` and runs with the cyclic
    garbage collector off, so that it never walks the library's heap: no
    change to the library can move it; only the machine's speed does."""
    gc.disable()
    try:
        start = time.perf_counter()
        a = {(i, i % 13, i % 11, i % 7): i * 7919 for i in range(300)}
        b = {(i % 17, i, i % 5, i % 3): i * 104729 for i in range(40)}
        out: dict = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, 0) + va * vb
        return time.perf_counter() - start
    finally:
        gc.enable()


def timed_pass(ops: list, tracer=None) -> tuple[dict, list, dict[int, str]]:
    """Run every operation once, with reference slices before the first, after
    the last and after every SLICE_EVERY_S of operation time; returns
    (timings, outputs, errors).  ``wall_s`` leaves the slices out."""
    latencies, speeds, outputs, errors = [], [], [], {}
    first = previous = reference_slice()
    clock = time.perf_counter
    with tracer.installed() if tracer else contextlib.nullcontext():
        group = 0.0
        for k, op in enumerate(ops):
            t0 = clock()
            try:
                outputs.append(wl.run_op(op))
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append(None)
                errors[k] = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
            group += latencies[-1]
            if group >= SLICE_EVERY_S or k == len(ops) - 1:
                after = reference_slice()
                speeds += [2 * REF_SLICE_S / (previous + after)] * (k + 1 - len(speeds))
                previous, group = after, 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": sum(latencies), "latencies": latencies, "speeds": speeds,
            "setup_speed": REF_SLICE_S / first, "rss_mb": rss_mb}, outputs, errors


def check(ops: list, outputs: list, errors: dict[int, str], seed: int | None) -> dict[int, str]:
    """Reasons for every failed operation, keyed by its index."""
    golden = wl.load_golden()
    for k, (op, output) in enumerate(zip(ops, outputs)):
        if k not in errors:
            reason = wl.check_op(op, output, golden, seed)
            if reason:
                errors[k] = reason
    return {k: f"{ops[k].label()}: {why}" for k, why in errors.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["pass", "setup", "probe", "frontier"])
    parser.add_argument("name")
    parser.add_argument("seed", nargs="?", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    if args.mode == "frontier":
        ops, seed = [wl.frontier_op(args.name)], None
    elif args.mode == "probe":
        ops, seed = wl.probe_ops(args.name), wl.DEFAULT_SEED
    else:
        ops, seed = wl.build(args.name, args.seed), args.seed
    print("ready", flush=True)
    reference_slice()  # untimed: the first slice also pays for first-touch page faults
    if args.mode == "setup":
        slices = [reference_slice() for _ in range(SETUP_SLICES)]
        print(json.dumps({"setup_speed": REF_SLICE_S / statistics.mean(slices)}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    result, outputs, errors = timed_pass(ops, tracer)
    if tracer is not None:
        result["layers"] = tracer.summary(result["wall_s"])
        if args.spans:
            tracer.dump(args.spans)
    result["failures"] = check(ops, outputs, errors, seed)
    result["ops"] = len(ops)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
