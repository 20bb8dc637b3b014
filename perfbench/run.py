"""superchar benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload char-ladder --seed 1 --seconds 28 --trace 0

One client, one thread, closed loop: each operation starts when the previous
one has finished.  Every pass runs the seed's whole input list once in a fresh
worker interpreter (cold library caches, as each ``superchar`` invocation
has them), and passes repeat until ``--seconds`` have gone by.  With
``--trace 0`` the last line carries the end-to-end metrics; with ``--trace 1``
half the time runs untraced and half traced, and the last line carries the
per-layer metrics.

End-to-end times are in reference seconds: each wall time is scaled by the
machine's speed while it was measured, which the worker's reference slices
give (see worker.py), so that the shared machine speeding up or slowing down
does not read as a change of the program.  The raw wall figures are printed
too.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _spawn(*args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen, timeout: float) -> dict:
    """Wait for a worker's result line; kill it (and wait) on timeout."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited with {proc.returncode}: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def run_worker(*args: str) -> tuple[float, dict]:
    """Start a worker; return (seconds until it reported ready, result)."""
    start = time.perf_counter()
    proc = _spawn(*args)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - start
    if ready != "ready\n":
        out, err = proc.communicate()
        raise WorkerError(f"worker did not start: {err.strip()}")
    return setup, _finish(proc, PASS_TIMEOUT_S)


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               setups: list[tuple[float, float]], spans: Path | None = None) -> list[dict]:
    """Passes until ``seconds`` are used up.  A pass starts only if at least
    half a pass of the run's mean length still fits, so a run lasts
    ``seconds`` give or take half a pass."""
    passes = []
    start = time.perf_counter()
    while True:
        used = time.perf_counter() - start
        if passes and used + used / len(passes) / 2 > seconds:
            return passes
        flags = ["--trace"] if trace else []
        if spans is not None and not passes:
            flags += ["--spans", str(spans)]
        setup, result = run_worker("pass", workload, str(seed), *flags)
        setups.append((setup, result["setup_speed"]))
        passes.append(result)


def run_frontier(name: str, budget: float) -> dict:
    """One frontier weight in its own process; a timeout is recorded as
    unsolved, never dropped."""
    start = time.perf_counter()
    proc = _spawn("frontier", name)
    try:
        result = _finish(proc, budget)
    except subprocess.TimeoutExpired:
        return {"name": name, "status": "timeout", "seconds": time.perf_counter() - start}
    status = "failed" if result["failures"] else "solved"
    return {"name": name, "status": status, "seconds": time.perf_counter() - start,
            "failures": result["failures"]}


def end_to_end(passes: list[dict], setups: list[tuple[float, float]],
               scaled: bool = True) -> dict[str, float]:
    """Throughput is taken over all timed passes together; an operation's
    latency is its median over the run's passes, which all run the same
    input list.  With ``scaled``, every time is first multiplied by the speed
    the worker measured around it, giving reference seconds."""
    def times(p: dict) -> list[float]:
        if not scaled:
            return p["latencies"]
        return [t * speed for t, speed in zip(p["latencies"], p["speeds"])]

    latency = [statistics.median(ts) for ts in zip(*map(times, passes))]
    return {
        "setup_s": statistics.median(t * speed if scaled else t for t, speed in setups),
        "ops_per_s": (sum(p["ops"] - len(p["failures"]) for p in passes)
                      / sum(sum(times(p)) for p in passes)),
        "op_p50_s": statistics.median(latency),
        "op_max_s": max(latency),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict], solved: int) -> dict[str, float]:
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    layers["frontier_solved"] = solved
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "superchar" / "__init__.py").is_file():
        print(f"error: no superchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setups: list[tuple[float, float]] = []
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.json"
        untraced = run_passes(args.workload, args.seed, args.seconds / 2, False, setups)
        traced = run_passes(args.workload, args.seed, args.seconds / 2, True, setups, spans)
        passes = untraced + traced
    else:
        passes = run_passes(args.workload, args.seed, args.seconds, False, setups)
    while len(setups) < SETUP_SAMPLES:
        setup, result = run_worker("setup", args.workload, str(args.seed))
        setups.append((setup, result["setup_speed"]))

    failures = [f for p in passes for f in p["failures"].values()]
    attempted = sum(p["ops"] for p in passes)
    if args.workload in wl.PROBE_STRATA:
        probe = run_worker("probe", args.workload)[1]
        attempted += probe["ops"]
        failures += probe["failures"].values()
        print(f"golden probe: {probe['ops']} default-seed outputs, "
              f"{len(probe['failures'])} differ")
    frontier = []
    if args.trace and args.workload == "char-ladder":
        frontier = [run_frontier(name, wl.FRONTIER_BUDGET_S) for name in wl.FRONTIER]
        attempted += len(frontier)
        for case in frontier:
            failures += case.get("failures", {}).values()
            print(f"frontier {case['name']}: {case['status']} after {case['seconds']:.2f} s "
                  f"(budget {wl.FRONTIER_BUDGET_S:.0f} s)")
    solved = sum(case["status"] == "solved" for case in frontier)
    for reason in failures:
        print(f"FAILED {reason}")

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{sum(p['ops'] for p in passes)} timed operations, failed_ops {len(failures)}")
    if args.trace:
        values = per_layer(untraced, traced, solved)
        units = tracing.LAYER_METRICS
        first = traced[0]["layers"]
        selfs = sum(v for k, v in first.items() if k.endswith(".self_s"))
        print(f"first traced pass: layer self times {selfs:.4f} s + residual "
              f"{first['trace.residual_s']:.4f} s = traced wall {first['trace.wall_s']:.4f} s")
    else:
        values = end_to_end(passes, setups)
        units = END_TO_END
        raw = end_to_end(passes, setups, scaled=False)
        speeds = [speed for p in passes for speed in p["speeds"]]
        print(f"machine speed against the reference: median {statistics.median(speeds):.3f} "
              f"(range {min(speeds):.3f}-{max(speeds):.3f}); raw wall figures: "
              + ", ".join(f"{name} {raw[name]:.6g}" for name in units if name in raw))
    if frontier:
        print(f"frontier_solved {solved} of {len(frontier)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
