"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from superchar import charring, cli  # noqa: E402
from superchar.capgraph import gamma, special_edges  # noqa: E402
from superchar.caps import cap_diagram, segment_data  # noqa: E402

SEEDED = ("char-ladder", "oracle-check", "forest-wide")


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    assert wl.build(workload, 7) == wl.build(workload, 7)


@pytest.mark.parametrize("workload", SEEDED)
def test_seeds_keep_the_count_per_stratum(workload):
    builds = [wl.build(workload, seed) for seed in range(1, 6)]
    counts = [Counter(op.stratum for op in ops) for ops in builds]
    assert all(c == counts[0] for c in counts)
    assert len({tuple(ops) for ops in builds}) == len(builds)


def test_forest_stats_match_the_library():
    rng = random.Random(0)
    for st in wl.FOREST_STRATA:
        shape = wl.draw_forest_shape(rng, st)
        f = wl.shape_diagram(shape)
        forest = gamma(cap_diagram(f))
        assert len(f.crosses) == st.r
        assert len(forest.edges) == st.edges
        assert len(special_edges(forest, segment_data(f))) == st.specials


def test_frontier_timeout_is_recorded():
    case = run.run_frontier("gl44-trivial", budget=0.5)
    assert case["name"] == "gl44-trivial"
    assert case["status"] == "timeout"
    assert case["seconds"] >= 0.5


def _bindings(originals):
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            for attr, value in list(getattr(mod, "__dict__", {}).items())
            if any(value is fn for fn in originals)}


def test_wrappers_cover_every_binding_and_are_removed():
    originals = [getattr(sys.modules[f"superchar.{m}"], f) for m, f, _ in tracing.TARGETS]
    before = _bindings(originals)
    assert ("workloads", "irreducible_char") in before
    assert ("superchar", "irreducible_char") in before
    tracer = tracing.Tracer()
    with tracer.installed():
        assert not _bindings(originals)
        assert hasattr(charring.gt_multiplicity, "cache_info")
        wl.run_op(wl.Op("t", "cli", ("char", "--m", "1", "--n", "1", "--lambda", "0",
                                      "--mu", "0", "--format", "json")))
    assert _bindings(originals) == before
    assert cli.irreducible_char is charring.irreducible_char
    names = [span[0] for span in tracer.spans]
    engine = tracer.spans[names.index("charring.irreducible_char")]
    assert tracer.spans[engine[3]][0] == "cli.main"


def test_every_operation_gets_the_speed_of_its_slices():
    ops = wl.build("forest-wide", 2)[:6]
    result, outputs, errors = worker.timed_pass(ops)
    assert not errors and len(outputs) == len(ops)
    assert len(result["speeds"]) == len(result["latencies"]) == len(ops)
    assert all(0 < speed < 10 for speed in result["speeds"] + [result["setup_speed"]])
    assert result["wall_s"] == sum(result["latencies"])


def test_scaling_multiplies_each_time_by_its_speed():
    passes = [{"ops": 2, "failures": {}, "latencies": [1.0, 3.0], "speeds": [0.5, 2.0],
               "wall_s": 4.0, "rss_mb": 10.0}]
    scaled = run.end_to_end(passes, [(0.2, 0.5)] * 5)
    raw = run.end_to_end(passes, [(0.2, 0.5)] * 5, scaled=False)
    assert scaled["ops_per_s"] == 2 / 6.5 and raw["ops_per_s"] == 2 / 4.0
    assert scaled["op_max_s"] == 6.0 and raw["op_max_s"] == 3.0
    assert scaled["setup_s"] == 0.1 and raw["setup_s"] == 0.2


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert tracing.LAYER_METRICS == {m["name"]: m["unit"] for m in spec["per_layer"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "forest-wide", "--seed", "3",
             "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=150)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
