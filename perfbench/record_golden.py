"""Rebuild ``golden.json``: output digests of the default seed's char-ladder
and forest-wide operations, and the counts each verify suite reports.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def main() -> None:
    outputs = {}
    for workload in ("char-ladder", "forest-wide"):
        for op in wl.build(workload, wl.DEFAULT_SEED):
            outputs[op.label()] = wl.digest(wl.run_op(op))
    suites = {}
    for op in wl.verify_grid(wl.DEFAULT_SEED):
        suite = json.loads(wl.run_op(op))["suites"][op.stratum]
        suites[op.stratum] = {k: v for k, v in suite.items() if k not in ("ok", "seconds")}
    golden = {"seed": wl.DEFAULT_SEED, "outputs": outputs, "verify-grid": suites}
    (wl.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
