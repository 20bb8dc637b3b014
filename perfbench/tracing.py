"""Spans around the library's public functions, installed from outside.

A ``Tracer`` wraps each function in ``TARGETS`` on every module binding that
holds it (``from`` imports copy the binding into ``cli``, ``oracle``,
``superchar`` and the benchmark's own modules), records one span per call
with its parent span, and restores the original bindings on exit.  The
recursive ``gt_multiplicity`` is never wrapped: its counts come from
``cache_info()``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from superchar.charring import gt_multiplicity


def _terms(obj) -> int:
    return len(obj.terms)


# (module, function, {stat: counter(args, result)}) for every wrapped function
TARGETS = (
    ("charring", "irreducible_char", {"terms_out": lambda a, r: _terms(r)}),
    ("charring", "alt_J", {"terms_in": lambda a, r: _terms(a[0]), "terms_out": lambda a, r: _terms(r)}),
    ("charring", "divide_exact", {"terms_in": lambda a, r: _terms(a[0])}),
    ("charring", "kac_char", {}),
    ("charring", "supersymmetry_check", {}),
    ("charring", "kac_char_window", {"nonzero": lambda a, r: int(bool(r.terms))}),
    ("oracle", "oracle_char", {}),
    ("oracle", "enumerate_weight_maps", {"maps": lambda a, r: len(r)}),
    ("oracle", "oracle_char_lattice", {}),
    ("oracle", "orthogonality_report", {}),
    ("latticegen", "enumerate_lattice", {"points": lambda a, r: len(r)}),
    ("caps", "cap_diagram", {}),
    ("caps", "projective_family", {"members": lambda a, r: len(r)}),
    ("capgraph", "theta", {}),
    ("capgraph", "subgraphs", {"count": lambda a, r: len(r)}),
    ("capgraph", "theta_tilde", {}),
    ("capgraph", "linear_extensions", {}),
    ("weights", "diagram_of_weight", {}),
    ("cli", "main", {}),
)

# Per-layer metrics reported by the benchmark, with their units.
LAYER_METRICS = {
    "charring.irreducible_char.calls": "count",
    "charring.irreducible_char.self_s": "s",
    "charring.irreducible_char.terms_out": "count",
    "charring.alt_J.calls": "count",
    "charring.alt_J.self_s": "s",
    "charring.alt_J.terms_in": "count",
    "charring.alt_J.terms_out": "count",
    "charring.divide_exact.calls": "count",
    "charring.divide_exact.self_s": "s",
    "charring.divide_exact.terms_in": "count",
    "charring.kac_char.calls": "count",
    "charring.kac_char.self_s": "s",
    "charring.supersymmetry_check.self_s": "s",
    "charring.kac_char_window.calls": "count",
    "charring.kac_char_window.self_s": "s",
    "charring.gt_multiplicity.hit_ratio": "ratio",
    "oracle.oracle_char.calls": "count",
    "oracle.oracle_char.self_s": "s",
    "oracle.enumerate_weight_maps.calls": "count",
    "oracle.enumerate_weight_maps.self_s": "s",
    "oracle.enumerate_weight_maps.maps": "count",
    "oracle.kac_sum.useful_ratio": "ratio",
    "oracle.oracle_char_lattice.self_s": "s",
    "latticegen.enumerate_lattice.calls": "count",
    "latticegen.enumerate_lattice.self_s": "s",
    "latticegen.enumerate_lattice.points": "count",
    "oracle.orthogonality_report.self_s": "s",
    "caps.cap_diagram.calls": "count",
    "caps.cap_diagram.self_s": "s",
    "caps.projective_family.calls": "count",
    "caps.projective_family.self_s": "s",
    "caps.projective_family.members": "count",
    "capgraph.theta.calls": "count",
    "capgraph.theta.self_s": "s",
    "capgraph.subgraphs.self_s": "s",
    "capgraph.subgraphs.count": "count",
    "capgraph.theta_tilde.self_s": "s",
    "capgraph.linear_extensions.calls": "count",
    "capgraph.linear_extensions.self_s": "s",
    "weights.diagram_of_weight.calls": "count",
    "weights.diagram_of_weight.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.residual_s": "s",
    "frontier_solved": "count",
}


class Tracer:
    """In-memory span log: one ``[name, start, end, parent]`` per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn, stats: dict):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), None, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for stat, measure in stats.items():
                counts[f"{name}.{stat}"] += measure(args, result)
                if parent >= 0:
                    counts[f"{name}.{stat}@{spans[parent][0]}"] += measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        for module, func, stats in TARGETS:
            original = getattr(importlib.import_module(f"superchar.{module}"), func)
            wrapper = self._wrap(f"{module}.{func}", original, stats)
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for attr, value in list(namespace.items()):
                    if value is original:
                        namespace[attr] = wrapper
                        self._restore.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            namespace[attr] = original
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed by name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return dict(out)

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass; the run fills in the
        run-level ``trace.overhead_s`` and ``frontier_solved``."""
        selfs = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        values: dict[str, float] = {}
        for metric in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "self_s":
                values[metric] = selfs.get(layer, 0.0)
            elif stat == "calls":
                values[metric] = calls[layer]
            else:
                values[metric] = self.counts[metric]
        info = gt_multiplicity.cache_info()
        lookups = info.hits + info.misses
        values["charring.gt_multiplicity.hit_ratio"] = info.hits / lookups if lookups else 0.0
        maps = self.counts["oracle.enumerate_weight_maps.maps@oracle.oracle_char"]
        useful = self.counts["charring.kac_char_window.nonzero@oracle.oracle_char"]
        values["oracle.kac_sum.useful_ratio"] = useful / maps if maps else 0.0
        values["trace.wall_s"] = wall_s
        values["trace.residual_s"] = wall_s - sum(selfs.values())
        return values

    def dump(self, path) -> None:
        """Write the span log as JSON: names, then [name index, start, end, parent]."""
        names = sorted({span[0] for span in self.spans})
        index = {name: k for k, name in enumerate(names)}
        rows = [[index[n], round(s, 7), round(e, 7), p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
