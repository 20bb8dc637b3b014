"""Workload inputs, operations and output checks for the superchar benchmark.

Inputs are weight diagrams written as shape strings over the integer line:
``x`` a cross, ``>`` an even-only label, ``<`` an odd-only label, ``o`` a
circle.  Character workloads draw weights, each a shape translated by an
offset, from cost-matched pools (``pools.json``, made by ``survey.py``), so
every seed gives the same number of inputs per stratum at nearly the same
cost.  Forest workloads draw diagrams directly and keep those whose
nesting forest has the stratum's edge count.

Everything here runs the library through its public functions only; the
library is imported from ``<root>/src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from superchar import cli
from superchar.charring import CharPoly, Window, irreducible_char, supersymmetry_check
from superchar.oracle import oracle_char, oracle_char_lattice
from superchar.weights import (
    CROSS,
    GREATER,
    LESS,
    HighestWeight,
    WeightDiagram,
    diagram_of_weight,
    weight_from_diagram,
)

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SHIFTS = range(-3, 4)
SUITES = ("kac", "oracle", "variants", "orthogonality", "supersymmetry", "theta-mult")
_SYMBOL = {"x": CROSS, ">": GREATER, "<": LESS}


@dataclass(frozen=True)
class Stratum:
    """One cell of a stratified draw: gl(m|n) weights of atypicality r whose
    diagrams span ``spans`` positions (endpoints included).  Each seed draws
    ``count`` weights from a cost-matched pool of ``pool`` weights."""

    name: str
    m: int
    n: int
    r: int
    spans: tuple[int, ...]
    count: int
    pool: int
    variant: str = "classic"


# Counts are chosen so that one pass costs a few seconds and the median
# operation falls inside a cost-matched stratum (gl(3|2), atypicality 1).  The
# strata that set a workload's slowest operations have pools of one weight, so
# op_max_s does not depend on the draw.
CHAR_STRATA = (
    Stratum("gl22-r1", 2, 2, 1, (3, 4, 5), 3, 4),
    Stratum("gl22-r2", 2, 2, 2, (2, 3, 4, 5), 3, 2),
    Stratum("gl22-r2-reduced", 2, 2, 2, (2, 3, 4, 5), 2, 2, "reduced"),
    Stratum("gl32-r1", 3, 2, 1, (4, 5), 8, 8),
    Stratum("gl32-r2", 3, 2, 2, (3, 4, 5), 3, 4),
    Stratum("gl32-r2-reduced", 3, 2, 2, (3, 4, 5), 2, 3, "reduced"),
    Stratum("gl33-r1", 3, 3, 1, (5,), 2, 4),
    Stratum("gl33-r2", 3, 3, 2, (4,), 1, 3),
    Stratum("gl33-r3", 3, 3, 3, (3,), 1, 1),
)

ORACLE_STRATA = (
    Stratum("gl22-r1", 2, 2, 1, (3, 4, 5), 3, 4),
    Stratum("gl22-r2", 2, 2, 2, (2, 3, 4, 5), 3, 1),
    Stratum("gl32-r1", 3, 2, 1, (4, 5), 7, 8),
    Stratum("gl32-r2", 3, 2, 2, (3, 4, 5), 4, 4),
    Stratum("gl33-r1-wide", 3, 3, 1, (5,), 1, 1),
    Stratum("gl33-r2-wide", 3, 3, 2, (4, 5), 1, 1),
)


@dataclass(frozen=True)
class ForestStratum:
    """Diagrams with r crosses and ``cores`` core symbols whose nesting forest
    has exactly ``edges`` edges, ``specials`` of them special (the reduced
    theta sums over 2^specials subgraphs); each gives one theta, reduced
    theta, proj and diagram operation.  With ``pool`` set, the shapes come
    from a seed-independent pool of that size and the seed only picks and
    moves them."""

    name: str
    r: int
    edges: int
    specials: int
    cores: int
    count: int
    pool: int = 0


# With these counts the cheaper half of the 36 operations is diagram and
# reduced theta calls, so the median operation is a classic theta on r=8.
# The r=12 proj calls are the slowest operations; their shapes are fixed so
# that op_max_s does not depend on the draw.
FOREST_STRATA = (
    ForestStratum("r8-e6", 8, 6, 2, 2, 4),
    ForestStratum("r10-e8", 10, 8, 2, 3, 3),
    ForestStratum("r12-e10", 12, 10, 3, 3, 2, pool=2),
)
FOREST_COMMANDS = (("theta",), ("theta", "--variant", "reduced"), ("proj",), ("diagram",))

# Weights past the engine's reach today; each runs once per char-ladder run in
# its own process with FRONTIER_BUDGET_S seconds.
FRONTIER = {
    "gl43-trivial": (4, 3, (0, 0, 0, 0), (0, 0, 0)),
    "gl44-trivial": (4, 4, (0, 0, 0, 0), (0, 0, 0, 0)),
    "gl44-r4": (4, 4, (2, 1, 1, 1), (-1, -1, -1, -2)),
}
FRONTIER_BUDGET_S = 5.0


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI argv (``kind`` 'cli') or a weight checked
    against both oracles (``kind`` 'oracle')."""

    stratum: str
    kind: str
    argv: tuple[str, ...] = ()
    weight: tuple = ()

    def label(self) -> str:
        return " ".join(self.argv) if self.kind == "cli" else f"oracle {self.weight}"


# ---------------------------------------------------------------------------
# shapes and weights

def shape_diagram(shape: str, shift: int = 0) -> WeightDiagram:
    return WeightDiagram({i + shift: _SYMBOL[s] for i, s in enumerate(shape) if s != "o"})


def shape_weight(shape: str, shift: int) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(m, n, lambda, mu) of a translated shape."""
    chi = weight_from_diagram(shape_diagram(shape, shift))
    return chi.m, chi.n, chi.lam, chi.mu


def load_pools() -> dict:
    return json.loads((HERE / "pools.json").read_text())["pools"]


def weight_args(m, n, lam, mu) -> tuple[str, ...]:
    return ("--m", str(m), "--n", str(n),
            "--lambda", ",".join(map(str, lam)), "--mu", ",".join(map(str, mu)))


def _draw_pool(rng: random.Random, pool: list[list], count: int) -> list[tuple[str, int]]:
    """``count`` (shape, shift) weights from a stratum's pool, without repeats
    while the pool lasts."""
    picks = rng.sample(pool, count) if count <= len(pool) else rng.choices(pool, k=count)
    return [(shape, shift) for shape, shift in picks]


def char_ladder(seed: int) -> list[Op]:
    pools = load_pools()["char-ladder"]
    rng = random.Random(f"char-ladder:{seed}")
    ops = []
    for st in CHAR_STRATA:
        for shape, shift in _draw_pool(rng, pools[st.name], st.count):
            argv = ("char",) + weight_args(*shape_weight(shape, shift))
            if st.variant != "classic":
                argv += ("--variant", st.variant)
            ops.append(Op(st.name, "cli", argv + ("--format", "json")))
    return ops


def oracle_check(seed: int) -> list[Op]:
    pools = load_pools()["oracle-check"]
    rng = random.Random(f"oracle-check:{seed}")
    return [Op(st.name, "oracle", weight=shape_weight(shape, shift))
            for st in ORACLE_STRATA
            for shape, shift in _draw_pool(rng, pools[st.name], st.count)]


def verify_grid(seed: int) -> list[Op]:
    del seed  # the CLI's own fixed grids
    return [Op(name, "cli", ("verify", "--only", name, "--format", "json"))
            for name in SUITES]


def forest_stats(shape: str) -> tuple[int, int]:
    """(edges, special edges) of the nesting forest of a shape.

    Each cross takes the first free circle on its right, rightmost cross
    first; an edge joins a cross to the tightest cap enclosing it, and is
    special when the maximum of its parent's run of consecutive crosses is
    below that of its child's.
    """
    cells = list(shape) + ["o"] * (2 * shape.count("x") + 1)
    cap: dict[int, int] = {}
    for a in reversed([i for i, s in enumerate(cells) if s == "x"]):
        c = a + 1
        while cells[c] != "o" or c in cap.values():
            c += 1
        cap[a] = c
    top: dict[int, int] = {}
    for a in sorted(cap, reverse=True):
        top[a] = top[a + 1] if a + 1 in cap else a
    edges = specials = 0
    for b in cap:
        enclosing = [a for a in cap if a < b and cap[b] < cap[a]]
        if enclosing:
            edges += 1
            specials += top[max(enclosing)] < top[b]
    return edges, specials


def draw_forest_shape(rng: random.Random, st: ForestStratum) -> str:
    """Rejection-sample a shape with the stratum's cross, core, edge and
    special-edge counts."""
    width = 2 * st.r + st.cores
    while True:
        slots = sorted(rng.sample(range(width), st.r + st.cores))
        if slots[0] != 0:
            continue
        symbols = ["x"] * st.r + [rng.choice("<>") for _ in range(st.cores)]
        rng.shuffle(symbols)
        cells = ["o"] * (slots[-1] + 1)
        for pos, s in zip(slots, symbols):
            cells[pos] = s
        shape = "".join(cells)
        if forest_stats(shape) == (st.edges, st.specials):
            return shape


def ab_arg(shape: str, shift: int) -> str:
    a = [i + shift for i, s in enumerate(shape) if s in "x>"]
    b = [i + shift for i, s in enumerate(shape) if s in "x<"]
    return ",".join(map(str, sorted(a, reverse=True))) + ":" + ",".join(map(str, b))


def forest_wide(seed: int) -> list[Op]:
    rng = random.Random(f"forest-wide:{seed}")
    ops = []
    for st in FOREST_STRATA:
        if st.pool:
            fixed = random.Random(f"forest-wide:{st.name}")
            shapes = rng.sample([draw_forest_shape(fixed, st) for _ in range(st.pool)], st.count)
        else:
            shapes = [draw_forest_shape(rng, st) for _ in range(st.count)]
        for shape in shapes:
            ab = ab_arg(shape, rng.choice(SHIFTS))
            for cmd in FOREST_COMMANDS:
                ops.append(Op(st.name, "cli", (cmd[0], "--ab", ab) + cmd[1:] + ("--format", "json")))
    return ops


WORKLOADS = {
    "char-ladder": char_ladder,
    "oracle-check": oracle_check,
    "verify-grid": verify_grid,
    "forest-wide": forest_wide,
}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)


# Cheap strata whose default-seed outputs are re-checked against their
# recorded digests on every run, whatever the run's seed.
PROBE_STRATA = {
    "char-ladder": ("gl22-r1", "gl22-r2", "gl22-r2-reduced", "gl32-r1", "gl32-r2", "gl32-r2-reduced"),
    "forest-wide": ("r8-e6",),
}


def probe_ops(workload: str) -> list[Op]:
    return [op for op in build(workload, DEFAULT_SEED)
            if op.stratum in PROBE_STRATA.get(workload, ())]


def frontier_op(name: str) -> Op:
    return Op(name, "cli", ("char",) + weight_args(*FRONTIER[name]) + ("--format", "json"))


# ---------------------------------------------------------------------------
# running one operation

def run_op(op: Op):
    """Execute an operation; returns its output (CLI stdout, or the three
    characters).  Raises on a non-zero exit code."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    chi = HighestWeight(*op.weight)
    ch = irreducible_char(chi)
    window = Window.hull(ch, margin=1)
    f = diagram_of_weight(chi)
    return ch, oracle_char(f, window), oracle_char_lattice(f, window)


# ---------------------------------------------------------------------------
# output checks (outside the timed region)

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def check_char_json(text: str) -> str | None:
    """Seed-independent checks of a ``char --format json`` output."""
    payload = json.loads(text)
    m, n = payload["m"], payload["n"]
    dim = payload["dimension"]
    if not isinstance(dim, int) or dim < 1:
        return f"dimension {dim!r} is not a positive integer"
    terms = {tuple(t["eps"] + t["delta"]): Fraction(t["coeff"]) for t in payload["monomials"]}
    if sum(terms.values()) != dim:
        return "coefficient sum differs from the dimension"
    if terms.get(tuple(payload["lambda"] + payload["mu"])) != 1:
        return "highest-weight coefficient is not 1"
    if not supersymmetry_check(CharPoly(m, n, terms)):
        return "supersymmetry check fails"
    return None


def check_op(op: Op, output, golden: dict, seed: int) -> str | None:
    """None when the output is right, else a one-line reason."""
    if op.kind == "oracle":
        ch, kac_sum, lattice = output
        if kac_sum != ch:
            return "Kac-sum oracle disagrees with the engine"
        if lattice != ch:
            return "lattice oracle disagrees with the engine"
        return None
    cmd = op.argv[0]
    if cmd == "verify":
        suite = json.loads(output)["suites"][op.argv[2]]
        want = golden["verify-grid"][op.argv[2]]
        got = {k: suite.get(k) for k in want}
        if not suite["ok"] or got != want:
            return f"suite reports ok={suite['ok']} {got}, want {want}"
        return None
    if seed == golden["seed"]:
        want = golden["outputs"].get(op.label())
        if want != digest(output):
            return "output digest differs from the recorded one"
    if cmd == "char":
        return check_char_json(output)
    a_text, b_text = op.argv[2].split(":")
    r = len(set(a_text.split(",")) & set(b_text.split(",")))
    payload = json.loads(output)
    if cmd == "proj" and len(payload) != 2 ** r:
        return f"projective family has {len(payload)} members, want 2^{r}"
    if cmd == "diagram" and payload["atypicality"] != r:
        return f"atypicality {payload['atypicality']}, want {r}"
    if cmd == "theta" and payload["variables"] != r:
        return f"theta has {payload['variables']} variables, want {r}"
    return None
