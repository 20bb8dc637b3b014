"""Design checks on the sources under src/, parsed and never imported."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "superchar"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_only_capgraph_imports_fractions():
    # theta's vertex-cone weights are the only rationals: the formula engine
    # scales them to ints and divides the scale out of each g0 block
    # exactly, so characters, the character ring and the CLI carry ints
    users = sorted(path.name for path in SRC.glob("*.py")
                   if any(name.split(".")[0] == "fractions" for name in _imported_modules(path)))
    assert users == ["capgraph.py"]


def test_only_alt_J_and_the_lattice_oracle_fold():
    # the alternation tail takes folded terms: the relocations give Kac
    # coordinates, the engine sorts its numerator's untouched even slots
    # itself, and only a plain alternant sum folds its terms whole
    users = sorted(f"{path.stem}.{node.name}" for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)
                   and any(isinstance(name, ast.Name) and name.id == "_fold"
                           for name in ast.walk(node)))
    assert users == ["charring.alt_J", "oracle.oracle_char_lattice"]


def test_only_the_expansion_reads_a_window():
    # every route cuts its sum at an odd-degree slice, and a window only
    # restricts the expansion of the g0 blocks: no other function reads a
    # window's per-slot bounds (Window's fields eps and delta)
    users = sorted(f"{path.stem}.{node.name}" for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)
                   and any(isinstance(attr, ast.Attribute) and attr.attr in ("eps", "delta")
                           for attr in ast.walk(node)))
    assert users == ["charring._expand_blocks"]


def test_no_indented_json_dumps_in_src():
    # with indent set, json.dumps runs the standard library's pure-Python
    # encoder: the CLI writes indented JSON itself and calls json.dumps
    # only on free text, where the C encoder runs
    calls = sorted(f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("dump", "dumps")
                   and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                   and any(kw.arg == "indent" for kw in node.keywords))
    assert calls == []


def test_verify_compares_blocks_not_windows():
    # the oracle and variants suites compare g0 blocks, which are equal
    # exactly when the whole characters are: the CLI never builds a window
    # or calls an oracle's windowed expansion
    tree = ast.parse((SRC / "cli.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert names.isdisjoint({"Window", "oracle_char", "oracle_char_lattice"})
