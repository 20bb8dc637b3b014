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
    # scales them to ints and divides back exactly, so characters, the
    # character ring and the CLI carry ints
    users = sorted(path.name for path in SRC.glob("*.py")
                   if any(name.split(".")[0] == "fractions" for name in _imported_modules(path)))
    assert users == ["capgraph.py"]
