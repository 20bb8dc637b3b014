"""The benchmark harness under perfbench/ looks functions up in superchar by
name: the traced functions in tracing.TARGETS, the caches survey.clear_caches
empties, and its `from superchar... import` lines.  perfbench/ is outside the
default test paths, so these checks keep a rename or deletion in src/ from
breaking a traced run or the survey unseen.  The files are parsed, never
imported or run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _resolve(module, name):
    """What `from module import name` binds: an attribute or a submodule."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def test_traced_targets_resolve():
    [targets] = [node.value for node in ast.walk(_tree("tracing.py"))
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    names = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert len(names) >= 19
    for module, func in names:
        assert callable(_resolve(f"superchar.{module}", func)), (module, func)


def test_survey_caches_resolve():
    [clear] = [node for node in ast.walk(_tree("survey.py"))
               if isinstance(node, ast.FunctionDef) and node.name == "clear_caches"]
    caches = [node.attr for node in ast.walk(clear)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "charring"]
    assert len(caches) == 4
    for name in caches:
        assert callable(_resolve("superchar.charring", name).cache_clear), name


def test_perfbench_imports_resolve():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "superchar"):
                for alias in node.names:
                    assert _resolve(node.module, alias.name) is not None, (path.name, alias.name)
