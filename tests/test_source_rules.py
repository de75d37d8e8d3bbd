"""Rules on the package source itself."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ordstat").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so a check written as one vanishes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}; raise an exception instead"


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_exports_are_defined_and_declared():
    # __all__ names only what its module defines, and the package imports
    # only names that their module lists in __all__
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    undefined = [f"{mod}.{name}" for mod, tree in trees.items()
                 for name in _declared_all(tree) if name not in _top_level_names(tree)]
    assert not undefined, f"__all__ lists names its module does not define: {undefined}"
    undeclared = [f"{node.module}.{alias.name}" for node in trees["__init__"].body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names
                  if alias.name not in _declared_all(trees[node.module])]
    assert not undeclared, f"ordstat/__init__.py imports names outside __all__: {undeclared}"


def test_benchmark_tracer_names_exist():
    # the tracer patches these functions by name; a missing one breaks --trace
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{home}.{name}" for home, names, _ in tracing.LAYERS.values()
               for name in names
               if not hasattr(importlib.import_module(f"ordstat.{home}"), name)]
    assert not missing, f"perfbench/tracing.py traces missing functions: {missing}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # a deletion that leaves its import behind keeps a dead dependency;
    # __init__.py imports only to re-export
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name}: unused imports {sorted(imported - used)}"
