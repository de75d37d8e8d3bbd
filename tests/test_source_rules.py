"""Rules on the package source itself."""

import ast
import importlib.util
import re
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


def _all_node(tree: ast.Module) -> ast.Assign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return node
    return None


def _declared_all(tree: ast.Module) -> list[str]:
    node = _all_node(tree)
    return ast.literal_eval(node.value) if node else []


def test_exports_are_defined_and_declared():
    # __all__ names only what its module defines; the package star-imports
    # each module, so its public names are exactly these lists
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    undefined = [f"{mod}.{name}" for mod, tree in trees.items()
                 for name in _declared_all(tree) if name not in _top_level_names(tree)]
    assert not undefined, f"__all__ lists names its module does not define: {undefined}"


def _reads(tree: ast.AST, skip: set) -> set[str]:
    """Names loaded and attributes taken in ``tree``, outside ``skip`` nodes."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_exports_have_a_reader():
    # a public name that neither the package nor the benchmark reads is
    # surface kept for its own tests; its definition and __all__ entry do not count
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))}
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {name for _, names, _ in tracing.LAYERS.values() for name in names}
    unread = []
    for path in SOURCES:
        own = trees[path]
        elsewhere = set().union(*(_reads(t, set()) for p, t in trees.items() if p != path))
        for name in _declared_all(own):
            skip = {_all_node(own)} | {node for node in own.body if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) and node.name == name}
            if name not in traced | elsewhere | _reads(own, skip):
                unread.append(f"{path.stem}.{name}")
    assert not unread, f"__all__ names that nothing in src/ordstat or perfbench reads: {unread}"


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


def test_readme_python_example_runs(capsys):
    # the documented `from ordstat import ...` API must keep working
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README.md has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True\n")
