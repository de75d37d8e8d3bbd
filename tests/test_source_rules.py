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
