"""The package names the benchmark binds, read from its source and resolved.

A deletion in src/ that the benchmark still names would fail only a traced
benchmark run, long after the change; here it fails tier-1.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer_targets() -> dict:
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py binds no TARGETS")


def _bench_imports() -> list[tuple[str, str]]:
    """(module, name) for every ``from hodgehalf.X import name`` in bench/."""
    return sorted({(node.module, alias.name)
                   for path in BENCH.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom) and node.module
                   and node.module.startswith("hodgehalf.")
                   for alias in node.names})


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in _tracer_targets().items()
    for name in names])
def test_every_tracer_target_resolves(layer, name):
    # the tracer wraps a dotted name in the class's own __dict__
    home = importlib.import_module(f"hodgehalf.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        assert attr in vars(getattr(home, cls_name)), name
    else:
        assert callable(getattr(home, name)), name


def test_every_name_the_bench_imports_resolves():
    imports = _bench_imports()
    assert ("hodgehalf.cli", "main") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)
