"""The traced benchmark run wraps package functions by module and name
(``LAYERS`` in ``perfbench/tracing.py``); every pair must resolve, so a
move that would break ``perfbench/run.py --trace 1`` fails here first.

The list is read with ``ast`` rather than imported, so the test leaves
``perfbench/`` untouched."""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS list in {TRACING}")


def test_traced_layers_resolve():
    layers = _layers()
    assert layers
    for mod, fn in layers:
        module = importlib.import_module(f"quiverstrata.{mod}")
        assert callable(getattr(module, fn, None)), f"quiverstrata.{mod}.{fn}"
