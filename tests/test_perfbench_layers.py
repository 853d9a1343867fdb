"""The traced benchmark run wraps package functions by module and name
(``LAYERS`` in ``perfbench/tracing.py``); every pair must resolve, so a
move that would break ``perfbench/run.py --trace 1`` fails here first.

The list is read with ``ast`` rather than imported, and the traced run
imports ``tracing`` in a child process, so the tests leave ``perfbench/``
and this process untouched."""
import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

from quiverstrata.formulas import build_case, formula_cases
from quiverstrata.linsys import assemble_system

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# installs a Tracer, runs one CLI command through it and prints the summary
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import quiverstrata.cli
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    code = quiverstrata.cli.main(sys.argv[3:])
print(json.dumps({"code": code, "summary": tracer.summary()}))
"""


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


def test_traced_run_counts_the_linear_systems():
    # the tracer reads ConstraintSystem.n_rows, ambient_dim and matrix
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "perfbench"),
         "verify-formulas", "--item", "3", "--p-max", "3", "--format", "csv"],
        capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(done.stdout)
    assert result["code"] == 0
    summary = result["summary"]
    for name in ("linsys.assemble_system.calls", "linsys.rows", "linsys.cols",
                 "linsys.nnz"):
        assert summary[name] > 0, name
    # nnz counted through the dense integer view is the sparse rows' length
    nnz = 0
    for case in formula_cases(p_max=3, items=[3]):
        h, terms, _ = build_case(case)
        nnz += sum(map(len, assemble_system(h, [terms], case.p, case.q).rows))
    assert summary["linsys.nnz"] == nnz
    # every exact rank goes through the traced kernel, so it is live code
    assert summary["kernels.exact_rank_int.calls"] == summary["linsys.rank_exact.calls"] > 0
