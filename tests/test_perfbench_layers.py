"""The traced benchmark run wraps package functions by module and name
(``LAYERS`` in ``perfbench/tracing.py``); every pair must resolve, so a
move that would break ``perfbench/run.py --trace 1`` fails here first.

The list is read with ``ast`` rather than imported, and the traced run
imports ``tracing`` in a child process, so the tests leave ``perfbench/``
and this process untouched."""
import ast
import csv
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

from quiverstrata.families import build_family, parse_family_spec
from quiverstrata import formulas
from quiverstrata.formulas import build_case, formula_sweep
from quiverstrata.linsys import assemble_system
from quiverstrata.quiver import serialize_presentation

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# installs a Tracer, runs CLI commands through it and prints their exit
# codes and the summary with their stdout
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import quiverstrata.cli
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [quiverstrata.cli.main(argv) for argv in json.loads(sys.argv[3])]
print(json.dumps({"codes": codes, "summary": tracer.summary(), "stdout": out.getvalue()}))
"""


def _traced_run(*commands):
    """Exit codes, summary and stdout of the command lines ``commands``,
    each a list of arguments, run in one traced child process."""
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "perfbench"),
         json.dumps(commands)], capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


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


def test_traced_run_counts_the_linear_systems(monkeypatch):
    # the tracer reads ConstraintSystem.n_rows, ambient_dim and matrix
    result = _traced_run(["verify-formulas", "--item", "3", "--p-max", "3", "--format", "csv"])
    assert result["codes"] == [0]
    summary = result["summary"]
    for name in ("linsys.assemble_system.calls", "linsys.rows", "linsys.cols",
                 "linsys.nnz"):
        assert summary[name] > 0, name
    # the sweep builds every shape it tries through the traced build_case,
    # once, and assembles each admissible one once, whatever its h; nnz
    # counted through the dense integer view is the sparse rows' length
    tried = []
    monkeypatch.setattr(formulas, "build_case", lambda *key: tried.append(key) or build_case(*key))
    rows = formula_sweep(p_max=3, items=[3])
    shapes = list(dict.fromkeys(row[:5] for row in rows))
    assert len(shapes) < len(rows)
    assert summary["formulas.build_case.calls"] == len(tried) == len(set(tried)) == len(shapes)
    assert summary["linsys.assemble_system.calls"] == len(shapes)
    nnz = 0
    for item, p, q, l, lam in shapes:
        _, terms = build_case(item, p, q, l, lam)
        nnz += sum(map(len, assemble_system(1, [terms], p, q).rows))
    assert summary["linsys.nnz"] == nnz
    # every exact rank goes through the traced kernel, so it is live code
    assert summary["kernels.exact_rank_int.calls"] == summary["linsys.rank_exact.calls"] > 0


def test_traced_run_counts_the_loop_candidates(tmp_path):
    # the tracer reads the number of matrices from enumerate_nilpotent's
    # (count, d, d) result and the points kept from the tally
    path = tmp_path / "truncpoly3.txt"
    path.write_text(serialize_presentation(build_family(parse_family_spec("truncpoly(3)"))),
                    encoding="utf-8")
    result = _traced_run(["oracle-count", "--algebra", str(path), "--dim", "3", "--q", "2"])
    assert result["codes"] == [0]
    summary = result["summary"]
    # nilpotent 3 x 3 matrices over F_2 number q^(d^2 - d) (Fine-Herstein)
    assert summary["kernels.enumerate_nilpotent.calls"] == 1
    assert summary["kernels.nilpotent.kept"] == 2 ** (3 * 3 - 3) == 64
    rows = list(csv.DictReader(io.StringIO(result["stdout"])))
    assert [row["pass"] for row in rows] == ["pass"] * 3
    assert summary["kernels.tally.points_kept"] == sum(int(row["count"]) for row in rows)


def test_traced_commands_count_their_work(tmp_path):
    """The traced run of ``perfbench/run.py --trace 1`` reads the layers'
    arguments and results: a strata, a verify-formulas and an oracle-count
    command on a presentation with a loop and a read arrow each feed the
    counters they should.  The part pairs are counted on ``stratum_dim``
    reports, which strata's rows do not build; a reduce-scan certificate
    builds two, of A(1,4,4,2) at its first certified vector (2, 4)."""
    path, reducible = tmp_path / "a1221.txt", tmp_path / "a1442.txt"
    for file, spec in ((path, "A(1,2,2,1)"), (reducible, "A(1,4,4,2)")):
        file.write_text(serialize_presentation(build_family(parse_family_spec(spec))),
                        encoding="utf-8")
    result = _traced_run(["strata", "--algebra", str(path), "--dim", "2,2"],
                         ["verify-formulas", "--item", "1", "--p", "3", "--l", "1"],
                         ["oracle-count", "--algebra", str(path), "--dim", "2,2", "--q", "2"],
                         ["reduce-scan", "--algebra", str(reducible), "--dim", "2,4"])
    assert result["codes"] == [0, 0, 0, 0]
    summary = result["summary"]
    assert summary["strata.stratum_dim.calls"] == 2
    for name in ("strata.part_pairs", "linsys.rows", "kernels.tally.points_kept",
                 "kernels.nilpotent.kept"):
        assert summary[name] > 0, name
