"""The benchmark's stdout digests, checked in the test suite: each of the
four workloads of ``perfbench/workloads.py``, built with seed 1, runs one
pass through ``quiverstrata.cli.main``, and the sha256 of its outputs,
formed by ``perfbench/run.py``'s ``digest``, must equal the constant
below.  Every seed gives the same outputs, so a changed digest means a
changed output.

The constants are kept here rather than read from
``perfbench/digests.json``, whose ``oracle-loops`` entry is the digest of
outputs that have since changed.  The pass runs in a child process, as in
``test_perfbench_layers.py``, so this process imports nothing from
``perfbench/``."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "formulas": "bee9f275b12504534b62cca867e8977defeb1f0471d109cba33804cfb08164d9",
    "scan": "e53e3b106ef9d46e7b8883e354568123476b2a720af18e604abd2ef4a26564dc",
    "oracle-tally": "b58593d6b00d063e937b77a5486991df10fab68a31950d3a87769a3be514f2bf",
    "oracle-loops": "10794d67802530fb3f61fea41a98787a6dfd26e0092635ccf88c7be612db53fc",
}

# builds every workload with seed 1, writes its presentation files under
# the given directory, runs each operation once and prints the digests
ONE_PASS = """
import contextlib, io, json, random, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import quiverstrata.cli
import run
import workloads
tmp = Path(sys.argv[3])
digests = {}
for name in run.WORKLOADS:
    outputs = {}
    for k, op in enumerate(workloads.BUILDERS[name](random.Random(1)).ops):
        argv = list(op.argv)
        if op.text:
            path = tmp / f"{name}-{k}.bq"
            path.write_text(op.text, encoding="utf-8")
            argv = [str(path) if a == "{file}" else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            quiverstrata.cli.main(argv)
        outputs[op.key] = out.getvalue()
    digests[name] = run.digest(outputs)
print(json.dumps(digests))
"""


def test_workload_stdout_digests(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", ONE_PASS, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path)], capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == DIGESTS
