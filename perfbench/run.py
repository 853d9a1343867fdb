#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the quiverstrata CLI.

Run from the repository root:

    python3 perfbench/run.py --workload formulas --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs its ``quiverstrata`` command lines in-process through
``quiverstrata.cli.main`` (stdout captured, ``--jobs`` left at 1).  After
one warm-up pass, passes repeat until ``--seconds`` have gone by, with a
fixed probe timed after every operation.  Every output is checked
against values computed apart from the program (``checks.py``).  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("formulas", "scan", "oracle-tally", "oracle-loops")
SETUP_REPEATS = 5          # this process and four fresh ones
MIN_PASSES = 3


# ---------------------------------------------------------------------------
# set-up: import the package from src and build the workload's inputs
# ---------------------------------------------------------------------------

def load(workload: str, seed: int, tracer=None):
    """(seconds, workload); the tracer, if any, wraps the layers before the
    inputs are built so that ``families.build_family`` is traced too."""
    start = perf_counter()
    if not (SRC / "quiverstrata" / "__init__.py").is_file():
        raise SystemExit(f"error: no quiverstrata sources under {SRC}")
    sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    package = Path(sys.modules["quiverstrata"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise SystemExit(f"error: imported quiverstrata from {package}, not {SRC}")
    if tracer is not None:
        importlib.import_module("tracing").install(tracer)
    wl = workloads.BUILDERS[workload](random.Random(seed))
    return perf_counter() - start, wl


def setup_seconds(args, first: float) -> float:
    """Median set-up time over this process and fresh processes."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the probe: a fixed mix of the program's kinds of work
# ---------------------------------------------------------------------------

def probe() -> float:
    """Seconds taken by fixed code that does what the program does: bigint
    fraction-free elimination, ``Fraction`` matrix products, and numpy work
    of three kinds (scalar indexing as in the per-point tally, small-array
    row operations as in the rank kernel, and batched matrix products as in
    the loop enumeration).  It runs between operations, and an operation's
    time divided by the probes around it follows the program, not the
    host's speed, which here swings by up to 1.7x within seconds."""
    from fractions import Fraction

    import numpy as np

    start = perf_counter()
    x = 1
    for _ in range(40):
        rows = []
        for _ in range(14):
            rows.append([])
            for _ in range(14):
                x = x * 48271 % 2147483647
                rows[-1].append(x % 21 - 10)
        prev = 1
        for k in range(13):
            for i in range(k + 1, 14):
                for j in range(k + 1, 14):
                    rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            prev = rows[k][k] or 1
    m = [[Fraction((3 * i + 7 * j) % 5 - 2, 1 + (i + j) % 3) for j in range(6)]
         for i in range(6)]
    acc = m
    for _ in range(8):
        acc = [[sum((a * b for a, b in zip(r, col)), Fraction(0)) for col in zip(*m)]
               for r in acc]
    a = np.arange(9, dtype=np.int64).reshape(3, 3) % 5
    c = np.zeros((3, 3), np.int64)
    for _ in range(200):
        for i in range(3):
            for j in range(3):
                c[i, j] = (a[i, 0] * a[0, j] + a[i, 1] * a[1, j] + a[i, 2] * a[2, j]) % 5
    for _ in range(400):
        r = a.copy()
        r[1:] = (r[1:] - np.outer(r[1:, 0], r[0])) % 5
        (r @ a) % 5
    batch = np.arange(4096 * 9, dtype=np.int64).reshape(4096, 3, 3) % 5
    for _ in range(10):
        (np.matmul(batch, batch) % 5).any(axis=(1, 2))
    return perf_counter() - start


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def clear_caches() -> None:
    """Empty the package's memo caches, so each pass costs what a fresh
    CLI process pays."""
    for name, module in list(sys.modules.items()):
        if name == "quiverstrata" or name.startswith("quiverstrata."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(main, ops, paths, tracer=None):
    """Run every operation once, with a probe after each: (stdout per op,
    failure message per failed op, seconds per op, probe seconds after each
    op, points the tally kept per op when traced)."""
    outputs, failures, seconds, probes, kept = {}, {}, [], [], {}
    for op in ops:
        argv = [paths[op.key] if a == "{file}" else a for a in op.argv]
        before = tracer.counts["kernels.tally.points_kept"] if tracer else 0
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # a traceback is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            seconds.append(perf_counter() - t0)
        probes.append(probe())
        outputs[op.key] = out.getvalue()
        if code != 0:
            failures[op.key] = f"exit {code}: {err.getvalue().strip()}"
        if tracer:
            kept[op.key] = tracer.counts["kernels.tally.points_kept"] - before
    return outputs, failures, seconds, probes, kept


def digest(outputs: dict[str, str]) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(f"## {key}\n{outputs[key]}".encode())
    return h.hexdigest()


def trace_errors(summaries, nilpotent_calls, kept, outputs, failures) -> list[str]:
    """Counts repeat in every pass; the program's tally and nilpotent
    enumeration agree with the strata and with Fine-Herstein."""
    import checks

    errors = []
    for d, m, q, count in nilpotent_calls:
        if m >= d:
            errors += checks.check_nilpotent_count(d, q, count)
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in summaries]
    if any(c != counts[0] for c in counts):
        errors.append("traced counts differ between passes")
    for key, out in outputs.items():
        if key.startswith("oracle-count") and key not in failures:
            counted = sum(r.count for r in checks.parse_counts(out))
            if counted != kept[key]:
                errors.append(f"{key}: strata cover {counted} points, tally kept {kept[key]}")
    return errors


def measure(args) -> dict:
    tracer = None
    if args.trace:
        tracer = importlib.import_module("tracing").Tracer()
    first_setup, wl = load(args.workload, args.seed, tracer)
    setup_s = None if args.trace else setup_seconds(args, first_setup)
    if tracer:
        setup_summary = tracer.summary()
        tracer.reset()
    main = sys.modules["quiverstrata.cli"].main
    import checks  # after load(): it imports numpy, which the set-up must time

    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for k, op in enumerate(wl.ops):
            if op.text:
                paths[op.key] = str(workdir / f"{k}.bq")
                Path(paths[op.key]).write_text(op.text, encoding="utf-8")

        clear_caches()
        outputs, failures, _, probes, kept = run_pass(main, wl.ops, paths, tracer)  # warm-up
        digests = {digest(outputs)}
        n_failed = len(failures)
        passes, ratios, all_probes, summaries = [], [], [], []
        started = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - started < args.seconds:
            clear_caches()
            gc.collect()
            if tracer:
                tracer.reset()
            before = probes[-1]
            outputs, failures, seconds, probes, kept = run_pass(main, wl.ops, paths, tracer)
            passes.append(sum(seconds))
            around = zip(seconds, [before] + probes, probes)
            ratios.append([s / ((a + b) / 2) for s, a, b in around])
            all_probes += probes
            if tracer:
                summaries.append(tracer.summary())
                nilpotent_calls = list(tracer.nilpotent_calls)
            digests.add(digest(outputs))
            n_failed += len(failures)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [] if len(digests) == 1 else ["stdout differs between passes"]
    for op in wl.ops:
        if op.key not in failures:
            errors += op.check(outputs[op.key])
    errors += wl.check_all(outputs)
    if tracer:
        errors += trace_errors(summaries, nilpotent_calls, kept, outputs, failures)
    errors += [f"self-test: the {name} check accepted a wrong value"
               for name in checks.self_test()]

    if tracer:
        metrics = per_layer(summaries, setup_summary, all_probes, passes)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.tsv")
    else:
        metrics = {
            "wall_rel": (sum(map(statistics.median, zip(*ratios))), "probe"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "wall_s": None if tracer else statistics.median(passes),
        "workload": wl.name, "passes": len(passes), "ops": len(wl.ops),
        "attempted": (len(passes) + 1) * len(wl.ops), "failed": n_failed,
        "failures": failures, "errors": errors, "digest": digests.pop(),
        "passes_s": passes, "probe_s": statistics.median(all_probes),
        "metrics": metrics,
    }


def per_layer(summaries, setup_summary, probes, passes) -> dict:
    """Counts from the first measured pass, self times as medians over passes;
    ``families.build_family`` runs in the set-up, so it comes from there."""
    import tracing

    metrics = {}
    first = summaries[0]
    for mod, fn in tracing.LAYERS:
        name = tracing.layer_name(mod, fn)
        source = [setup_summary] if mod == "families" else summaries
        metrics[f"{name}.calls"] = (source[0][f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(s[f"{name}.self_s"] for s in source), "s")
    for name in tracing.COUNTERS:
        metrics[name] = (first[name], "count")
    for name in ("kernels.tally.yield", "kernels.nilpotent.yield"):
        metrics[name] = (first[name], "ratio")
    metrics["probe_s"] = (statistics.median(probes), "s")
    metrics["traced_wall_s"] = (statistics.median(passes), "s")
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(res: dict, write_digests: bool) -> dict:
    print(f"workload {res['workload']}: {res['passes']} passes after a warm-up, "
          f"{res['ops']} operations each")
    print("pass seconds: " + " ".join(f"{s:.4f}" for s in res["passes_s"])
          + f"; median probe {res['probe_s']:.5f} s")
    for key, why in sorted(res["failures"].items()):
        print(f"failed operation (every pass): {key}: {why}")
    refs = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    ref = refs.get(res["workload"])
    state = ("matches the reference" if ref == res["digest"]
             else "no reference" if ref is None else f"CHANGED from {ref}")
    print(f"stdout sha256 {res['digest']} ({state})")
    if write_digests and not res["errors"]:
        refs[res["workload"]] = res["digest"]
        DIGESTS.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    for err in res["errors"]:
        print(f"check failed: {err}")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    if res["wall_s"] is not None:
        print(f"wall_s = {res['wall_s']:.6g} s "
              "(median pass; a reference figure, too unsteady here to gate)")
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.write_digests:
            cmd.append("--write-digests")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {wl} exited {done.returncode}: "
                             f"{done.stderr.strip()}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{wl}.{name}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store this run's stdout digests as the reference")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        seconds, _ = load(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = report(measure(args), args.write_digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
