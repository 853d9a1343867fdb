"""Benchmark the numba kernels against the numpy/python fallbacks.

Covers the finite-field kernels; exact integer rank has one pure-python
implementation and is timed end to end by ``perfbench/run.py``.

Runs each hot kernel through both backends on mid-size inputs and prints a
timing table.  Invoke from the repo root:

    python benchmarks/bench_kernels.py [--repeat N]

The dispatch inside the package picks one backend per process (see
QUIVERSTRATA_NO_NUMBA); here both implementations are imported directly so
a single run compares them.
"""
import argparse
import time

import numpy as np

from quiverstrata import _kernels
from quiverstrata._kernels import (_enumerate_nilpotent_loops,
                                   _enumerate_nilpotent_numpy,
                                   _rank_mod_p_loops, _rank_mod_p_numpy,
                                   _tally_points_loops)
from quiverstrata.families import build_family, parse_family_spec
from quiverstrata.fforacle import enumerate_and_classify

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False


def timed(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_rank_mod_p(repeat):
    rng = np.random.default_rng(2)
    a = rng.integers(0, 997, size=(120, 200)).astype(np.int64)
    rows = {}
    if HAVE_NUMBA:
        jit = njit(cache=True)(_rank_mod_p_loops)
        jit(a.copy(), 997)
        rows["numba"], _ = timed(lambda: jit(a.copy(), 997), repeat)
    rows["numpy"], _ = timed(lambda: _rank_mod_p_numpy(a.copy(), 997), repeat)
    return "rank over F_997 (120x200)", rows


def bench_nilpotent(repeat):
    d, m, q = 3, 3, 3
    cap = q ** (d * d)
    rows = {}

    def run(fn):
        out = np.zeros((cap, d, d), np.int64)
        sig = np.zeros(cap, np.int64)
        return fn(d, m, q, out, sig)

    if HAVE_NUMBA:
        jit = njit(cache=True)(_enumerate_nilpotent_loops)
        run(jit)
        rows["numba"], _ = timed(lambda: run(jit), repeat)
    rows["numpy"], _ = timed(lambda: run(_enumerate_nilpotent_numpy), repeat)
    return "nilpotent enumeration (3x3, F_3)", rows


def bench_oracle(repeat):
    pres = build_family(parse_family_spec("A(1,2,2,1)"))
    rows = {}
    selected = _kernels._tally_points_fast
    try:
        if HAVE_NUMBA:
            _kernels._tally_points_fast = njit(cache=True)(_tally_points_loops)
            enumerate_and_classify(pres, (2, 2), 3)  # compile
            rows["numba"], _ = timed(
                lambda: enumerate_and_classify(pres, (2, 2), 3), repeat)
        _kernels._tally_points_fast = _tally_points_loops
        rows["python"], _ = timed(
            lambda: enumerate_and_classify(pres, (2, 2), 3), repeat)
    finally:
        _kernels._tally_points_fast = selected
    return "point enumeration A(1,2,2,1) d=(2,2) F_3", rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    benches = [bench_rank_mod_p, bench_nilpotent, bench_oracle]
    print(f"numba available: {HAVE_NUMBA}")
    print(f"{'kernel':<42} {'backend':<8} {'best (ms)':>10}")
    for bench in benches:
        name, rows = bench(args.repeat)
        base = None
        for backend, secs in rows.items():
            note = ""
            if base is None:
                base = secs
            elif secs > 0:
                note = f"  ({secs / base:.0f}x slower)" if secs > base else ""
            print(f"{name:<42} {backend:<8} {secs * 1e3:>10.2f}{note}")


if __name__ == "__main__":
    main()
