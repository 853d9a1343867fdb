"""Spans and counters around the quiverstrata layers, for the traced run.

``install`` replaces each function in ``LAYERS`` by a wrapper in every
package module that holds it by name, so calls through ``from .x import f``
are traced as well.  A span is ``[name, start, end, parent, covered]``;
``covered`` is the time its child wrappers took, counting included, so a
layer's self time is ``end - start - covered``.
"""
from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from time import perf_counter

LAYERS = [
    ("cli", "main"),
    ("quiver", "parse_presentation"),
    ("families", "build_family"),
    ("formulas", "build_case"),
    ("linsys", "assemble_system"),
    ("linsys", "rank_exact"),
    ("_kernels", "exact_rank_int"),
    ("strata", "stratum_dim"),
    ("strata", "reducibility_scan"),
    ("fforacle", "enumerate_and_classify"),
    ("_kernels", "enumerate_nilpotent"),
    ("_kernels", "tally_points"),
    ("fforacle", "verify_count_identity"),
    ("partitions", "orbit_count_ff"),
]

COUNTERS = [
    "linsys.rows", "linsys.cols", "linsys.nnz",
    "strata.part_pairs", "strata.part_pairs_distinct",
    "kernels.tally.points_tried", "kernels.tally.points_kept",
    "kernels.nilpotent.tried", "kernels.nilpotent.kept",
]


def layer_name(mod: str, fn: str) -> str:
    """Metric prefix of a layer.  Metric names start with a letter, so the
    ``_kernels`` module is written ``kernels``."""
    return f"{mod.lstrip('_')}.{fn}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pairs: set = set()
        self.nilpotent_calls: list[tuple[int, int, int, int]] = []  # d, m, q, kept
        self.finished: list[list[list]] = []

    def reset(self):
        """Start a new pass; the spans so far are kept for ``write``."""
        self.finished.append(self.spans)
        self.spans = []
        self.counts = Counter()
        self.pairs = set()
        self.nilpotent_calls = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            end = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = perf_counter()
                if count is not None:
                    count(self, args, result)
                return result
            finally:
                done = perf_counter()
                span[1], span[2] = start, done if end is None else end
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += done - start
        return traced

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per layer, and the counters, of this pass."""
        out: dict[str, float] = {}
        for mod, fn in LAYERS:
            out[f"{layer_name(mod, fn)}.calls"] = 0
            out[f"{layer_name(mod, fn)}.self_s"] = 0.0
        for name, start, end, _parent, covered in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - covered
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["strata.part_pairs_distinct"] = len(self.pairs)
        for layer, tried_key, kept_key in (("tally", "points_tried", "points_kept"),
                                           ("nilpotent", "tried", "kept")):
            tried = out[f"kernels.{layer}.{tried_key}"]
            kept = out[f"kernels.{layer}.{kept_key}"]
            out[f"kernels.{layer}.yield"] = kept / tried if tried else 0.0
        return out

    def write(self, path):
        """All spans of the run, one line each: pass, index, name, start,
        end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass\tindex\tname\tstart\tend\tparent\n")
            for k, spans in enumerate(self.finished + [self.spans]):
                for i, (name, start, end, parent, _c) in enumerate(spans):
                    fh.write(f"{k}\t{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _count_system(tr: Tracer, args, cs):
    tr.counts["linsys.rows"] += cs.n_rows
    tr.counts["linsys.cols"] += cs.ambient_dim
    tr.counts["linsys.nnz"] += sum(1 for row in cs.matrix for x in row if x)


def _count_pairs(tr: Tracer, args, report):
    parts = [p.parts for p in args[1].partitions]
    if len(parts) == 2:
        pairs = [(a, b) for a in parts[0] for b in parts[1]]
        tr.counts["strata.part_pairs"] += len(pairs)
        root = tr.stack[0] if tr.stack else -1   # one CLI call, one presentation
        tr.pairs.update((root, a, b) for a, b in pairs)


def _count_tally(tr: Tracer, args, tally):
    tr.counts["kernels.tally.points_tried"] += math.prod(int(c) for c in args[2])
    tr.counts["kernels.tally.points_kept"] += int(tally.sum())


def _count_nilpotent(tr: Tracer, args, result):
    d, m, q = args
    kept = int(result[0].shape[0])
    tr.counts["kernels.nilpotent.tried"] += q ** (d * d)
    tr.counts["kernels.nilpotent.kept"] += kept
    tr.nilpotent_calls.append((d, m, q, kept))


_COUNTS = {
    "linsys.assemble_system": _count_system,
    "strata.stratum_dim": _count_pairs,
    "kernels.tally_points": _count_tally,
    "kernels.enumerate_nilpotent": _count_nilpotent,
}


def install(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items()
               if n == "quiverstrata" or n.startswith("quiverstrata.")]
    for mod, fn in LAYERS:
        name = layer_name(mod, fn)
        original = getattr(sys.modules[f"quiverstrata.{mod}"], fn)
        traced = tracer.wrap(name, original, _COUNTS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
