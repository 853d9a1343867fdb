"""Exhaustive finite-field enumeration of representation points.

This layer is verification-only ground truth: it iterates every matrix
assignment over F_q, keeps the points satisfying the nilpotency bounds and
the mixed relations, and classifies each point by the Jordan types of its
loop actions.  Nothing here feeds back into the exact engine; the counting
identity ties the two together:

    |stratum| = (product of loop orbit counts) * q^(N - c)

with N the ambient arrow dimension and c the exact codimension.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .linsys import BadPrimeError, codim_c
from .partitions import (JordanAssignment, _is_prime, orbit_count,
                         partition_from_ranks, partitions_bounded)
from .quiver import BoundQuiverPresentation
from .strata import ambient_arrow_dim, assignments_for

__all__ = [
    "StratumCountTable",
    "EnumerationCapExceeded",
    "IdentityRow",
    "EstimateRow",
    "enumerate_and_classify",
    "verify_count_identity",
    "dimension_estimate",
    "count_table_csv",
    "identity_csv",
]


class EnumerationCapExceeded(ValueError):
    pass


@dataclass
class StratumCountTable:
    q: int
    dims: tuple[int, ...]
    counts: dict[JordanAssignment, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def enumerate_and_classify(pres: BoundQuiverPresentation, dims: Sequence[int],
                           q: int, max_points: int = 2_000_000
                           ) -> StratumCountTable:
    """Exhaustive point count per Jordan assignment.

    The loop matrices are pre-enumerated per vertex (only the nilpotent
    candidates survive, which prunes the dominant factor), then every
    combination of loop candidates and arrow matrices is tested against
    the relations.  ``max_points`` caps both each per-vertex enumeration
    and the final product of candidate counts.
    """
    if not _is_prime(q):
        raise ValueError("q must be prime")
    dims = tuple(int(d) for d in dims)
    quiver = pres.quiver
    if len(dims) != len(quiver.vertices):
        raise ValueError("dimension vector length must match the vertex count")
    dim_of = dict(zip(quiver.vertices, dims))
    order_of = pres.order_map

    # mixed-radix layout of the tally keys, one digit per vertex
    per_vertex = [partitions_bounded(d, order_of[v])
                  for v, d in zip(quiver.vertices, dims)]
    weights = [0] * len(per_vertex)
    w = 1
    for i in range(len(per_vertex) - 1, -1, -1):
        weights[i] = w
        w *= len(per_vertex[i])
    n_keys = w

    slot_of: dict[str, int] = {}
    cand_mats: list[np.ndarray] = []
    cand_keys: list[np.ndarray] = []

    for a in quiver.arrows:
        d_t, d_s = dim_of[a.target], dim_of[a.source]
        if a.is_loop:
            v = a.source
            vi = quiver.vertices.index(v)
            d = d_t
            if d == 0:
                mats = np.zeros((1, 0, 0), np.int64)
                types = np.zeros(1, np.int64)
            else:
                if q ** (d * d) > max_points:
                    raise EnumerationCapExceeded(
                        f"loop enumeration at {v!r} needs {q ** (d * d)} points, "
                        f"cap is {max_points}"
                    )
                mats, sigs = _kernels.enumerate_nilpotent(d, order_of[v], q)
                index = {p.parts: k for k, p in enumerate(per_vertex[vi])}
                uniq, inverse = np.unique(sigs, return_inverse=True)
                types = np.array([index[_unpack_signature(int(sig), d, order_of[v])]
                                  for sig in uniq], np.int64)[inverse]
            cand_keys.append(weights[vi] * types)
        else:
            n_entries = d_t * d_s
            if n_entries == 0:
                mats = np.zeros((1, d_t, d_s), np.int64)
            else:
                count = q ** n_entries
                if count > max_points:
                    raise EnumerationCapExceeded(
                        f"arrow {a.name!r} needs {count} points, cap is {max_points}"
                    )
                mats = _kernels.matrices_from_codes(np.arange(count), d_t, d_s, q)
            cand_keys.append(np.zeros(mats.shape[0], np.int64))
        cand_mats.append(mats)
        slot_of[a.name] = len(cand_mats) - 1

    shape = tuple(m.shape[0] for m in cand_mats)
    work = math.prod(shape)
    if work > max_points:
        raise EnumerationCapExceeded(f"{work} points exceed the cap {max_points}")

    # relations as (coeff mod q, slot path) terms; those with an empty
    # equation grid hold trivially and are dropped
    relations = []
    for rel in pres.relations:
        if dim_of[rel.target] == 0 or dim_of[rel.source] == 0:
            continue
        terms = []
        for coeff, path in rel.terms:
            den = coeff.denominator % q
            if den == 0:
                raise BadPrimeError(f"coefficient {coeff} cannot reduce mod {q}")
            terms.append(((coeff.numerator % q) * pow(den, q - 2, q) % q,
                          [slot_of[name] for name in path.arrows]))
        relations.append(terms)

    tally = _kernels.tally_points(cand_mats, cand_keys, shape, relations, q, n_keys)

    counts: dict[JordanAssignment, int] = {}
    for key in np.nonzero(tally)[0]:
        rem = int(key)
        combo = []
        for plist, weight in zip(per_vertex, weights):
            digit, rem = divmod(rem, weight)
            combo.append(plist[digit])
        ja = JordanAssignment.for_presentation(pres, combo)
        counts[ja] = int(tally[key])
    return StratumCountTable(q, dims, counts)


def _unpack_signature(sig: int, d: int, m: int) -> tuple[int, ...]:
    ranks = []
    for _ in range(1, m):
        sig, digit = divmod(sig, d + 1)
        ranks.append(digit)
    return partition_from_ranks(d, ranks, m).parts


@dataclass(frozen=True)
class IdentityRow:
    assignment: JordanAssignment
    count: int
    predicted: int

    @property
    def ok(self) -> bool:
        return self.count == self.predicted


def verify_count_identity(table: StratumCountTable,
                          pres: BoundQuiverPresentation) -> list[IdentityRow]:
    """Per-stratum check of count = (orbit counts) * q^(N - c).

    A failure at desk scale means either the prime is bad for the exact
    rank or the engine miscounts; both are reportable findings.
    """
    q = table.q
    n = ambient_arrow_dim(pres, table.dims)
    rows = []
    for ja in assignments_for(pres, table.dims):
        c = codim_c(pres, ja)
        pred = q ** (n - c)
        for p in ja.partitions:
            pred *= orbit_count(p, q)
        rows.append(IdentityRow(ja, table.counts.get(ja, 0), pred))
    return rows


@dataclass(frozen=True)
class EstimateRow:
    assignment: JordanAssignment
    estimate: Optional[int]
    consistent: bool


def dimension_estimate(tables: Sequence[StratumCountTable]) -> list[EstimateRow]:
    """Integer growth exponent of each stratum count across field sizes.

    Rounds log_q(count) at each q; the estimates must agree across fields,
    otherwise the row is flagged inconsistent (largest field wins).  Strata
    absent from some table give no estimate.
    """
    if len({t.q for t in tables}) < 2:
        raise ValueError("need counts at two or more field sizes")
    ordered = sorted(tables, key=lambda t: t.q)
    keys: list[JordanAssignment] = []
    for t in ordered:
        for ja in t.counts:
            if ja not in keys:
                keys.append(ja)
    out = []
    for ja in keys:
        counts = [t.counts.get(ja, 0) for t in ordered]
        if any(c == 0 for c in counts):
            out.append(EstimateRow(ja, None, all(c == 0 for c in counts)))
            continue
        ests = [round(math.log(c) / math.log(t.q)) if c > 1 else 0
                for c, t in zip(counts, ordered)]
        out.append(EstimateRow(ja, ests[-1], len(set(ests)) == 1))
    return out


def identity_csv(q: int, rows: Sequence[IdentityRow]) -> str:
    """CSV export of checked rows: assignment, count, q, predicted, pass/fail."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["assignment", "count", "q", "predicted", "pass"])
    for row in rows:
        writer.writerow([row.assignment.serialize(), row.count, q,
                         row.predicted, "pass" if row.ok else "fail"])
    return buf.getvalue()


def count_table_csv(table: StratumCountTable,
                    pres: BoundQuiverPresentation) -> str:
    """CSV export of the identity check of one table."""
    return identity_csv(table.q, verify_count_identity(table, pres))
