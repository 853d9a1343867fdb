"""Reference oracle: the padded-buffer flattening and the per-point
odometer tally that ``fforacle.enumerate_and_classify`` and
``_kernels.tally_points`` replaced.  Kept verbatim apart from names, as
the reference of the differential test in ``tests/test_fforacle.py``.
It is slow (tens of microseconds per point); keep its inputs small.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
from path_reference import word_of

from quiverstrata import _kernels
from quiverstrata.fforacle import (BadPrimeError, EnumerationCapExceeded,
                                   StratumCountTable)
from quiverstrata.partitions import JordanAssignment, _is_prime, partition_from_ranks
from quiverstrata.quiver import BoundQuiverPresentation
from walk_reference import partitions_bounded


def reference_enumerate_and_classify(pres: BoundQuiverPresentation,
                                     dims: Sequence[int],
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
    radices = [len(partitions_bounded(d, order_of[v]))
               for v, d in zip(quiver.vertices, dims)]
    weights = [0] * len(radices)
    w = 1
    for i in range(len(radices) - 1, -1, -1):
        weights[i] = w
        w *= radices[i]
    n_keys = w

    slot_of: dict[str, int] = {}
    cand_mats: list[np.ndarray] = []
    cand_types: list[np.ndarray] = []
    slot_rows: list[int] = []
    slot_cols: list[int] = []
    slot_weight: list[int] = []

    for a in quiver.arrows:
        d_t, d_s = dim_of[a.target], dim_of[a.source]
        if a.is_loop:
            v = a.source
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
                mats, ranks = _kernels.enumerate_nilpotent(d, order_of[v], q)
                plist = partitions_bounded(d, order_of[v])
                index = {p.parts: k for k, p in enumerate(plist)}
                types = np.empty(mats.shape[0], np.int64)
                for k, row in enumerate(ranks):
                    parts = partition_from_ranks(d, row.tolist(), order_of[v]).parts
                    types[k] = index[parts]
            vi = quiver.vertices.index(v)
            slot_weight.append(weights[vi])
            cand_types.append(types)
            cand_mats.append(mats)
            slot_rows.append(d)
            slot_cols.append(d)
        else:
            n_entries = d_t * d_s
            if n_entries == 0:
                mats = np.zeros((1, d_t, d_s), np.int64)
            else:
                count = q ** n_entries
                codes = np.arange(count, dtype=np.int64)
                mats = np.zeros((count, n_entries), np.int64)
                rem = codes.copy()
                for pos in range(n_entries - 1, -1, -1):
                    mats[:, pos] = rem % q
                    rem //= q
                mats = mats.reshape(count, d_t, d_s)
            cand_mats.append(mats)
            cand_types.append(np.zeros(mats.shape[0], np.int64))
            slot_rows.append(d_t)
            slot_cols.append(d_s)
            slot_weight.append(0)
        slot_of[a.name] = len(cand_mats) - 1

    work = 1
    for m in cand_mats:
        work *= m.shape[0]
    if work > max_points:
        raise EnumerationCapExceeded(f"{work} points exceed the cap {max_points}")

    # flatten candidates into one padded buffer
    dmax = max([max(r, c) for r, c in zip(slot_rows, slot_cols)], default=0)
    total_cands = sum(m.shape[0] for m in cand_mats)
    cand_flat = np.zeros((max(total_cands, 1), dmax, dmax), np.int64)
    cand_off = np.zeros(len(cand_mats), np.int64)
    cand_cnt = np.zeros(len(cand_mats), np.int64)
    cand_type = np.zeros(max(total_cands, 1), np.int64)
    pos = 0
    for k, (mats, types) in enumerate(zip(cand_mats, cand_types)):
        cand_off[k] = pos
        cand_cnt[k] = mats.shape[0]
        r, c = slot_rows[k], slot_cols[k]
        if r and c:
            cand_flat[pos:pos + mats.shape[0], :r, :c] = mats
        cand_type[pos:pos + mats.shape[0]] = types
        pos += mats.shape[0]

    # relations in flat arrays (only those with a nonzero equation grid)
    rel_rows: list[int] = []
    rel_cols: list[int] = []
    rel_term_start = [0]
    term_coeff: list[int] = []
    term_path_start = [0]
    path_slots: list[int] = []
    for rel in pres.relations:
        d_t, d_s = dim_of[rel.target], dim_of[rel.source]
        if d_t == 0 or d_s == 0:
            continue
        rel_rows.append(d_t)
        rel_cols.append(d_s)
        for term in rel.terms:
            coeff = term[0]
            den = coeff.denominator % q
            if den == 0:
                raise BadPrimeError(f"coefficient {coeff} cannot reduce mod {q}")
            term_coeff.append((coeff.numerator % q) * pow(den, q - 2, q) % q)
            path_slots.extend(slot_of[name] for name in word_of(rel, term))
            term_path_start.append(len(path_slots))
        rel_term_start.append(len(term_coeff))

    tally = tally_points(
        cand_flat, cand_off, cand_cnt,
        np.array(slot_rows, np.int64) if slot_rows else np.zeros(0, np.int64),
        np.array(slot_cols, np.int64) if slot_cols else np.zeros(0, np.int64),
        np.array(slot_weight, np.int64) if slot_weight else np.zeros(0, np.int64),
        cand_type,
        np.array(rel_rows, np.int64), np.array(rel_cols, np.int64),
        np.array(rel_term_start, np.int64), np.array(term_coeff, np.int64),
        np.array(term_path_start, np.int64),
        np.array(path_slots, np.int64) if path_slots else np.zeros(0, np.int64),
        q, n_keys,
    )

    per_vertex = [partitions_bounded(d, order_of[v])
                  for v, d in zip(quiver.vertices, dims)]
    counts: dict[JordanAssignment, int] = {}
    for key in np.nonzero(tally)[0]:
        rem = int(key)
        combo = []
        for radix, weight in zip(radices, weights):
            digit, rem = divmod(rem, weight)
            combo.append(per_vertex[len(combo)][digit])
        ja = JordanAssignment.for_presentation(pres, combo)
        counts[ja] = int(tally[key])
    return StratumCountTable(q, dims, counts)


def _tally_points_loops(cand_flat, cand_off, cand_cnt, slot_rows, slot_cols,
                        slot_weight, cand_type, rel_rows, rel_cols,
                        rel_term_start, term_coeff, term_path_start,
                        path_slots, q, tally):
    """Walk every candidate combination, keep points killing all relations.

    Slots hold candidate matrices (pre-filtered nilpotents for loops, all
    matrices for the remaining arrows).  A surviving point is tallied under
    the mixed-radix key of its loop Jordan types.
    """
    n_slots = cand_cnt.shape[0]
    n_rel = rel_rows.shape[0]
    dmax = cand_flat.shape[1]
    idx = np.zeros(n_slots, np.int64)
    acc = np.zeros((dmax, dmax), np.int64)
    prod = np.zeros((dmax, dmax), np.int64)
    tmp = np.zeros((dmax, dmax), np.int64)
    while True:
        ok = True
        for r in range(n_rel):
            rr = rel_rows[r]
            rc = rel_cols[r]
            for i in range(rr):
                for j in range(rc):
                    acc[i, j] = 0
            for t in range(rel_term_start[r], rel_term_start[r + 1]):
                p0 = term_path_start[t]
                p1 = term_path_start[t + 1]
                s = path_slots[p0]
                ci = cand_off[s] + idx[s]
                cr = slot_rows[s]
                cc = slot_cols[s]
                for i in range(cr):
                    for j in range(cc):
                        prod[i, j] = cand_flat[ci, i, j]
                for pos in range(p0 + 1, p1):
                    s2 = path_slots[pos]
                    c2 = cand_off[s2] + idx[s2]
                    nc = slot_cols[s2]
                    for i in range(cr):
                        for j in range(nc):
                            v = 0
                            for k in range(cc):
                                v += prod[i, k] * cand_flat[c2, k, j]
                            tmp[i, j] = v % q
                    cc = nc
                    for i in range(cr):
                        for j in range(cc):
                            prod[i, j] = tmp[i, j]
                co = term_coeff[t]
                for i in range(rr):
                    for j in range(rc):
                        acc[i, j] = (acc[i, j] + co * prod[i, j]) % q
            for i in range(rr):
                for j in range(rc):
                    if acc[i, j] != 0:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            key = np.int64(0)
            for s in range(n_slots):
                if slot_weight[s] > 0:
                    key += slot_weight[s] * cand_type[cand_off[s] + idx[s]]
            tally[key] += 1
        pos = n_slots - 1
        while pos >= 0:
            idx[pos] += 1
            if idx[pos] < cand_cnt[pos]:
                break
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            break


def tally_points(cand_flat, cand_off, cand_cnt, slot_rows, slot_cols,
                 slot_weight, cand_type, rel_rows, rel_cols, rel_term_start,
                 term_coeff, term_path_start, path_slots, q, n_keys) -> np.ndarray:
    tally = np.zeros(n_keys, np.int64)
    _tally_points_loops(cand_flat, cand_off, cand_cnt, slot_rows, slot_cols,
                        slot_weight, cand_type, rel_rows, rel_cols,
                        rel_term_start, term_coeff, term_path_start,
                        path_slots, q, tally)
    return tally
