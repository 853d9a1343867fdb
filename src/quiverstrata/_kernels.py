"""Hot numeric kernels.

Exact integer rank is pure python (big integers never overflow, and the
components it sees are small).  The finite-field kernels (rank over F_p
and the exhaustive enumerations) have two interchangeable backends: they
are compiled with numba's ``@njit`` when available.  Setting the
environment variable ``QUIVERSTRATA_NO_NUMBA`` to a non-empty value (other
than ``0``/``false``/``no``) selects the pure numpy/python fallback
instead; the same happens automatically when numba is not importable.
Both backends compute identical results; the benchmark in
``benchmarks/bench_kernels.py`` compares them.
"""
from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("QUIVERSTRATA_NO_NUMBA", "").strip().lower()
_numba_wanted = _flag in ("", "0", "false", "no")

if _numba_wanted:
    try:
        from numba import njit as _njit

        NUMBA_ACTIVE = True
    except ImportError:  # pragma: no cover - depends on environment
        NUMBA_ACTIVE = False
else:
    NUMBA_ACTIVE = False


def backend_name() -> str:
    return "numba" if NUMBA_ACTIVE else "numpy"


# ---------------------------------------------------------------------------
# exact integer rank (fraction-free elimination, full pivoting)
# ---------------------------------------------------------------------------

def exact_rank_int(rows) -> int:
    """Rank of an integer matrix given as a list of int rows.

    Fraction-free (Bareiss) elimination over python integers, so no entry
    can overflow.  Pivot choice is the entry of maximal absolute value,
    first in row-major order on ties.  The input rows are not modified.
    """
    rows = [list(row) for row in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = 1
    r = 0
    while r < m and r < n:
        best = 0
        bi = bj = -1
        for i in range(r, m):
            for j in range(r, n):
                av = abs(rows[i][j])
                if av > best:
                    best = av
                    bi, bj = i, j
        if bi < 0:
            break
        if bi != r:
            rows[r], rows[bi] = rows[bi], rows[r]
        if bj != r:
            for row in rows:
                row[r], row[bj] = row[bj], row[r]
        piv = rows[r][r]
        rr = rows[r]
        for i in range(r + 1, m):
            ri = rows[i]
            f = ri[r]
            for j in range(r + 1, n):
                ri[j] = (ri[j] * piv - f * rr[j]) // prev
            ri[r] = 0
        prev = piv
        r += 1
    return r


# ---------------------------------------------------------------------------
# rank over a prime field
# ---------------------------------------------------------------------------

def _rank_mod_p_loops(a, p):
    """Row reduction over F_p; `a` must already be reduced mod p."""
    m, n = a.shape
    r = 0
    for col in range(n):
        piv = -1
        for i in range(r, m):
            if a[i, col] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for j in range(n):
                t = a[r, j]
                a[r, j] = a[piv, j]
                a[piv, j] = t
        # normalize pivot row via Fermat inverse
        inv = np.int64(1)
        base = a[r, col] % p
        e = p - 2
        while e > 0:
            if e & 1:
                inv = (inv * base) % p
            base = (base * base) % p
            e >>= 1
        for j in range(col, n):
            a[r, j] = (a[r, j] * inv) % p
        for i in range(r + 1, m):
            f = a[i, col]
            if f != 0:
                for j in range(col, n):
                    a[i, j] = (a[i, j] - f * a[r, j]) % p
        r += 1
        if r == m:
            break
    return r


def _rank_mod_p_numpy(a, p):
    m, n = a.shape
    r = 0
    for col in range(n):
        piv = -1
        for i in range(r, m):
            if a[i, col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, col]), p - 2, p)
        a[r, col:] = (a[r, col:] * inv) % p
        f = a[r + 1 :, col].copy()
        a[r + 1 :, col:] = (a[r + 1 :, col:] - np.outer(f, a[r, col:])) % p
        r += 1
        if r == m:
            break
    return r


def rank_mod_p(mat, p: int) -> int:
    """Rank of an integer matrix over F_p (p an odd or even prime)."""
    a = np.asarray(mat, dtype=np.int64) % p
    if a.size == 0:
        return 0
    return int(_rank_mod_p_fast(np.ascontiguousarray(a), p))


# ---------------------------------------------------------------------------
# exhaustive enumeration of bounded nilpotent matrices over F_q
# ---------------------------------------------------------------------------

def _enumerate_nilpotent_loops(d, m, q, out_mats, out_sigs):
    """Fill ``out_mats``/``out_sigs`` with all X over F_q satisfying X^m = 0.

    The signature packs the rank sequence rank(X^k), k = 1..m-1, in base
    d + 1; it determines the Jordan type.  Returns the number found.
    """
    total = 1
    for _ in range(d * d):
        total *= q
    X = np.zeros((d, d), np.int64)
    P = np.zeros((d, d), np.int64)
    T = np.zeros((d, d), np.int64)
    W = np.zeros((d, d), np.int64)
    digits = np.zeros(d * d, np.int64)
    count = 0
    for _ in range(total):
        for i in range(d):
            for j in range(d):
                P[i, j] = X[i, j]
        sig = np.int64(0)
        base = np.int64(1)
        nil = False
        k = 1
        while k <= m:
            for i in range(d):
                for j in range(d):
                    W[i, j] = P[i, j]
            rk = _rank_mod_p_fast(W, q)
            if k <= m - 1:
                sig += rk * base
                base *= d + 1
            if rk == 0:
                nil = True
                break
            if k == m:
                break
            for i in range(d):
                for j in range(d):
                    v = 0
                    for t in range(d):
                        v += P[i, t] * X[t, j]
                    T[i, j] = v % q
            for i in range(d):
                for j in range(d):
                    P[i, j] = T[i, j]
            k += 1
        if nil:
            for i in range(d):
                for j in range(d):
                    out_mats[count, i, j] = X[i, j]
            out_sigs[count] = sig
            count += 1
        pos = d * d - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < q:
                X[pos // d, pos % d] = digits[pos]
                break
            digits[pos] = 0
            X[pos // d, pos % d] = 0
            pos -= 1
    return count


def _enumerate_nilpotent_numpy(d, m, q, out_mats, out_sigs):
    """Chunked numpy variant: batch the power test, loop only survivors."""
    total = q ** (d * d)
    count = 0
    chunk = 1 << 14
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.int64)
        mats = np.zeros((stop - start, d * d), np.int64)
        rem = codes.copy()
        for pos in range(d * d - 1, -1, -1):
            mats[:, pos] = rem % q
            rem //= q
        mats = mats.reshape(-1, d, d)
        P = mats
        for _ in range(m - 1):
            P = np.matmul(P, mats) % q
        nil = ~(P != 0).any(axis=(1, 2))
        for X in mats[nil]:
            sig = 0
            base = 1
            Pk = X
            for k in range(1, m):
                rk = _rank_mod_p_numpy(Pk.copy(), q)
                sig += rk * base
                base *= d + 1
                if rk == 0:
                    break
                Pk = (Pk @ X) % q
            out_mats[count] = X
            out_sigs[count] = sig
            count += 1
    return count


def enumerate_nilpotent(d: int, m: int, q: int):
    """All d x d matrices X over F_q with X^m = 0, plus rank signatures.

    Returns ``(mats, sigs)`` where ``mats`` has shape (count, d, d).  The
    caller is responsible for keeping q**(d*d) within enumerable range.
    """
    if d == 0:
        return np.zeros((1, 0, 0), np.int64), np.zeros(1, np.int64)
    cap = q ** (d * d)
    out_mats = np.zeros((cap, d, d), np.int64)
    out_sigs = np.zeros(cap, np.int64)
    count = int(_enumerate_nilpotent_fast(d, m, q, out_mats, out_sigs))
    return out_mats[:count], out_sigs[:count]


# ---------------------------------------------------------------------------
# odometer enumeration of representation points
# ---------------------------------------------------------------------------

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
    _tally_points_fast(cand_flat, cand_off, cand_cnt, slot_rows, slot_cols,
                       slot_weight, cand_type, rel_rows, rel_cols,
                       rel_term_start, term_coeff, term_path_start,
                       path_slots, q, tally)
    return tally


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

if NUMBA_ACTIVE:
    _rank_mod_p_fast = _njit(cache=True)(_rank_mod_p_loops)
    _enumerate_nilpotent_fast = _njit(cache=True)(_enumerate_nilpotent_loops)
    _tally_points_fast = _njit(cache=True)(_tally_points_loops)
else:
    _rank_mod_p_fast = _rank_mod_p_numpy
    _enumerate_nilpotent_fast = _enumerate_nilpotent_numpy
    _tally_points_fast = _tally_points_loops
