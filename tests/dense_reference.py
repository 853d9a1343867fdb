"""The dense ``Fraction`` assembly and rank that the sparse engine replaced.

Kept verbatim in substance as the independent reference for the
differential tests: the system of a whole Jordan assignment is a dense
list of ``Fraction`` rows built by explicit loop-matrix powers, with no
split into block pairs, and the rank scales each row to integers and runs
int64 fraction-free elimination, retried in python integers when entries
could overflow.
"""
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from jordan_reference import jordan_matrix
from path_reference import word_of, word_path
from quiverstrata.fforacle import BadPrimeError


class ArrowEntry(NamedTuple):
    """Column label: entry (row, col) of the matrix of a non-loop arrow."""
    arrow: str
    row: int
    col: int

# Bareiss steps stay exact in int64 as long as every entry is below this
# bound: products of two entries then fit in 62 bits.
_INT64_SAFE = 1 << 31


def _mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    if bt[j]:
                        oi[j] += v * bt[j]
    return out


def _mat_pow(mat, k, d):
    out = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for _ in range(k):
        out = _mat_mul(out, mat)
    return out


def _as_rows(mat):
    return [[Fraction(int(v)) if not isinstance(v, Fraction) else v for v in row]
            for row in mat]


def _decompose_term(pres, path):
    """Split a degree-1 word-model path into loop-power prefix, arrow,
    loop-power suffix."""
    quiver = pres.quiver
    pre = 0
    arrow_name = None
    post = 0
    for name in path.arrows:
        a = quiver.arrow(name)
        if a.is_loop:
            if arrow_name is None:
                pre += 1
            else:
                post += 1
        else:
            if arrow_name is not None:
                raise ValueError(
                    f"path {path} has degree {path.degree}; the linear engine "
                    "supports exactly one non-loop arrow per term"
                )
            arrow_name = name
    if arrow_name is None:
        raise ValueError(f"path {path} contains no non-loop arrow")
    return pre, arrow_name, post


def _evaluate_at(pres, rel, loop_mats, dims):
    quiver = pres.quiver
    dt = dims[rel.target]
    ds = dims[rel.source]
    grid = [[dict() for _ in range(ds)] for _ in range(dt)]
    if rel.is_zero:
        return grid
    for term in rel.terms:
        coeff, path = term[0], word_path(quiver, word_of(rel, term))
        pre, arrow_name, post = _decompose_term(pres, path)
        arrow = quiver.arrow(arrow_name)
        A = _mat_pow(loop_mats[arrow.target], pre, dims[arrow.target])
        B = _mat_pow(loop_mats[arrow.source], post, dims[arrow.source])
        for i in range(dt):
            for k in range(dims[arrow.target]):
                aik = A[i][k]
                if not aik:
                    continue
                for l in range(dims[arrow.source]):
                    for j in range(ds):
                        blj = B[l][j]
                        if not blj:
                            continue
                        key = ArrowEntry(arrow_name, k, l)
                        form = grid[i][j]
                        form[key] = form.get(key, Fraction(0)) + coeff * aik * blj
    return grid


def assemble_at(pres, relations, loop_mats, dims):
    """(matrix, row_labels, columns) of the stacked dense system."""
    columns = []
    for a in pres.quiver.non_loop_arrows:
        for k in range(dims[a.target]):
            for l in range(dims[a.source]):
                columns.append(ArrowEntry(a.name, k, l))
    col_index = {c: idx for idx, c in enumerate(columns)}
    matrix = []
    row_labels = []
    for ridx, rel in enumerate(relations):
        grid = _evaluate_at(pres, rel, loop_mats, dims)
        for i, row in enumerate(grid):
            for j, form in enumerate(row):
                out = [Fraction(0)] * len(columns)
                for key, val in form.items():
                    out[col_index[key]] = val
                matrix.append(out)
                row_labels.append((ridx, i, j))
    return matrix, row_labels, columns


def assemble(pres, ja):
    """(matrix, row_labels, columns) of all relations on the Jordan data ``ja``."""
    loop_mats = {v: _as_rows(jordan_matrix(p)) for v, p in zip(ja.vertices, ja.partitions)}
    dims = dict(zip(ja.vertices, ja.dims))
    return assemble_at(pres, pres.relations, loop_mats, dims)


def codim(pres, ja):
    """Rank over Q of the whole system of ``ja``."""
    return rank(assemble(pres, ja)[0])


def _bareiss_rank_numpy(a):
    m, n = a.shape
    prev = np.int64(1)
    r = 0
    while r < m and r < n:
        sub = a[r:, r:]
        mx = np.abs(sub).max() if sub.size else 0
        if mx == 0:
            break
        if mx >= _INT64_SAFE:
            return -1
        flat = int(np.abs(sub).argmax())
        bi, bj = divmod(flat, n - r)
        bi += r
        bj += r
        if bi != r:
            a[[r, bi]] = a[[bi, r]]
        if bj != r:
            a[:, [r, bj]] = a[:, [bj, r]]
        piv = a[r, r]
        a[r + 1:, r + 1:] = (a[r + 1:, r + 1:] * piv
                             - np.outer(a[r + 1:, r], a[r, r + 1:])) // prev
        a[r + 1:, r] = 0
        prev = piv
        r += 1
    return r


def _bareiss_rank_bigint(rows):
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
        for i in range(r + 1, m):
            f = rows[i][r]
            for j in range(r + 1, n):
                rows[i][j] = (rows[i][j] * piv - f * rows[r][j]) // prev
            rows[i][r] = 0
        prev = piv
        r += 1
    return r


def rank(matrix):
    """Rank over Q: scale every row to integers, then int64 elimination."""
    int_rows = []
    for row in matrix:
        den = math.lcm(*(x.denominator for x in row))
        int_rows.append([x.numerator * (den // x.denominator) for x in row])
    if not int_rows or not int_rows[0]:
        return 0
    mx = max(abs(v) for row in int_rows for v in row)
    if mx < _INT64_SAFE:
        got = _bareiss_rank_numpy(np.array(int_rows, dtype=np.int64))
        if got >= 0:
            return got
    return _bareiss_rank_bigint(int_rows)


def rank_mod(matrix, p):
    """Rank over F_p; raises BadPrimeError when a denominator vanishes mod p."""
    rows = []
    for row in matrix:
        out = [0] * len(row)
        for col, x in enumerate(row):
            if not x:
                continue  # zero reduces to zero for every p
            den = x.denominator % p
            if den == 0:
                raise BadPrimeError(f"denominator of {x} vanishes mod {p}")
            out[col] = (x.numerator % p) * pow(den, p - 2, p) % p
        rows.append(out)
    if not rows or not rows[0]:
        return 0
    a = np.array(rows, dtype=np.int64) % p
    r = 0
    m, n = a.shape
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i, col]), -1)
        if piv < 0:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r, col:] = (a[r, col:] * pow(int(a[r, col]), p - 2, p)) % p
        f = a[r + 1:, col].copy()
        a[r + 1:, col:] = (a[r + 1:, col:] - np.outer(f, a[r, col:])) % p
        r += 1
        if r == m:
            break
    return r
