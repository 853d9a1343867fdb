"""The rank routines that the current sparse elimination replaced, kept
verbatim as the references of its differential tests.

``sparse_rank_int`` (with ``_reduced``) is the sparse fraction-free
elimination as it was before it skipped empty rows and updated rows in
place: every row, empty or not, is rebuilt as a new dict and divided by
its gcd at every step.  Before it, the rows of a system are split into connected components over their
columns (union-find), each component is rebuilt as dense integer rows,
and a component is ranked by Bareiss elimination with full pivoting over
Q, or by numpy row reduction over F_p after its entries are reduced
modulo p.  A component with one row or one column has rank 1 over Q.
The package ranks over Q only, so ``rank_mod``, the rank over F_p of a
system's integer rows, is also the one that the tests hold against the
rank over Q.

``ranks_mod_p`` is the oracle's row reduction over F_p as it was on
(count, m, n) stacks, the batch axis first, before the kernel moved the
batch axis last; ``rank_mod_p`` and ``nilpotent_reference`` use this copy,
not the kernel under test.

``copying_rank_int`` is ``_kernels.exact_rank_int`` as it was before it
reduced the rows it is given in place: it copies every nonempty row once
without its zero values and leaves the input rows as they were.
"""
import math
import sys

import numpy as np

from quiverstrata.linsys import ConstraintSystem

# the copies below reach their kernels as ``_kernels.<name>``: this module
_kernels = sys.modules[__name__]


def _reduced(row: dict[int, int]) -> dict[int, int]:
    """``row`` without zero entries, divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items() if v}


def sparse_rank_int(rows) -> int:
    """Rank over Q of integer rows given as ``{column: value}`` dicts.

    One pivot row is kept per leading (smallest) column.  A row whose lead
    already has a pivot is replaced by the fraction-free combination
    ``row * pivot[lead] - pivot * row[lead]``, which clears the lead, and
    divided by the gcd of its entries, as the input rows are, so python
    integers stay small.  No division by a pivot occurs.  The input rows
    are not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _reduced(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            # the update cancels the lead exactly; leaving it out makes
            # every step raise the lead, so the loop ends
            f, g = row.pop(lead), pivot[lead]
            merged = {c: v * g for c, v in row.items()}
            for c, v in pivot.items():
                if c != lead:
                    merged[c] = merged.get(c, 0) - f * v
            row = _reduced(merged)
    return len(pivots)


def copying_rank_int(rows) -> int:
    """Rank over Q of integer rows given as ``{column: value}`` dicts.

    One pivot row is kept per leading (smallest) column.  Empty rows are
    skipped; every other row is copied once without its zero values and
    divided by the gcd of its entries when that exceeds 1.  A row whose
    lead already has a pivot becomes, in place, the fraction-free
    combination ``row * pivot[lead] - pivot * row[lead]``, which clears
    the lead and deletes every entry it cancels, and is divided again by
    its gcd when that exceeds 1, so python integers stay small.  No
    division by a pivot occurs.  The input rows are not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if not row:
            continue
        row = {c: v for c, v in row.items() if v}
        while row:
            g = math.gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            # the update cancels the lead exactly; leaving it out makes
            # every step raise the lead, so the loop ends
            f, g = row.pop(lead), pivot[lead]
            if g != 1:
                for c in row:
                    row[c] *= g
            for c, v in pivot.items():
                if c != lead:
                    v = row.get(c, 0) - f * v
                    if v:
                        row[c] = v
                    else:
                        del row[c]
    return len(pivots)


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


def ranks_mod_p(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of matrices of shape (count, m, n) with
    entries in [0, p), by row reduction run on the whole stack at once.

    Entries stay below p, so products stay below p^2 and fit int64 for
    any prime below 3 * 10^9.  The input is not modified.
    """
    a = stack.astype(np.int64)
    count, m, n = a.shape
    rank = np.zeros(count, np.int64)
    row = np.arange(m)
    for col in range(n):
        free = (a[:, :, col] != 0) & (row >= rank[:, None])
        b = np.flatnonzero(free.any(axis=1))
        if b.size == 0:
            continue
        r = rank[b]
        piv = free[b].argmax(axis=1)
        top = a[b, piv]
        a[b, piv] = a[b, r]
        # scale the pivot row to a leading 1 (Fermat inverse), clear below
        inv = np.ones(b.size, np.int64)
        base, e = top[:, col], p - 2
        while e:
            if e & 1:
                inv = inv * base % p
            base = base * base % p
            e >>= 1
        top = top * inv[:, None] % p
        a[b, r] = top
        f = np.where(row > r[:, None], a[b, :, col], 0)
        a[b] = (a[b] - f[:, :, None] * top[:, None, :]) % p
        rank[b] += 1
    return rank


def rank_mod_p(mat, p: int) -> int:
    """Rank of an integer matrix over F_p (p an odd or even prime)."""
    a = np.asarray(mat, dtype=np.int64) % p
    if a.size == 0:
        return 0
    return int(ranks_mod_p(a[None], p)[0])


def _components(cs: ConstraintSystem) -> list[tuple[list[int], list[list[int]]]]:
    """Dense integer blocks of the nonzero rows: (the block's column
    indices, its dense rows).

    Rows that share no column, directly or through other rows, are
    independent, so the blocks are the connected components of the rows
    over their columns (union-find), and any rank of the system is the sum
    of the ranks of its blocks.
    """
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    nonzero = [k for k, row in enumerate(cs.rows) if row]
    for k in nonzero:
        root = -1
        for c in cs.rows[k]:
            r = find(parent.setdefault(c, c))
            if root < 0:
                root = r
            elif r != root:
                parent[r] = root
    members: dict[int, list[int]] = {}
    for k in nonzero:
        members.setdefault(find(next(iter(cs.rows[k]))), []).append(k)
    blocks = []
    for ks in members.values():
        index: dict[int, int] = {}
        for k in ks:
            for c in cs.rows[k]:
                index.setdefault(c, len(index))
        dense = []
        for k in ks:
            out = [0] * len(index)
            for c, v in cs.rows[k].items():
                out[index[c]] = v
            dense.append(out)
        blocks.append((list(index), dense))
    return blocks


def rank_exact(cs: ConstraintSystem) -> int:
    """Rank over the rationals: fraction-free integer elimination per block.

    A block with one row or one column has rank 1, since its rows are
    nonzero.
    """
    return sum(1 if len(dense) == 1 or len(dense[0]) == 1
               else _kernels.exact_rank_int(dense)
               for _, dense in _components(cs))


def rank_mod(cs: ConstraintSystem, p: int) -> int:
    """Rank of the system's integer rows with entries reduced modulo a
    prime.  Each row is its relation's rational row times the lcm of the
    relation's denominators, so this is the rank of the rational system
    mod every prime that divides none of them."""
    return sum(_kernels.rank_mod_p([[v % p for v in row] for row in dense], p)
               for _, dense in _components(cs))
