"""Hot numeric kernels.

Exact rank over Q is pure python fraction-free elimination on sparse
integer rows: big integers never overflow, and the block-pair systems it
sees have a few dozen rows, many of them empty.  It reduces the rows it
is given in place, with no copy, and divides a row by the gcd of its
entries only when that exceeds 1.  The oracle's kernels (ranks over F_p of
matrix stacks and the exhaustive enumerations) are numpy, batched in
chunks of about ``CHUNK`` so memory stays bounded.  The point tally
enumerates the candidates of the slots its relations read and folds in
every other slot by its key histogram; the loop enumeration forms only
trace-zero matrices, since X^m = 0 forces trace 0, and screens them one
column of X^m at a time, forming powers only for the matrices that pass.

The loop enumeration and the ranks over F_p keep their stacks batch-last,
as (d, d, count) arrays, so every step is an elementwise operation over
long rows, in the narrowest of int8, int16 and int64 that holds their
unreduced values.  numpy's batched ``matmul`` runs one small product per
member: 32,768 4 x 4 products took 2.2 ms through it in int8 and 2.2-4.0
ms in int16, and 0.23-0.24 ms (int8) and 0.33-0.43 ms (int16) through
``einsum("ijn,jkn->ikn")`` on the batch-last layout (2-CPU x86 host,
numpy 2.4).  A boolean mask on the last axis lays a stack out
batch-first: on a (4, 4, 8205) int8 stack cut so, the matrix-vector and
matrix products took 0.23 and 2.5-3.7 ms, against 0.02 and 0.06-0.09 ms
when ``np.compress`` gathers the same members in C order.  The point
tally keeps ``matmul`` on (count, d, d) candidates: its chunks hold a few
hundred points, and gathering them along a last axis costs more than the
products do.
"""
from __future__ import annotations

import math

import numpy as np

CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# exact rank of sparse integer rows over Q
# ---------------------------------------------------------------------------

def exact_rank_int(rows) -> int:
    """Rank over Q of integer rows given as ``{column: value}`` dicts.

    The rows are spent: they are reduced in place, each row becoming a
    pivot or empty, so afterwards they hold the same row space over Q but
    need not have the same rank over any F_p.  Each row must be its own
    dict.  One pivot row is kept per leading (smallest) column.  A row is
    divided by the gcd of its entries when that exceeds 1.  A row whose
    lead already has a pivot becomes the fraction-free combination
    ``row * pivot[lead] - pivot * row[lead]``, which clears the lead and
    drops every entry it cancels, and is divided again by its gcd when
    that exceeds 1, so python integers stay small.  No division by a pivot
    occurs.  Rows are not scanned for zero values: a lead of value 0 is
    deleted rather than kept as a pivot, and a zero elsewhere is carried
    along, which changes no rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            g = math.gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if row[lead]:
                    pivots[lead] = row
                    break
                del row[lead]
                continue
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
                        # a pivot may carry a zero in a column the row lacks
                        row.pop(c, None)
    return len(pivots)


# ---------------------------------------------------------------------------
# ranks over a prime field, a stack of matrices at once
# ---------------------------------------------------------------------------

def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """``x % q`` for a positive int q.  numpy divides an integer array by
    a scalar with vector instructions but takes remainders one entry at a
    time, so on int16 stacks this is several times faster."""
    return x - x // q * q


def _narrowest(bound: int):
    """int8 or int16 when it holds every integer of absolute value at
    most ``bound``, else int64."""
    return np.int8 if bound < 1 << 7 else np.int16 if bound < 1 << 15 else np.int64


def ranks_mod_p(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of matrices of shape (m, n, count), the
    batch axis last, with entries in [0, p), by row reduction run on the
    whole stack at once.

    Each column's pivot is the first nonzero entry in a row that holds no
    pivot yet; every row becomes ``row * pivot[col] - pivot * row[col]``
    mod p in the columns to the right, which keeps the rank and clears
    ``col`` in every row but the pivot's.  Pivot rows are never read
    again, so they are neither swapped nor scaled.  Both products stay at
    most (p - 1)^2, so the stack is int8 while that fits (p <= 11), int16
    while it fits in that, and int64, good for any prime below 3 * 10^9,
    otherwise.  The input is not modified.
    """
    m, n, count = stack.shape
    # a C-order copy: a stack cut out by a mask along its last axis is
    # laid out batch-first, which would make every step below strided
    a = stack.astype(_narrowest((p - 1) ** 2), order="C")
    used = np.zeros((m, count), bool)
    for col in range(n):
        free = (a[:, col] != 0) & ~used
        # the first free row of each member is its pivot row
        first = free.copy()
        first[1:] &= ~np.logical_or.accumulate(free[:-1], axis=0)
        top = (a[:, col:] * first[:, None]).sum(axis=0, dtype=a.dtype)
        lead = np.where(free.any(axis=0), top[0], 1)
        f = np.where(first, 0, a[:, col])
        a[:, col + 1:] = _mod(a[:, col + 1:] * lead - f[:, None] * top[1:], p)
        used |= first
    return used.sum(axis=0)


# ---------------------------------------------------------------------------
# exhaustive enumeration of bounded nilpotent matrices over F_q
# ---------------------------------------------------------------------------

# digits from which a table is built from its two halves: at 8 digits the
# two ways take the same time at q = 2 and the halves take 0.6 times as
# long at q = 3; at 14 digits and q = 2 they take 0.2-0.5 times as long,
# and at 4 digits 1.4 times (int8 and int64, 2-CPU host, numpy 2.4)
_SPLIT_DIGITS = 8


def digit_table(n: int, q: int, dtype=np.int64) -> np.ndarray:
    """The q**n rows of n base-q digits, in the order of the codes they spell.

    The table is the transpose of a C-ordered (n, q**n) array.  From
    ``_SPLIT_DIGITS`` digits on, its high and low halves are written from
    two tables of half as many digits, which costs less than
    ``np.indices`` over n axes."""
    if n < _SPLIT_DIGITS:
        return np.indices((q,) * n, dtype).reshape(n, q ** n).T
    h = n // 2
    high, low = digit_table(h, q, dtype), digit_table(n - h, q, dtype)
    out = np.empty((n, len(high), len(low)), dtype)
    out[:h] = high.T[:, :, None]
    out[h:] = low.T[:, None]
    return out.reshape(n, q ** n).T


def enumerate_nilpotent(d: int, m: int, q: int):
    """All d x d matrices X over F_q with X^m = 0, plus their rank rows.

    Returns ``(mats, ranks)``: ``mats`` (count, d, d) in row-major base-q
    code order, and row i of ``ranks`` holds rank(X^k) of ``mats[i]`` for
    0 < k < top = min(m, d), which with X^top = 0 gives the Jordan type.
    X^m = 0 forces trace 0, so the last diagonal entry (the lowest digit)
    is minus the others' sum: q**(d*d - 1) candidates are formed, chunks of
    low digits from one table under as many rows of high digits as fit.
    The candidates and their powers are (d, d, chunk) stacks, the batch
    axis last.

    X^top = 0 if and only if X^top e_j = 0 for every column j, so a chunk
    is screened one column at a time: X^top e_j is top - 1 batched
    matrix-vector products, (top - 1) d^2 multiply-adds a candidate where
    X^top takes (top - 1) d^3, column 0 on every candidate and each later
    column only on those that passed the earlier ones.  Products stay
    unreduced in int8 or int16, the narrower one their bound fits, and
    are reduced mod q after each product in int64 otherwise.  Boolean
    masks keep code order.  X^k, 0 < k < top, is formed only for the
    matrices that pass every column, and all of them are ranked in one
    ``ranks_mod_p`` call on their concatenation along the batch axis.
    The caller bounds q**(d*d).
    """
    if d == 0:
        return np.zeros((1, 0, 0), np.int64), np.zeros((1, 0), np.int64)
    top, free = min(m, d), d * d - 1
    # fewest high digits whose chunk of low digits fits in CHUNK
    split = next(s for s in range(free + 1) if q ** (free - s) <= CHUNK)
    # unreduced X^k has entries at most d^(k-1) (q-1)^k; a trace sum, d (q-1)
    dtype = _narrowest(max(d * (q - 1), d ** (top - 1) * (q - 1) ** top))
    small = dtype is not np.int64
    lows, highs = digit_table(free - split, q, dtype).T, digit_table(split, q, dtype)
    diag = np.arange(0, free, d + 1)  # all but the last diagonal entry
    # rows of high digits packed into one chunk, each over all low digits
    per = min(CHUNK // lows.shape[1], len(highs))
    x = np.empty((d * d, per, lows.shape[1]), dtype)
    x[split:free] = lows[:, None]
    kept = []  # the survivors of each chunk, (d * d, count) in code order
    for start in range(0, len(highs), per):
        high = highs[start:start + per]
        chunk = x[:, :len(high)]
        chunk[:split] = high.T[:, :, None]
        chunk[free] = _mod(-chunk[diag].sum(axis=0, dtype=dtype), q)
        flat = chunk.reshape(d * d, -1)
        # column j of X^top, on the candidates that passed columns 0..j-1;
        # compress keeps the stack C-ordered, where a mask on its last axis
        # would leave it batch-first and every later einsum strided
        for j in range(d):
            mats = flat.reshape(d, d, -1)
            col = mats[:, j]
            for _ in range(top - 1):
                col = np.einsum("ijn,jn->in", mats, col)
                col = col if small else _mod(col, q)
            flat = np.compress(~_mod(col, q).any(axis=0), flat, axis=1)
        kept.append(flat)
    mats = np.concatenate(kept, axis=1).reshape(d, d, -1)
    count = mats.shape[2]
    # X^k, 0 < k < top, of the survivors only, ranked in one call on their
    # concatenation along the batch axis: rank(X^k) of member i at
    # (k - 1) * count + i
    powers = [mats]
    for _ in range(top - 2):
        power = np.einsum("ijn,jkn->ikn", powers[-1], mats)
        powers.append(power if small else _mod(power, q))
    ranks = np.zeros((count, 0), np.int64)
    if top > 1:
        ranks = ranks_mod_p(_mod(np.concatenate(powers, axis=2), q), q).reshape(top - 1, count).T
    return np.moveaxis(mats, 2, 0).astype(np.int64, order="C"), ranks.astype(np.int64, order="C")


# ---------------------------------------------------------------------------
# exhaustive enumeration of representation points
# ---------------------------------------------------------------------------

def tally_points(mats, keys, shape, relations, q: int, n_keys: int) -> np.ndarray:
    """Count the points that kill every relation, per tally key.

    Slot ``s`` holds the candidate matrices ``mats[s]`` (``shape[s]`` of
    them; ``None`` may stand for those of a slot no relation reads) and
    their tally keys ``keys[s]``.  A point picks one candidate
    per slot and adds one to the sum of its slots' keys.  Each relation is
    a list of terms ``(coeff, path)``, a coefficient mod q and the slots
    of its arrow word (leftmost applied last).  Only the slots some
    relation reads are enumerated: their mixed-radix codes are visited in
    chunks of ``CHUNK``.  The points are a product over the slots, so each
    unread slot is folded in afterwards by its key histogram, which is
    exact because keys are mixed-radix digits that never carry.
    """
    read = sorted({s for terms in relations for _, path in terms for s in path})
    radices = [shape[s] for s in read]
    tally = np.zeros(n_keys, np.int64)
    total = math.prod(radices)
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total))
        idx = dict(zip(read, np.unravel_index(codes, radices))) if read else {}
        key = np.zeros(codes.size, np.int64)
        for s, i in idx.items():
            key += keys[s][i]
        for terms in relations:
            acc = 0
            for coeff, path in terms:
                prod = mats[path[0]][idx[path[0]]]
                for s in path[1:]:
                    prod = np.matmul(prod, mats[s][idx[s]]) % q
                acc = (acc + coeff * prod) % q
            alive = ~acc.any(axis=(1, 2))
            idx = {s: i[alive] for s, i in idx.items()}
            key = key[alive]
        tally += np.bincount(key, minlength=n_keys)
    for s in sorted(set(range(len(shape))) - set(read)):
        # c candidates with key k shift c copies of the tally up by k
        counts = np.bincount(keys[s])
        folded = np.zeros(n_keys, np.int64)
        for k in np.flatnonzero(counts):
            folded[k:] += counts[k] * tally[:n_keys - k]
        tally = folded
    return tally
