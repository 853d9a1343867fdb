"""Hot numeric kernels.

Exact rank over Q is pure python fraction-free elimination on sparse
integer rows: big integers never overflow, and the block-pair systems it
sees have a few dozen rows, many of them empty.  Empty rows are skipped,
each row is updated in place, and a row is divided by the gcd of its
entries only when that exceeds 1.  The oracle's kernels (ranks over F_p of
matrix stacks and the exhaustive enumerations) are numpy, batched in
chunks of about ``CHUNK`` so memory stays bounded.  The point tally
enumerates the candidates of the slots its relations read and folds in
every other slot by its key histogram; the loop enumeration forms only
trace-zero matrices, since X^m = 0 forces trace 0.
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


# ---------------------------------------------------------------------------
# ranks over a prime field, a stack of matrices at once
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# exhaustive enumeration of bounded nilpotent matrices over F_q
# ---------------------------------------------------------------------------

def digit_table(n: int, q: int, dtype=np.int64) -> np.ndarray:
    """The q**n rows of n base-q digits, in the order of the codes they spell."""
    return np.indices((q,) * n, dtype).reshape(n, q ** n).T


def enumerate_nilpotent(d: int, m: int, q: int):
    """All d x d matrices X over F_q with X^m = 0, plus their rank rows.

    Returns ``(mats, ranks)``: ``mats`` (count, d, d) in row-major base-q
    code order, and row i of ``ranks`` holds rank(X^k) of ``mats[i]`` for
    0 < k < top = min(m, d), which with X^top = 0 gives the Jordan type.
    X^m = 0 forces trace 0, so the last diagonal entry (the lowest digit)
    is minus the others' sum: q**(d*d - 1) candidates are formed, chunks of
    low digits from one table under as many rows of high digits as fit,
    with powers kept unreduced in int16 while their bound fits.  The
    caller bounds q**(d*d).
    """
    if d == 0:
        return np.zeros((1, 0, 0), np.int64), np.zeros((1, 0), np.int64)
    top, free = min(m, d), d * d - 1
    # fewest high digits whose chunk of low digits fits in CHUNK
    split = next(s for s in range(free + 1) if q ** (free - s) <= CHUNK)
    # unreduced X^k has entries at most d^(k-1) (q-1)^k; a trace sum, d (q-1)
    small = max(d * (q - 1), d ** (top - 1) * (q - 1) ** top) < 1 << 15
    dtype = np.int16 if small else np.int64
    lows, highs = digit_table(free - split, q, dtype), digit_table(split, q, dtype)
    diag = np.arange(0, free, d + 1)  # all but the last diagonal entry
    # rows of high digits packed into one chunk, each over all low digits
    per = min(CHUNK // len(lows), len(highs))
    x = np.empty((per, len(lows), d * d), dtype)
    x[:, :, split:free] = lows
    kept = [[] for _ in range(max(top - 1, 1))]  # survivors of X^k, 0 < k < max(top, 2)
    for start in range(0, len(highs), per):
        high = highs[start:start + per]
        chunk = x[:len(high)]
        chunk[:, :, :split] = high[:, None]
        chunk[:, :, free] = -chunk[:, :, diag].sum(axis=2, dtype=dtype) % q
        mats = chunk.reshape(-1, d, d)
        powers = [mats]
        for _ in range(top - 1):
            powers.append(powers[-1] @ mats if small else powers[-1] @ mats % q)
        nil = ~(powers[-1] % q).any(axis=(1, 2))
        for power, part in zip(powers, kept):
            part.append(power[nil])
    ranks = np.empty((sum(map(len, kept[0])), top - 1), np.int64)
    for k in range(1, top):
        ranks[:, k - 1] = ranks_mod_p(np.concatenate(kept[k - 1]) % q, q)
    return np.concatenate(kept[0]).astype(np.int64), ranks


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
