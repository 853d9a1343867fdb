"""The nilpotent enumerations that the kernel replaced, kept so the
differential tests can compare them with it.

``enumerate_nilpotent`` is the chunked enumeration that the trace-zero
kernel replaced: it forms all q^(d^2) matrices and reduces every power
mod q.  ``enumerate_nilpotent_batch_first`` is the trace-zero kernel as it
was before its stacks moved the batch axis last: (count, d, d) candidates
whose powers are batched ``np.matmul`` products.  Both rank their powers
with the batch-first ``rank_reference.ranks_mod_p``, not the kernel under
test.  ``enumerate_nilpotent_full_powers`` is the batch-last kernel as it
was before it screened candidates one column at a time: it forms every
power of every trace-zero candidate and ranks each power in its own call
of the batch-last ``_kernels.ranks_mod_p``."""
import numpy as np

from quiverstrata import _kernels
from quiverstrata._kernels import CHUNK, _mod, digit_table
from rank_reference import ranks_mod_p


def matrices_from_codes(codes: np.ndarray, rows: int, cols: int, q: int) -> np.ndarray:
    """The rows x cols matrices over F_q whose row-major base-q digits are
    ``codes``; rows * cols must be positive."""
    digits = np.unravel_index(codes, (q,) * (rows * cols))
    return np.stack(digits, axis=-1).astype(np.int64).reshape(-1, rows, cols)


def enumerate_nilpotent(d: int, m: int, q: int):
    """All d x d matrices X over F_q with X^m = 0, plus their rank rows.

    Returns ``(mats, ranks)`` where ``mats`` has shape (count, d, d), in
    the order of their row-major base-q codes, and row i of ``ranks``
    holds rank(X^k) of ``mats[i]`` for 0 < k < min(m, d); with
    X^min(m, d) = 0 this determines the Jordan type.  Every nilpotent
    d x d matrix has X^d = 0, so at most d powers are formed however large
    m is.  Matrices are tested in chunks of ``CHUNK`` and only the
    survivors are kept.  The caller is responsible for keeping q**(d*d)
    within enumerable range.
    """
    if d == 0:
        return np.zeros((1, 0, 0), np.int64), np.zeros((1, 0), np.int64)
    top = min(m, d)
    total = q ** (d * d)
    kept_mats: list[np.ndarray] = []
    kept_ranks: list[np.ndarray] = []
    for start in range(0, total, CHUNK):
        powers = [matrices_from_codes(np.arange(start, min(start + CHUNK, total)),
                                      d, d, q)]
        for _ in range(top - 1):
            powers.append(np.matmul(powers[-1], powers[0]) % q)
        nil = ~powers[-1].any(axis=(1, 2))
        ranks = np.empty((np.count_nonzero(nil), top - 1), np.int64)
        for k in range(1, top):
            ranks[:, k - 1] = ranks_mod_p(powers[k - 1][nil], q)
        kept_mats.append(powers[0][nil])
        kept_ranks.append(ranks)
    return np.concatenate(kept_mats), np.concatenate(kept_ranks)


def enumerate_nilpotent_batch_first(d: int, m: int, q: int):
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


def enumerate_nilpotent_full_powers(d: int, m: int, q: int):
    """All d x d matrices X over F_q with X^m = 0, plus their rank rows.

    Returns ``(mats, ranks)``: ``mats`` (count, d, d) in row-major base-q
    code order, and row i of ``ranks`` holds rank(X^k) of ``mats[i]`` for
    0 < k < top = min(m, d), which with X^top = 0 gives the Jordan type.
    X^m = 0 forces trace 0, so the last diagonal entry (the lowest digit)
    is minus the others' sum: q**(d*d - 1) candidates are formed, chunks of
    low digits from one table under as many rows of high digits as fit,
    with powers kept unreduced in int16 while their bound fits.  The
    candidates and their powers are (d, d, chunk) stacks, the batch axis
    last.  The caller bounds q**(d*d).
    """
    if d == 0:
        return np.zeros((1, 0, 0), np.int64), np.zeros((1, 0), np.int64)
    top, free = min(m, d), d * d - 1
    # fewest high digits whose chunk of low digits fits in CHUNK
    split = next(s for s in range(free + 1) if q ** (free - s) <= CHUNK)
    # unreduced X^k has entries at most d^(k-1) (q-1)^k; a trace sum, d (q-1)
    small = max(d * (q - 1), d ** (top - 1) * (q - 1) ** top) < 1 << 15
    dtype = np.int16 if small else np.int64
    lows, highs = digit_table(free - split, q, dtype).T, digit_table(split, q, dtype)
    diag = np.arange(0, free, d + 1)  # all but the last diagonal entry
    # rows of high digits packed into one chunk, each over all low digits
    per = min(CHUNK // lows.shape[1], len(highs))
    x = np.empty((d * d, per, lows.shape[1]), dtype)
    x[split:free] = lows[:, None]
    kept = [[] for _ in range(max(top - 1, 1))]  # survivors of X^k, 0 < k < max(top, 2)
    for start in range(0, len(highs), per):
        high = highs[start:start + per]
        chunk = x[:, :len(high)]
        chunk[:split] = high.T[:, :, None]
        chunk[free] = _mod(-chunk[diag].sum(axis=0, dtype=dtype), q)
        mats = chunk.reshape(d, d, -1)
        powers = [mats]
        for _ in range(top - 1):
            power = np.einsum("ijn,jkn->ikn", powers[-1], mats)
            powers.append(power if small else _mod(power, q))
        nil = ~_mod(powers[-1], q).any(axis=(0, 1))
        for power, part in zip(powers, kept):
            part.append(power[:, :, nil])
    ranks = np.empty((sum(part.shape[2] for part in kept[0]), top - 1), np.int64)
    for k in range(1, top):
        ranks[:, k - 1] = _kernels.ranks_mod_p(_mod(np.concatenate(kept[k - 1], axis=2), q), q)
    mats = np.moveaxis(np.concatenate(kept[0], axis=2), 2, 0)
    return mats.astype(np.int64, order="C"), ranks
