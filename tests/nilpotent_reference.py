"""The chunked nilpotent enumeration that the trace-zero kernel replaced,
kept apart from names so the differential test can compare the two: it
forms all q^(d^2) matrices and reduces every power mod q."""
import numpy as np

from quiverstrata._kernels import CHUNK, ranks_mod_p


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
