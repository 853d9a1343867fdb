"""Test-only oracles for Jordan data: the explicit Jordan matrix, the Hom
dimension between indecomposables, the commutant dimension by exact rank,
an independent check of ``partitions.end_dim``, the maximal Jordan
type in closed form, which ``partitions_bounded`` must list first, and
the Jordan type of a power-rank sequence by second differences, which
the oracle classified its loops by before it matched rank codes."""
from typing import Iterable

import numpy as np

from quiverstrata._kernels import exact_rank_int
from quiverstrata.partitions import Partition


def maximal_partition(d: int, m: int) -> Partition:
    if d < 0 or m < 1:
        raise ValueError("need d >= 0 and m >= 1")
    full, r = divmod(d, m)
    parts = (m,) * full + ((r,) if r else ())
    return Partition(parts, m)


def jordan_matrix(p: Partition) -> np.ndarray:
    """Block diagonal nilpotent Jordan matrix, ones on each superdiagonal."""
    d = p.weight
    J = np.zeros((d, d), dtype=np.int64)
    off = 0
    for part in p.parts:
        for i in range(part - 1):
            J[off + i, off + i + 1] = 1
        off += part
    return J


def hom_dim(p: int, q: int) -> int:
    """dim Hom between indecomposables of socle lengths p and q: min(p, q)."""
    if p < 1 or q < 1:
        raise ValueError("parts must be positive")
    return min(p, q)


def commutant_dim_oracle(p: Partition, max_weight: int = 12) -> int:
    """Dimension of {X : X J = J X} by exact rank of the commutation system.

    Independent check for :func:`end_dim`; desk scale only.
    """
    d = p.weight
    if d > max_weight:
        raise ValueError(f"weight {d} exceeds the oracle cap {max_weight}")
    if d == 0:
        return 0
    J = jordan_matrix(p)
    rows = []
    for i in range(d):
        for j in range(d):
            row = {}
            for l in range(d):
                row[i * d + l] = row.get(i * d + l, 0) + int(J[l, j])
            for k in range(d):
                row[k * d + j] = row.get(k * d + j, 0) - int(J[i, k])
            rows.append(row)
    return d * d - exact_rank_int(rows)


def partition_from_ranks(d: int, ranks: Iterable[int], bound: int) -> Partition:
    """Jordan type of a nilpotent matrix from its power-rank sequence.

    ``ranks[k]`` is rank(X^(k+1)); the count of blocks of size >= k is the
    k-th difference of the padded sequence.
    """
    seq = [d, *ranks]
    seq += [0] * (d + 2 - len(seq))
    parts: list[int] = []
    for size in range(d, 0, -1):
        mult = seq[size - 1] - 2 * seq[size] + seq[size + 1]
        parts.extend([size] * mult)
    if sum(parts) != d:
        raise ValueError("rank sequence is not that of a nilpotent matrix")
    return Partition(tuple(parts), bound)
