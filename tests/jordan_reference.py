"""Test-only oracles for Jordan data: the explicit Jordan matrix, the Hom
dimension between indecomposables, and the commutant dimension by exact
rank, an independent check of ``partitions.end_dim``."""
import numpy as np

from quiverstrata._kernels import exact_rank_int
from quiverstrata.partitions import Partition


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
            row = [0] * (d * d)
            for l in range(d):
                row[i * d + l] += int(J[l, j])
            for k in range(d):
                row[k * d + j] -= int(J[i, k])
            rows.append(row)
    return d * d - exact_rank_int(rows)
