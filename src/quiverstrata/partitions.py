"""Bounded partitions, nilpotent Jordan matrices, and orbit dimensions."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

import numpy as np

from . import _kernels
from .quiver import BoundQuiverPresentation, PresentationError

__all__ = [
    "Partition",
    "JordanAssignment",
    "partitions_bounded",
    "count_partitions_bounded",
    "end_dim",
    "orbit_dim",
    "orbit_count",
    "orbit_count_ff",
    "partition_from_ranks",
    "rank_sequence",
]


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts, each at most ``bound``."""

    parts: tuple[int, ...]
    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError(f"parts {self.parts} are not weakly decreasing")
        if self.parts and (self.parts[-1] < 1 or self.parts[0] > self.bound):
            raise ValueError(f"parts {self.parts} violate the bound {self.bound}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def multiplicities(self) -> tuple[tuple[int, int], ...]:
        """(part, number of parts of that size), largest part first: one
        Python step per distinct part size."""
        return tuple((a, len(list(run))) for a, run in groupby(self.parts))

    @property
    def is_maximal(self) -> bool:
        """True for (m, ..., m, r); the dense Jordan type of its weight."""
        if not self.parts:
            return True
        head, tail = self.parts[:-1], self.parts[-1]
        return all(p == self.bound for p in head) and 1 <= tail <= self.bound

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def __str__(self) -> str:
        return self.serialize()


@functools.cache
def partitions_bounded(d: int, m: int) -> tuple[Partition, ...]:
    """All partitions of d with parts <= m, descending-lex (maximal first).

    Iterative, so the number of parts is not bounded by the recursion
    limit: each step lowers the last part above 1 by one and refills the
    units freed from it and the trailing 1s greedily with parts no larger."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    full, rest = divmod(d, m)
    parts = [m] * full + ([rest] if rest else [])
    out = [Partition(tuple(parts), m)]
    while parts and parts[0] > 1:
        freed = 0
        while parts[-1] == 1:
            parts.pop()
            freed += 1
        top = parts.pop() - 1
        full, rest = divmod(freed + 1 + top, top)
        parts += [top] * full + ([rest] if rest else [])
        out.append(Partition(tuple(parts), m))
    return tuple(out)


@functools.cache
def count_partitions_bounded(d: int, m: int) -> int:
    """``len(partitions_bounded(d, m))`` without listing them: the
    O(d·m) recurrence that adds the parts 1, ..., m one size at a time."""
    if d < 0 or m < 1:
        raise ValueError("need d >= 0 and m >= 1")
    ways = [1] + [0] * d
    for part in range(1, min(m, d) + 1):
        for n in range(part, d + 1):
            ways[n] += ways[n - part]
    return ways[d]


def end_dim(p: Partition) -> int:
    """Endomorphism algebra dimension: sum of min(p_i, p_j) over all pairs.

    Computed as the sum of the squared conjugate parts: the pair (i, j)
    counts once for each k <= min(p_i, p_j), and the number of parts
    >= k is the conjugate part p'_k.  Over the distinct part sizes
    a_1 > a_2 > ... > a_r with multiplicities m_i, and a_(r+1) = 0,
    p'_k = m_1 + ... + m_i for a_(i+1) < k <= a_i, so the sum is
    sum_i (a_i - a_(i+1)) * (m_1 + ... + m_i)^2, one step per size.
    """
    total = above = 0
    mults = p.multiplicities
    for (a, m), (below, _) in zip(mults, mults[1:] + ((0, 0),)):
        above += m
        total += (a - below) * above * above
    return total


def orbit_dim(p: Partition) -> int:
    """Conjugation orbit dimension of the Jordan matrix: d^2 - end_dim."""
    d = p.weight
    return d * d - end_dim(p)


def rank_sequence(p: Partition) -> list[int]:
    """rank(J^k) for k = 0, 1, ...: sum of max(p_i - k, 0)."""
    top = p.parts[0] if p.parts else 0
    return [sum(max(part - k, 0) for part in p.parts) for k in range(top + 1)]


def partition_from_ranks(d: int, ranks: Iterable[int], bound: int) -> Partition:
    """Jordan type of a nilpotent matrix from its power-rank sequence.

    ``ranks[k]`` is rank(X^(k+1)); the count of blocks of size >= k is the
    k-th difference of the padded sequence.
    """
    seq = [d] + list(ranks)
    while len(seq) < d + 2:
        seq.append(0)
    parts: list[int] = []
    for size in range(d, 0, -1):
        mult = seq[size - 1] - 2 * seq[size] + seq[size + 1]
        parts.extend([size] * mult)
    if sum(parts) != d:
        raise ValueError("rank sequence is not that of a nilpotent matrix")
    return Partition(tuple(parts), bound)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def orbit_count(p: Partition, q: int) -> int:
    """Number of matrices over F_q similar to the Jordan matrix of ``p``.

    Closed form |GL_d(F_q)| / |C(J_p)|, where the centralizer has order
    q^(end_dim(p) - sum_i m_i (m_i + 1) / 2) * prod_i prod_{k <= m_i} (q^k - 1)
    and m_i is the number of parts equal to i (Macdonald, *Symmetric
    Functions and Hall Polynomials*, Ch. II).
    """
    if not _is_prime(q):
        raise ValueError("q must be prime")
    d = p.weight
    gl = math.prod(q ** d - q ** k for k in range(d))
    mults = [m for _, m in p.multiplicities]
    centralizer = q ** (end_dim(p) - sum(m * (m + 1) // 2 for m in mults))
    for m in mults:
        centralizer *= math.prod(q ** k - 1 for k in range(1, m + 1))
    return gl // centralizer


def orbit_count_ff(p: Partition, q: int, max_points: int = 1 << 24) -> int:
    """Number of matrices over F_q similar to the Jordan matrix of ``p``.

    Exhaustive: enumerates every nilpotent candidate and classifies it by
    rank sequence, an independent check of :func:`orbit_count`.  Capped at
    weight 4 and q <= 5.
    """
    d = p.weight
    if d > 4 or q > 5:
        raise ValueError("orbit_count_ff is capped at weight <= 4 and q <= 5")
    if not _is_prime(q):
        raise ValueError("q must be prime")
    if d == 0:
        return 1
    if q ** (d * d) > max_points:
        raise ValueError("enumeration would exceed max_points")
    top = p.parts[0]
    _, ranks = _kernels.enumerate_nilpotent(d, top, q)
    return int(np.count_nonzero((ranks == rank_sequence(p)[1:top]).all(axis=1)))


@dataclass(frozen=True)
class JordanAssignment:
    """One bounded partition per vertex; the Jordan type of each loop action."""

    vertices: tuple[str, ...]
    partitions: tuple[Partition, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.partitions):
            raise ValueError("one partition per vertex required")

    @classmethod
    def for_presentation(cls, pres: BoundQuiverPresentation,
                         assignment: Iterable[Partition]) -> "JordanAssignment":
        """One partition per vertex of ``pres``, in vertex order."""
        verts = pres.quiver.vertices
        parts = tuple(assignment)
        if len(parts) != len(verts):
            raise ValueError("one partition per vertex required")
        for v, p in zip(verts, parts):
            if p.bound != pres.order(v):
                raise PresentationError(
                    f"partition bound {p.bound} at {v!r} differs from order {pres.order(v)}"
                )
        return cls(verts, parts)

    def partition(self, vertex: str) -> Partition:
        return self.partitions[self.vertices.index(vertex)]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.weight for p in self.partitions)

    def serialize(self) -> str:
        return "|".join(p.serialize() for p in self.partitions)

    def __str__(self) -> str:
        return self.serialize()
