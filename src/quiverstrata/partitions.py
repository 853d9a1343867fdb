"""Bounded partitions, nilpotent Jordan matrices, and orbit dimensions."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _kernels
from .quiver import BoundQuiverPresentation, PresentationError

__all__ = [
    "Partition",
    "JordanAssignment",
    "jordan_types",
    "count_partitions_bounded",
    "end_dim",
    "orbit_dim",
    "orbit_count",
    "orbit_count_ff",
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

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], bound: int) -> "Partition":
        """The type of the (part, count) pairs, largest part first."""
        return cls(tuple(chain.from_iterable(repeat(a, count) for a, count in pairs)), bound)

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
        return all(p == self.bound for p in self.parts[:-1])

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def __str__(self) -> str:
        return self.serialize()


def jordan_types(d: int, m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The partitions of d with parts <= m as (part, count) pairs, largest part
    first, descending-lex (maximal first): each step lowers a part of the least
    size above 1, refills it and the 1s greedily, and holds min(m, d) pairs at most."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    pairs: list[tuple[int, int]] = []
    units, size = d, min(m, d)
    while True:
        while units:  # refill greedily with parts <= size
            full, units = divmod(units, size)
            pairs.append((size, full))
            size = units
        yield tuple(pairs)
        ones = pairs.pop()[1] if pairs and pairs[-1][0] == 1 else 0
        if not pairs:
            return
        size, count = pairs.pop()
        if count > 1:
            pairs.append((size, count - 1))
        units, size = size + ones, size - 1


@functools.cache
def count_partitions_bounded(d: int, m: int) -> int:
    """The number of types ``jordan_types(d, m)`` lists, without listing them:
    the O(d·min(d, m)) recurrence that adds the parts 1, ..., min(d, m) in turn."""
    if d < 0 or m < 1:
        raise ValueError("need d >= 0 and m >= 1")
    ways = [1] + [0] * d
    for part in range(1, min(m, d) + 1):
        for n in range(part, d + 1):
            ways[n] += ways[n - part]
    return ways[d]


def end_dim(p: Partition) -> int:
    """Endomorphism algebra dimension: sum of min(p_i, p_j) over all pairs."""
    return _end_dim(p.multiplicities)


def _end_dim(pairs: Sequence[tuple[int, int]]) -> int:
    """``end_dim`` of the type with these (part, count) pairs, computed as
    the sum of the squared conjugate parts: the pair (i, j) counts once for
    each k <= min(p_i, p_j), and the number of parts >= k is the conjugate
    part p'_k.  Over the distinct part sizes a_1 > a_2 > ... > a_r with
    multiplicities m_i, and a_(r+1) = 0, p'_k = m_1 + ... + m_i for a_(i+1)
    < k <= a_i, so the sum is sum_i (a_i - a_(i+1)) * (m_1 + ... + m_i)^2."""
    total = above = 0
    for (a, m), (below, _) in zip(pairs, (*pairs[1:], (0, 0))):
        above += m
        total += (a - below) * above * above
    return total


def orbit_dim(p: Partition) -> int:
    """Conjugation orbit dimension of the Jordan matrix: d^2 - end_dim."""
    return p.weight ** 2 - end_dim(p)


def rank_sequence(p: Partition) -> list[int]:
    """rank(J^k) for k = 0, 1, ...: sum of max(p_i - k, 0)."""
    top = p.parts[0] if p.parts else 0
    return [sum(max(part - k, 0) for part in p.parts) for k in range(top + 1)]


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
        for v, p, m in zip(verts, parts, pres.orders):
            if p.bound != m:
                raise PresentationError(
                    f"partition bound {p.bound} at {v!r} differs from order {m}")
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
