"""Stratum dimensions, reducibility scans, and certificates.

A stratum fixes the Jordan type of every loop action.  It fibers over the
product of the nilpotent orbits with fiber the solution space of the
relation system, and the fiber dimension is constant along the orbits by
conjugation equivariance, so

    dim stratum = sum of orbit dims + (ambient arrow dim - codimension).

A non-maximal stratum whose dimension reaches the maximal stratum's proves
that the representation scheme is reducible; the scan searches for one.
Both read codimensions from a ``PartPairTable``, which the caller builds
once per presentation and passes in; ``table.pres`` is the presentation.
All walk a vector's Jordan assignments as the table's type records, by
``jordan_walk``; given a cap, they are counted before any is listed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .linsys import PartPairTable
from .partitions import JordanAssignment, Partition, count_partitions_bounded, orbit_dim
from .quiver import BoundQuiverPresentation

__all__ = [
    "StratumReport",
    "ReducibilityCertificate",
    "ScanCapExceeded",
    "ambient_arrow_dim",
    "stratum_dim",
    "jordan_walk",
    "stratum_rows",
    "reducibility_scan",
    "dim_vectors_up_to",
]


class ScanCapExceeded(ValueError):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"{count} Jordan assignments exceed the cap {cap}")


@dataclass(frozen=True)
class StratumReport:
    assignment: JordanAssignment
    orbit_dims: tuple[int, ...]
    ambient_dim: int
    codim: int
    is_maximal: bool

    @property
    def dim(self) -> int:
        return sum(self.orbit_dims) + self.ambient_dim - self.codim


@dataclass(frozen=True)
class ReducibilityCertificate:
    """Witness stratum at least as large as the maximal one.

    The margin decomposes exactly as the codimension gap plus the
    per-vertex orbit dimension gaps.
    """

    dims: tuple[int, ...]
    maximal: StratumReport
    witness: StratumReport

    @property
    def margin(self) -> int:
        return self.witness.dim - self.maximal.dim

    @property
    def codim_gap(self) -> int:
        return self.maximal.codim - self.witness.codim

    @property
    def orbit_gaps(self) -> tuple[int, ...]:
        return tuple(w - m for w, m in
                     zip(self.witness.orbit_dims, self.maximal.orbit_dims))

    def to_text(self) -> str:
        lines = [
            f"dimension vector: ({', '.join(str(d) for d in self.dims)})",
            f"maximal assignment: {self.maximal.assignment.serialize()}",
            f"witness assignment: {self.witness.assignment.serialize()}",
            f"ambient arrow dim N: {self.maximal.ambient_dim}",
            f"c (maximal): {self.maximal.codim}",
            f"c (witness): {self.witness.codim}",
            f"dim (maximal): {self.maximal.dim}",
            f"dim (witness): {self.witness.dim}",
            f"margin: {self.margin}",
            ("margin decomposition: codim gap {} + orbit gaps ({}) = {}".format(
                self.codim_gap,
                ", ".join(str(g) for g in self.orbit_gaps),
                self.margin,
            )),
        ]
        return "\n".join(lines)


# the largest dimension at a vertex whose Jordan types are counted: the
# count keeps d + 1 integers, and a type of order 1 has d parts.  At 10^7,
# strata took 1.7 s and 411 MB to count the types of A(1,2,2,1), and 4.3 s
# and 813 MB to list the one type of Aprime(1,1,1), on a 2-CPU host
_MAX_DIM = 10 ** 7
# the parts that ``stratum_rows`` may print: each type at a
# vertex v has at most d_v parts, so the sum over v of (types at v)·d_v
# bounds them.  strata prints every part of every row.  Just below the
# bound, strata took 6.6 s and 218 MB on A(1,2,2,1) at (6323, 1); just
# above it, 8.6 s and 224 MB on truncpoly(3) at 620 (2.005·10^7); at
# 5·10^7, 21 s and 494 MB on A(1,2,2,1) at (10000, 1); at 9.2·10^7, 40 s
# and 992 MB on truncpoly(3) at 1092; one process each on a 2-CPU host
_MAX_PARTS = 2 * 10 ** 7


def _check_dims(pres: BoundQuiverPresentation, dims: Sequence[int],
                cap: int | None = None) -> tuple[int, ...]:
    """The checked dimension vector.  Given a cap, its Jordan assignments
    are counted, not listed, so a vector far over the cap fails at once,
    and a dimension above ``_MAX_DIM`` fails before they are counted."""
    dims = tuple(map(int, dims))
    if len(dims) != len(pres.quiver.vertices):
        raise ValueError("dimension vector length must match the vertex count")
    if min(dims, default=0) < 0:
        raise ValueError("dimensions must be nonnegative")
    if cap is not None:
        if max(dims, default=0) > _MAX_DIM:
            raise ValueError(f"dimension {max(dims)} exceeds the bound {_MAX_DIM}")
        count = math.prod(map(count_partitions_bounded, dims, pres.orders))
        if count > cap:
            raise ScanCapExceeded(count, cap)
    return dims


def ambient_arrow_dim(pres: BoundQuiverPresentation, dims: Sequence[int]) -> int:
    dims = _check_dims(pres, dims)
    of = dict(zip(pres.quiver.vertices, dims))
    return sum(of[a.target] * of[a.source] for a in pres.quiver.non_loop_arrows)


def stratum_dim(table: PartPairTable, ja: JordanAssignment) -> StratumReport:
    """Report for one stratum of ``table.pres``."""
    n = ambient_arrow_dim(table.pres, ja.dims)
    c = table.codim(ja)
    orbits = tuple(orbit_dim(p) for p in ja.partitions)
    is_max = all(p.is_maximal for p in ja.partitions)
    return StratumReport(ja, orbits, n, c, is_max)


def jordan_walk(table: PartPairTable, dims: Sequence[int],
                per_type: Callable[[Partition], object] | None = None) -> Iterator[tuple]:
    """The Jordan assignments of the checked vector ``dims`` in canonical
    order, the last vertex fastest and the maximal assignment first: each is
    one record (pairs, orbit dim) of ``table.types`` per vertex; given
    ``per_type``, a record also holds ``per_type(p)``, formed once per type p,
    a ``Partition``, and shared by the vertices of the same (d, m)."""
    orders = table.pres.orders
    types = [table.types(d, m) for d, m in zip(dims, orders)]
    if per_type is not None:
        shared = {(d, m): [(pairs, o, per_type(Partition.from_pairs(pairs, m)))
                           for pairs, o in table.types(d, m)]
                  for d, m in dict.fromkeys(zip(dims, orders))}
        types = [shared[key] for key in zip(dims, orders)]
    return itertools.product(*types)


def stratum_rows(table: PartPairTable, dims: Sequence[int], cap: int = 100_000) -> list[list]:
    """The rows ``strata`` prints, one per Jordan assignment of ``dims`` in
    canonical order: assignment, orbit dims, N, c, dim, and ``*`` on the
    first, the maximal one.  More than ``cap`` assignments raise
    :class:`ScanCapExceeded` before any is listed, and then types that may
    hold more than ``_MAX_PARTS`` parts raise ``ValueError``."""
    pres = table.pres
    dims = _check_dims(pres, dims, cap)
    parts = sum(count_partitions_bounded(d, m) * d for d, m in zip(dims, pres.orders))
    if parts > _MAX_PARTS:
        raise ValueError(f"the Jordan types at d = {dims} may hold {parts} parts, "
                         f"more than the bound {_MAX_PARTS}")
    n, rows = ambient_arrow_dim(pres, dims), []
    for combo in jordan_walk(table, dims, Partition.serialize):
        orbits, c = sum(o for _, o, _ in combo), table.codim_of_types(combo)
        rows.append(["|".join(text for _, _, text in combo),
                     "|".join(str(o) for _, o, _ in combo), n, c, orbits + n - c, ""])
    rows[0][-1] = "*"
    return rows


def reducibility_scan(table: PartPairTable, dims: Sequence[int],
                      cap: int = 100_000) -> ReducibilityCertificate | None:
    """The first non-maximal stratum at least as large as the maximal one.

    A returned certificate proves the representation scheme of this
    dimension vector is reducible; ``None`` proves nothing.  N is
    fixed, so the scan compares orbit dims - codimension, both read from
    the table's records; a ``Partition`` is built only for the reports.
    """
    pres = table.pres
    dims = _check_dims(pres, dims, cap)
    codim_of_types = table.codim_of_types

    def size(combo) -> int:
        orbits = 0
        for _, o in combo:
            orbits += o
        return orbits - codim_of_types(combo)

    def report(combo) -> StratumReport:
        return stratum_dim(table, JordanAssignment.for_presentation(
            pres, map(Partition.from_pairs, (pairs for pairs, _ in combo), pres.orders)))

    it = jordan_walk(table, dims)
    first = next(it)
    target = size(first)
    for combo in it:
        if size(combo) >= target:
            return ReducibilityCertificate(dims, report(first), report(combo))
    return None


# dimension vectors one call yields, a bound on the time a scan of them
# takes: 998,991 took reduce-scan --cap 1 about 9 s at 30 MB peak on a
# 2-CPU host (A(1,4,4,2), total 1412)
_MAX_VECTORS = 10 ** 6


def dim_vectors_up_to(n_vertices: int, total: int) -> Iterator[tuple[int, ...]]:
    """Dimension vectors with entry sum <= total, lexicographic order,
    yielded one at a time.  There are C(total + n_vertices, n_vertices) of
    them, counted when this is called, before any is yielded; more than
    ``_MAX_VECTORS`` raise ``ValueError``."""
    count = math.comb(total + n_vertices, n_vertices) if total >= 0 else 0
    if count > _MAX_VECTORS:
        raise ValueError(f"{count} dimension vectors with entry sum <= {total} "
                         f"exceed the bound {_MAX_VECTORS}")
    return _dim_vectors(n_vertices, total)


def _dim_vectors(n_vertices: int, total: int) -> Iterator[tuple[int, ...]]:
    if n_vertices == 0:
        if total >= 0:
            yield ()
        return
    for k in range(total + 1):
        for rest in _dim_vectors(n_vertices - 1, total - k):
            yield (k, *rest)
