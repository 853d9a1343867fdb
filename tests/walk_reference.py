"""The Jordan-assignment listing that ``strata.jordan_walk`` replaced,
kept verbatim as the reference of its differential tests: the full-type
``partitions_bounded`` and ``assignments_for``, the ``strata`` rows built
from one ``stratum_dim`` report per assignment, as ``cli.cmd_strata``
built them, and the identity check that formed each row from a listed
``JordanAssignment``.  The count table no longer carries a listing, so
``verify_count_identity`` lists the assignments itself."""
import itertools
from typing import Sequence

from quiverstrata import strata
from quiverstrata.fforacle import IdentityRow, StratumCountTable
from quiverstrata.linsys import PartPairTable
from quiverstrata.partitions import (JordanAssignment, Partition, count_partitions_bounded,
                                     jordan_types, orbit_count)
from quiverstrata.quiver import BoundQuiverPresentation
from quiverstrata.strata import _check_dims, ambient_arrow_dim, stratum_dim


def partitions_bounded(d: int, m: int) -> tuple[Partition, ...]:
    """All partitions of d with parts <= m, descending-lex (maximal first):
    the types of :func:`jordan_types` with every part listed."""
    return tuple(Partition.from_pairs(pairs, m) for pairs in jordan_types(d, m))


def assignments_for(pres: BoundQuiverPresentation, dims: Sequence[int],
                    cap: int | None = None) -> list[JordanAssignment]:
    """All Jordan assignments in canonical order, the product of the
    Jordan types at each vertex with the last vertex fastest; the maximal
    assignment is first.  More than ``cap`` of them raise
    :class:`ScanCapExceeded` before any is listed, and then types that
    may hold more than ``_MAX_PARTS`` parts raise ``ValueError``."""
    dims = _check_dims(pres, dims, cap)
    if cap is not None:
        parts = sum(count_partitions_bounded(d, m) * d for d, m in zip(dims, pres.orders))
        if parts > strata._MAX_PARTS:
            raise ValueError(f"the Jordan types at d = {dims} may hold {parts} parts, "
                             f"more than the bound {strata._MAX_PARTS}")
    per_vertex = [partitions_bounded(d, m) for d, m in zip(dims, pres.orders)]
    return [JordanAssignment.for_presentation(pres, combo)
            for combo in itertools.product(*per_vertex)]


def stratum_rows(table: PartPairTable, dims: Sequence[int], cap: int = 100_000) -> list[list]:
    """The rows ``strata`` printed: one ``stratum_dim`` report per listed
    assignment, its maximal flag from the report."""
    reports = [stratum_dim(table, ja) for ja in assignments_for(table.pres, dims, cap)]
    return [[r.assignment.serialize(),
             "|".join(str(o) for o in r.orbit_dims),
             r.ambient_dim, r.codim, r.dim, "*" if r.is_maximal else ""]
            for r in reports]


def verify_count_identity(counts: StratumCountTable,
                          table: PartPairTable) -> list[IdentityRow]:
    """Per-stratum check of count = (orbit counts) * q^(N - c), c from
    table, over ``assignments_for(table.pres, counts.dims)``; each distinct
    Jordan type's orbit count is formed once."""
    q = counts.q
    n = ambient_arrow_dim(table.pres, counts.dims)
    orbits: dict = {}
    rows = []
    for ja in assignments_for(table.pres, counts.dims):
        pred = q ** (n - table.codim(ja))
        for p in ja.partitions:
            if p not in orbits:
                orbits[p] = orbit_count(p, q)
            pred *= orbits[p]
        rows.append(IdentityRow(ja, counts.counts.get(ja, 0), pred))
    return rows
