"""The per-assignment path of ``reducibility_scan`` that the lean one
replaced, kept verbatim as module functions (the methods take their
object as the first argument) as the reference of its differential
tests: ``Partition.multiplicities`` by a ``Counter``, ``end_dim`` by one
pass over the parts for each size up to the largest, ``_type_data`` with
the type first, ``PartPairTable.codim_of_types`` over a list of
multiplicities that calls ``entry`` for every pair of parts, and the scan
that builds that list for every assignment."""
import functools
import itertools
from collections import Counter
from typing import Sequence

from quiverstrata.linsys import PartPairTable
from quiverstrata.partitions import JordanAssignment, Partition
from quiverstrata.strata import (ReducibilityCertificate, StratumReport, _check_dims,
                                 stratum_dim)
from walk_reference import partitions_bounded


def multiplicities(self: Partition) -> tuple[tuple[int, int], ...]:
    """(part, number of parts of that size), largest part first."""
    return tuple(Counter(self.parts).items())


def end_dim(p: Partition) -> int:
    """Endomorphism algebra dimension: sum of min(p_i, p_j) over all pairs.

    Computed as the sum of the squared conjugate parts: the pair (i, j)
    counts once for each k <= min(p_i, p_j), and the number of parts
    >= k is the conjugate part p'_k.
    """
    top = p.parts[0] if p.parts else 0
    return sum(sum(1 for part in p.parts if part >= k) ** 2
               for k in range(1, top + 1))


def orbit_dim(p: Partition) -> int:
    """Conjugation orbit dimension of the Jordan matrix: d^2 - end_dim."""
    d = p.weight
    return d * d - end_dim(p)


def codim_of_types(self: PartPairTable,
                   multiplicities: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Codimension of the Jordan types whose (part, count) pairs at
    vertex position k are ``multiplicities[k]``."""
    total = 0
    for t, s in self._pairs:
        for a, ma in multiplicities[t]:
            for b, mb in multiplicities[s]:
                total += ma * mb * self.entry(t, s, a, b)
    return total


@functools.cache
def _type_data(d: int, m: int) -> tuple[tuple[Partition, int, tuple], ...]:
    """(Jordan type, orbit dim, part multiplicities) for each type of
    weight d with parts <= m, in canonical order."""
    return tuple((p, orbit_dim(p), multiplicities(p)) for p in partitions_bounded(d, m))


def reducibility_scan(table: PartPairTable, dims: Sequence[int],
                      cap: int = 100_000) -> ReducibilityCertificate | None:
    """The first non-maximal stratum at least as large as the maximal one.

    A returned certificate proves the representation scheme of this
    dimension vector is reducible; ``None`` proves nothing.  N is
    fixed, so the scan compares orbit dims - codimension (from the table).
    """
    pres = table.pres
    dims = _check_dims(pres, dims, cap)
    data = [_type_data(d, m) for d, m in zip(dims, pres.orders)]

    def size(combo) -> int:
        return (sum(o for _, o, _ in combo)
                - codim_of_types(table, [m for _, _, m in combo]))

    def report(combo) -> StratumReport:
        return stratum_dim(table, JordanAssignment.for_presentation(
            pres, [p for p, _, _ in combo]))

    it = itertools.product(*data)
    first = next(it)
    target = size(first)
    for combo in it:
        if size(combo) >= target:
            return ReducibilityCertificate(dims, report(first), report(combo))
    return None
