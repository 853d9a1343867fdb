"""Stratum dimensions, reducibility scans, and certificates.

A stratum fixes the Jordan type of every loop action.  It fibers over the
product of the nilpotent orbits with fiber the solution space of the
relation system, and the fiber dimension is constant along the orbits by
conjugation equivariance, so

    dim stratum = sum of orbit dims + (ambient arrow dim - codimension).

A non-maximal stratum whose dimension reaches the maximal stratum's proves
that the representation scheme is reducible; the scan searches for one.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linsys import codim_table
from .partitions import (JordanAssignment, Partition, maximal_partition,
                         orbit_dim, partitions_bounded)
from .quiver import Arrow, BoundQuiverPresentation, Quiver, relation_mod_orders

__all__ = [
    "StratumReport",
    "ReducibilityCertificate",
    "ScanCapExceeded",
    "ambient_arrow_dim",
    "stratum_dim",
    "max_assignment",
    "max_stratum",
    "jordan_types",
    "assignments_for",
    "reducibility_scan",
    "split_gap_test",
    "nooverlap_dims",
    "build_nooverlap_presentation",
    "dim_vectors_up_to",
]


class ScanCapExceeded(RuntimeError):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"{count} Jordan assignments exceed the scan cap {cap}")


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


def _check_dims(pres: BoundQuiverPresentation, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) != len(pres.quiver.vertices):
        raise ValueError("dimension vector length must match the vertex count")
    if any(d < 0 for d in dims):
        raise ValueError("dimensions must be nonnegative")
    return dims


def ambient_arrow_dim(pres: BoundQuiverPresentation, dims: Sequence[int]) -> int:
    dims = _check_dims(pres, dims)
    of = dict(zip(pres.quiver.vertices, dims))
    return sum(of[a.target] * of[a.source] for a in pres.quiver.non_loop_arrows)


def stratum_dim(pres: BoundQuiverPresentation, ja: JordanAssignment) -> StratumReport:
    """Report for one stratum; requires degree-1 relations."""
    dims = ja.dims
    n = ambient_arrow_dim(pres, dims)
    c = codim_table(pres).codim(ja)
    orbits = tuple(orbit_dim(p) for p in ja.partitions)
    is_max = all(p.is_maximal for p in ja.partitions)
    return StratumReport(ja, orbits, n, c, is_max)


def max_assignment(pres: BoundQuiverPresentation, dims: Sequence[int]) -> JordanAssignment:
    dims = _check_dims(pres, dims)
    parts = [maximal_partition(d, pres.order(v))
             for v, d in zip(pres.quiver.vertices, dims)]
    return JordanAssignment.for_presentation(pres, parts)


def max_stratum(pres: BoundQuiverPresentation, dims: Sequence[int]) -> StratumReport:
    return stratum_dim(pres, max_assignment(pres, dims))


def jordan_types(pres: BoundQuiverPresentation, dims: Sequence[int]
                 ) -> tuple[tuple[int, ...], list[tuple[Partition, ...]]]:
    """The checked dimension vector and the Jordan types at each vertex.

    Their ``itertools.product``, last vertex fastest, is the canonical
    order of the Jordan assignments; the maximal one is first.
    """
    dims = _check_dims(pres, dims)
    return dims, [partitions_bounded(d, pres.order(v))
                  for v, d in zip(pres.quiver.vertices, dims)]


def assignments_for(pres: BoundQuiverPresentation, dims: Sequence[int]
                    ) -> list[JordanAssignment]:
    """All Jordan assignments in canonical order; the maximal pair is first."""
    _, per_vertex = jordan_types(pres, dims)
    return [JordanAssignment.for_presentation(pres, combo)
            for combo in itertools.product(*per_vertex)]


@functools.cache
def _type_data(d: int, m: int) -> tuple[tuple[Partition, int, tuple], ...]:
    """(Jordan type, orbit dim, part multiplicities) for each type of
    weight d with parts <= m, in canonical order."""
    return tuple((p, orbit_dim(p), p.multiplicities) for p in partitions_bounded(d, m))


def reducibility_scan(pres: BoundQuiverPresentation, dims: Sequence[int],
                      cap: int = 100_000, find_all: bool = False):
    """First (or all) non-maximal strata at least as large as the maximal one.

    A returned certificate proves the representation scheme of this
    dimension vector is reducible; an empty result proves nothing.  N is
    fixed, so the scan compares orbit dims - codimension (from the table).
    """
    dims = _check_dims(pres, dims)
    data = [_type_data(d, pres.order(v)) for v, d in zip(pres.quiver.vertices, dims)]
    count = math.prod(len(types) for types in data)
    if count > cap:
        raise ScanCapExceeded(count, cap)
    table = codim_table(pres)

    def size(combo) -> int:
        return (sum(o for _, o, _ in combo)
                - table.codim_of_types([m for _, _, m in combo]))

    def report(combo) -> StratumReport:
        return stratum_dim(pres, JordanAssignment.for_presentation(
            pres, [p for p, _, _ in combo]))

    it = itertools.product(*data)
    first = next(it)
    target = size(first)
    max_report = None
    found: list[ReducibilityCertificate] = []
    for combo in it:
        if size(combo) >= target:
            if max_report is None:
                max_report = report(first)
            cert = ReducibilityCertificate(dims, max_report, report(combo))
            if not find_all:
                return cert
            found.append(cert)
    return found if find_all else None


def split_gap_test(pres: BoundQuiverPresentation, dims: Sequence[int],
                       vertex: Optional[str] = None) -> tuple[bool, int]:
    """Codimension-gap criterion at one vertex with a single-part maximal type.

    Splitting the single part (p) into (p - 1, 1) costs exactly 2 in orbit
    dimension, so a codimension gap of at least 2 certifies reducibility.
    Returns (gap >= 2, gap).
    """
    dims = _check_dims(pres, dims)
    if vertex is None:
        vertex = pres.quiver.vertices[0]
    ja_max = max_assignment(pres, dims)
    pmax = ja_max.partition(vertex)
    if len(pmax.parts) != 1 or pmax.parts[0] < 2:
        raise ValueError(
            f"maximal partition at {vertex!r} must be a single part >= 2"
        )
    p = pmax.parts[0]
    witness_parts = {v: part for v, part in zip(ja_max.vertices, ja_max.partitions)}
    witness_parts[vertex] = Partition((p - 1, 1), pres.order(vertex))
    ja_wit = JordanAssignment.for_presentation(pres, witness_parts)
    table = codim_table(pres)
    gap = table.codim(ja_max) - table.codim(ja_wit)
    return gap >= 2, gap


def dim_vectors_up_to(n_vertices: int, total: int) -> list[tuple[int, ...]]:
    """Dimension vectors with entry sum <= total, lexicographic order."""
    if n_vertices == 0:
        return [()] if total >= 0 else []
    return [(k, *rest) for k in range(total + 1)
            for rest in dim_vectors_up_to(n_vertices - 1, total - k)]


# ---------------------------------------------------------------------------
# three-vertex chain comparison
# ---------------------------------------------------------------------------

def build_nooverlap_presentation(h: int, l: int, n1: int, n2: int, m: int,
                                 lam: Sequence[Fraction | int] = (1,)
                                 ) -> BoundQuiverPresentation:
    """Chain quiver 2 -> 1 -> 0 with a loop of order m at every vertex.

    The two mixed relations tie the first arrow of each hop to the loops;
    the middle loop enters the second relation through the reparameterized
    loop lam_1 e1 + lam_2 e1^2 + ... (lam_1 != 0).
    """
    if not (0 < n1 <= n2 < m):
        raise ValueError("need 0 < n1 <= n2 < m")
    if h < 1 or l < 1:
        raise ValueError("need h >= 1 and l >= 1")
    lam = tuple(Fraction(x) for x in lam)
    if not lam or lam[0] == 0:
        raise ValueError("the leading loop coefficient must be nonzero")
    if len(lam) > m - 1:
        raise ValueError("at most m - 1 loop coefficients")
    vertices = ("0", "1", "2")
    arrows = [Arrow("e0", "0", "0"), Arrow("e1", "1", "1"), Arrow("e2", "2", "2")]
    alphas = [f"a{i + 1}" for i in range(h)]
    betas = [f"b{j + 1}" for j in range(l)]
    arrows.extend(Arrow(n, "1", "0") for n in alphas)
    arrows.extend(Arrow(n, "2", "1") for n in betas)
    quiver = Quiver(vertices, tuple(arrows))
    orders = {"0": m, "1": m, "2": m}

    terms1 = []
    for i in range(n1 + 1):
        word = ["e0"] * i + ["a1"] + ["e1"] * (n1 - i)
        terms1.append((Fraction(1), quiver.path(word)))
    rel1 = relation_mod_orders(quiver, orders, terms1)

    # powers of the reparameterized middle loop, truncated at e1^m
    powers: list[dict[int, Fraction]] = [{0: Fraction(1)}]
    base = {k + 1: c for k, c in enumerate(lam) if c != 0}
    for _ in range(n2):
        nxt: dict[int, Fraction] = {}
        for deg, c in powers[-1].items():
            for dk, ck in base.items():
                nd = deg + dk
                if nd < m:
                    nxt[nd] = nxt.get(nd, Fraction(0)) + c * ck
        powers.append(nxt)
    terms2 = []
    for j in range(n2 + 1):
        for deg, c in powers[j].items():
            word = ["e1"] * deg + ["b1"] + ["e2"] * (n2 - j)
            terms2.append((c, quiver.path(word)))
    rel2 = relation_mod_orders(quiver, orders, terms2)

    return BoundQuiverPresentation(quiver, (m, m, m), (rel1, rel2))


def nooverlap_dims(h: int, l: int, n1: int, n2: int, m: int,
                   lam: Sequence[Fraction | int] = (1,)) -> tuple[int, int]:
    """Dimensions of the two middle-type strata on the chain quiver.

    For the dimension vector (1, n2 + 1, 1) the outer loops act by zero;
    the middle Jordan type is (n2 + 1) for the first stratum and (n2, 1)
    for the second.  The two dimensions coincide for every admissible
    parameter choice, which is the point of the comparison.
    """
    pres = build_nooverlap_presentation(h, l, n1, n2, m, lam)
    one = Partition((1,), m)
    ja_u = JordanAssignment.for_presentation(
        pres, [one, Partition((n2 + 1,), m), one]
    )
    ja_v = JordanAssignment.for_presentation(
        pres, [one, Partition((n2, 1), m), one]
    )
    return stratum_dim(pres, ja_u).dim, stratum_dim(pres, ja_v).dim
