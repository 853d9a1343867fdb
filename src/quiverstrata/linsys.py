"""Exact linear systems cut out by degree-1 relations on fixed Jordan data.

Fixing the loop matrices turns every degree-1 relation into a linear
condition on the entries of the non-loop arrow matrices.  The rank of the
stacked system is the codimension of its solution space inside the ambient
arrow space.  Rows are sparse integer vectors, each with the positive
scale that turns it back into the rational row, and the rank is taken per
connected component with fraction-free integer elimination: exact, and
free of floats.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import _kernels
from .partitions import JordanAssignment, Partition
from .quiver import BoundQuiverPresentation, Relation

__all__ = [
    "SymbolicArrowEntry",
    "ConstraintSystem",
    "UnsupportedDegreeError",
    "BadPrimeError",
    "assemble_system",
    "assemble_system_at",
    "rank_exact",
    "rank_mod",
    "codim_c",
    "PartPairTable",
    "codim_table",
]


class UnsupportedDegreeError(ValueError):
    """A relation term does not contain exactly one non-loop arrow."""


class BadPrimeError(ValueError):
    """A rational entry cannot be reduced modulo the requested prime."""


class SymbolicArrowEntry(NamedTuple):
    arrow: str
    row: int
    col: int


@dataclass
class ConstraintSystem:
    """Stacked exact system; columns are unknown arrow entries.

    Row k of the rational system is ``rows[k] / scales[k]``, where
    ``rows[k]`` maps column indices to nonzero integers and
    ``scales[k] > 0``.
    """

    rows: list[dict[int, int]]
    scales: list[int]
    row_labels: list[tuple[int, int, int]]  # (relation index, i, j)
    columns: list[SymbolicArrowEntry]

    @property
    def ambient_dim(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> list[list[Fraction]]:
        """Dense rational view, built on demand."""
        out = []
        for row, scale in zip(self.rows, self.scales):
            dense = [Fraction(0)] * len(self.columns)
            for col, v in row.items():
                dense[col] = Fraction(v, scale)
            out.append(dense)
        return out

    def export_text(self) -> str:
        """Plain text dump: `rows cols` header, entries as num/den."""
        lines = [f"{self.n_rows} {self.ambient_dim}"]
        for row in self.matrix:
            lines.append(" ".join(f"{x.numerator}/{x.denominator}" for x in row))
        return "\n".join(lines) + "\n"


# Nonzeros of a loop power L^k as (den, [(i, j, n), ...]) with L^k[i][j] = n / den.
PowerNonzeros = tuple[int, list[tuple[int, int, int]]]


def _assemble(pres: BoundQuiverPresentation, relations: Sequence[Relation],
              dims: Mapping[str, int],
              power: Callable[[str, int], PowerNonzeros]) -> ConstraintSystem:
    """Stack the relations, evaluated on the loop powers ``power(v, k)``.

    A term coeff * L_t^a x L_s^b puts coeff * L_t^a[i][k] * L_s^b[l][j] into
    row (i, j) at the column of x[k][l].  Each relation is scaled once, to
    the lcm of its term denominators, so every row holds integers.
    """
    quiver = pres.quiver
    columns: list[SymbolicArrowEntry] = []
    offset: dict[str, int] = {}
    for a in quiver.non_loop_arrows:
        offset[a.name] = len(columns)
        columns.extend(SymbolicArrowEntry(a.name, k, l)
                       for k in range(dims[a.target]) for l in range(dims[a.source]))
    rows: list[dict[int, int]] = []
    scales: list[int] = []
    row_labels: list[tuple[int, int, int]] = []
    for ridx, rel in enumerate(relations):
        dt, ds = dims[rel.target], dims[rel.source]
        terms = []
        for coeff, path in rel.terms:
            if path.split is None:
                raise UnsupportedDegreeError(
                    f"path {path} has degree {path.degree}; the linear engine "
                    "supports exactly one non-loop arrow per term"
                )
            pre, name, post = path.split
            left_den, left = power(rel.target, pre)
            right_den, right = power(rel.source, post)
            terms.append((coeff.numerator, coeff.denominator * left_den * right_den,
                          name, left, right))
        scale = math.lcm(*(den for _, den, _, _, _ in terms))
        block: list[dict[int, int]] = [{} for _ in range(dt * ds)]
        for num, den, name, left, right in terms:
            c = num * (scale // den)
            base, width = offset[name], dims[rel.source]
            for i, k, a in left:
                ca = c * a
                col0 = base + k * width
                for l, j, b in right:
                    row = block[i * ds + j]
                    col = col0 + l
                    row[col] = row.get(col, 0) + ca * b
        rows += [{col: v for col, v in row.items() if v} for row in block]
        scales += [scale] * len(block)
        row_labels += [(ridx, i, j) for i in range(dt) for j in range(ds)]
    return ConstraintSystem(rows, scales, row_labels, columns)


def _jordan_power(p: Partition, k: int) -> PowerNonzeros:
    """J^k for the Jordan matrix of ``p``: the shift i -> i + k within a block."""
    out = []
    start = 0
    for part in p.parts:
        out += [(i, i + k, 1) for i in range(start, start + part - k)]
        start += part
    return 1, out


def _matrix_power(mat, k: int) -> PowerNonzeros:
    """Nonzeros of ``mat``^k for a square matrix of rationals."""
    d = len(mat)
    entries = [[v if isinstance(v, Fraction) else Fraction(int(v)) for v in row]
               for row in mat]
    power = {(i, i): Fraction(1) for i in range(d)}
    for _ in range(k):
        nxt: dict[tuple[int, int], Fraction] = {}
        for (i, t), v in power.items():
            for j, w in enumerate(entries[t]):
                if w:
                    nxt[i, j] = nxt.get((i, j), 0) + v * w
        power = {key: v for key, v in nxt.items() if v}
    den = math.lcm(*(v.denominator for v in power.values()))
    return den, [(i, j, int(v * den)) for (i, j), v in power.items()]


def assemble_system_at(pres: BoundQuiverPresentation,
                       relations: Sequence[Relation],
                       loop_mats: Mapping[str, Sequence[Sequence]],
                       dims: Mapping[str, int]) -> ConstraintSystem:
    """Stack the relations evaluated on arbitrary rational loop matrices.

    Columns run over all non-loop arrows in declaration order, entries
    row-major, so the column count is the ambient arrow dimension.
    """
    return _assemble(pres, relations, dims,
                     lambda v, k: _matrix_power(loop_mats[v], k))


def assemble_system(pres: BoundQuiverPresentation, ja: JordanAssignment,
                    relations: Optional[Sequence[Relation]] = None) -> ConstraintSystem:
    """The system of ``relations`` (default: all) on the Jordan data ``ja``."""
    if relations is None:
        relations = pres.relations
    parts = dict(zip(ja.vertices, ja.partitions))
    return _assemble(pres, relations, dict(zip(ja.vertices, ja.dims)),
                     lambda v, k: _jordan_power(parts[v], k))


def _components(cs: ConstraintSystem
                ) -> list[tuple[list[int], list[list[int]], list[int]]]:
    """Dense integer blocks of the nonzero rows: (the block's columns as
    indices into ``cs.columns``, its dense rows, the scale of each row).

    Rows that share no column, directly or through other rows, are
    independent, so the blocks are the connected components of the rows
    over their columns (union-find), and any rank of the system is the sum
    of the ranks of its blocks.
    """
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    nonzero = [k for k, row in enumerate(cs.rows) if row]
    for k in nonzero:
        root = -1
        for c in cs.rows[k]:
            r = find(parent.setdefault(c, c))
            if root < 0:
                root = r
            elif r != root:
                parent[r] = root
    members: dict[int, list[int]] = {}
    for k in nonzero:
        members.setdefault(find(next(iter(cs.rows[k]))), []).append(k)
    blocks = []
    for ks in members.values():
        index: dict[int, int] = {}
        for k in ks:
            for c in cs.rows[k]:
                index.setdefault(c, len(index))
        dense = []
        for k in ks:
            out = [0] * len(index)
            for c, v in cs.rows[k].items():
                out[index[c]] = v
            dense.append(out)
        blocks.append((list(index), dense, [cs.scales[k] for k in ks]))
    return blocks


def rank_exact(cs: ConstraintSystem) -> int:
    """Rank over the rationals: fraction-free integer elimination per block.

    A block with one row or one column has rank 1, since its rows are
    nonzero.
    """
    return sum(1 if len(dense) == 1 or len(dense[0]) == 1
               else _kernels.exact_rank_int(dense)
               for _, dense, _ in _components(cs))


def rank_mod(cs: ConstraintSystem, p: int) -> int:
    """Rank of the same system with entries reduced modulo a prime.

    Raises :class:`BadPrimeError` when the reduced denominator of some
    entry of :attr:`ConstraintSystem.matrix` vanishes mod ``p``.
    """
    rank = 0
    for _, dense, scales in _components(cs):
        reduced = []
        for row, scale in zip(dense, scales):
            out = []
            for v in row:
                x = Fraction(v, scale)
                den = x.denominator % p
                if den == 0:
                    raise BadPrimeError(f"denominator of {x} vanishes mod {p}")
                out.append((x.numerator % p) * pow(den, p - 2, p) % p)
            reduced.append(out)
        rank += _kernels.rank_mod_p(reduced, p)
    return rank


def codim_c(pres: BoundQuiverPresentation, ja: JordanAssignment,
            relations: Optional[Sequence[Relation]] = None) -> int:
    """Codimension of the arrow solution space for the given Jordan types."""
    return rank_exact(assemble_system(pres, ja, relations))


class PartPairTable:
    """Codimensions from the ranks r_ts(a, b) of single block pairs.

    A Jordan block only shifts indices within itself, so each relation
    system splits into one part per (target block, source block) pair, and

        codim_c(ja) = sum over (t, s), a, b of m_t(a) * m_s(b) * r_ts(a, b)

    over the vertex pairs (t, s) carrying relations, with m_v(a) the number
    of parts a at vertex v and r_ts(a, b) the codimension of the (t, s)
    relations on the single parts (a) at t and (b) at s, ranked on first use.
    """

    def __init__(self, pres: BoundQuiverPresentation):
        vertices = pres.quiver.vertices
        self._empty = tuple(Partition((), m) for m in pres.orders)
        # raises UnsupportedDegreeError wherever any assembly would
        assemble_system(pres, JordanAssignment(vertices, self._empty))
        self.pres = pres
        position = {v: k for k, v in enumerate(vertices)}
        pairs: dict[tuple[int, int], list[Relation]] = {}
        for rel in pres.relations:
            pairs.setdefault((position[rel.target], position[rel.source]), []).append(rel)
        self._relations = {pair: tuple(rels) for pair, rels in pairs.items()}
        self._ranks: dict[tuple[int, int, int, int], int] = {}

    def entry(self, t: int, s: int, a: int, b: int) -> int:
        """r_ts(a, b), with t and s vertex positions."""
        rank = self._ranks.get((t, s, a, b))
        if rank is None:
            parts = list(self._empty)
            parts[t] = Partition((a,), parts[t].bound)
            parts[s] = Partition((b,), parts[s].bound)
            ja = JordanAssignment(self.pres.quiver.vertices, tuple(parts))
            rank = rank_exact(assemble_system(self.pres, ja,
                                              self._relations.get((t, s), ())))
            self._ranks[t, s, a, b] = rank
        return rank

    def codim_of_types(self, multiplicities: Sequence[Sequence[tuple[int, int]]]) -> int:
        """Codimension of the Jordan types whose (part, count) pairs at
        vertex position k are ``multiplicities[k]``."""
        total = 0
        for t, s in self._relations:
            for a, ma in multiplicities[t]:
                for b, mb in multiplicities[s]:
                    total += ma * mb * self.entry(t, s, a, b)
        return total

    def codim(self, ja: JordanAssignment) -> int:
        """Equal to ``codim_c(pres, ja)``."""
        return self.codim_of_types([ja.partition(v).multiplicities
                                    for v in self.pres.quiver.vertices])


@functools.lru_cache(maxsize=64)
def codim_table(pres: BoundQuiverPresentation) -> PartPairTable:
    """The part-pair table of ``pres``, built once per presentation."""
    return PartPairTable(pres)
