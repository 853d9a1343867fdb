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
    "evaluate_relation",
    "assemble_system",
    "assemble_system_at",
    "rank_exact",
    "rank_mod",
    "codim_c",
    "c_additivity_split",
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


def _decompose_term(pres: BoundQuiverPresentation, path) -> tuple[int, str, int]:
    """Split a degree-1 path into loop-power prefix, arrow, loop-power suffix."""
    quiver = pres.quiver
    pre = 0
    arrow_name: Optional[str] = None
    post = 0
    for name in path.arrows:
        a = quiver.arrow(name)
        if a.is_loop:
            if arrow_name is None:
                pre += 1
            else:
                post += 1
        else:
            if arrow_name is not None:
                raise UnsupportedDegreeError(
                    f"path {path} has degree {path.degree}; the linear engine "
                    "supports exactly one non-loop arrow per term"
                )
            arrow_name = name
    if arrow_name is None:
        raise UnsupportedDegreeError(f"path {path} contains no non-loop arrow")
    return pre, arrow_name, post


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
            pre, name, post = _decompose_term(pres, path)
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


def evaluate_relation(pres: BoundQuiverPresentation, rel: Relation,
                      ja: JordanAssignment):
    """Evaluate a degree-1 relation on the Jordan matrices of ``ja``.

    Returns a d_target x d_source grid of linear forms, each a mapping
    from :class:`SymbolicArrowEntry` to its rational coefficient.  The
    forms have no constant part.
    """
    cs = assemble_system(pres, ja, (rel,))
    dims = dict(zip(ja.vertices, ja.dims))
    grid = [[{} for _ in range(dims[rel.source])] for _ in range(dims[rel.target])]
    for (_, i, j), row, scale in zip(cs.row_labels, cs.rows, cs.scales):
        grid[i][j] = {cs.columns[col]: Fraction(v, scale) for col, v in row.items()}
    return grid


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


def _components(cs: ConstraintSystem) -> list[tuple[list[list[int]], list[int]]]:
    """Dense integer blocks of the nonzero rows, with the scale of each row.

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
        blocks.append((dense, [cs.scales[k] for k in ks]))
    return blocks


def rank_exact(cs: ConstraintSystem) -> int:
    """Rank over the rationals: fraction-free integer elimination per block.

    A block with one row or one column has rank 1, since its rows are
    nonzero.
    """
    return sum(1 if len(dense) == 1 or len(dense[0]) == 1
               else _kernels.exact_rank_int(dense)
               for dense, _ in _components(cs))


def rank_mod(cs: ConstraintSystem, p: int) -> int:
    """Rank of the same system with entries reduced modulo a prime.

    Raises :class:`BadPrimeError` when the reduced denominator of some
    entry of :attr:`ConstraintSystem.matrix` vanishes mod ``p``.
    """
    rank = 0
    for dense, scales in _components(cs):
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


def c_additivity_split(pres: BoundQuiverPresentation, ja: JordanAssignment,
                       relations: Optional[Sequence[Relation]] = None
                       ) -> dict[tuple[int, int], int]:
    """Codimension table over single parts of the two endpoint partitions.

    All relations must share one target and one source vertex; the table
    entry (i, j) is the codimension computed with part i alone at the
    target and part j alone at the source.  The values sum to the full
    codimension.
    """
    if relations is None:
        relations = pres.relations
    if not relations:
        raise ValueError("no relations to split")
    tgt = relations[0].target
    src = relations[0].source
    if tgt == src:
        raise ValueError("relations must join two distinct vertices")
    for rel in relations:
        if rel.target != tgt or rel.source != src:
            raise ValueError("relations must share endpoints for the split")
    p_parts = ja.partition(tgt).parts
    q_parts = ja.partition(src).parts
    table: dict[tuple[int, int], int] = {}
    for i, pi in enumerate(p_parts):
        for j, qj in enumerate(q_parts):
            sub = {v: part for v, part in zip(ja.vertices, ja.partitions)}
            sub[tgt] = Partition((pi,), pres.order(tgt))
            sub[src] = Partition((qj,), pres.order(src))
            sub_ja = JordanAssignment.for_presentation(pres, sub)
            table[(i, j)] = codim_c(pres, sub_ja, relations)
    return table
