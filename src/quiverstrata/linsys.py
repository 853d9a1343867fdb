"""Exact linear systems cut out by degree-1 relations on fixed Jordan data.

Fixing the loop matrices in Jordan form turns every degree-1 relation into
a linear condition on the entries of the non-loop arrow matrices.  The rank
of the stacked system is the codimension of its solution space inside the
ambient arrow space.  A Jordan block only shifts indices within itself, so
the system splits into one part per (target block, source block) pair:
``assemble_system`` builds one such part and ``PartPairTable`` sums their
ranks, ranking each part once; its caller builds one table per
presentation and hands it to every query, and no module keeps one.  The
engine reads a relation as integer split terms,
``(coefficient, loop power before, arrow index, loop power after)``:
``integer_terms`` scales a relation's rational terms once by the lcm of
their denominators, which changes no rank, and ``split_terms`` makes them
once per presentation from the split terms a ``Relation`` stores, by
numbering their arrows.  Rows are sparse integer vectors;
``assemble_system`` builds them in one pass, deleting each entry that
cancels as it is added, and keeps empty rows.  One sparse
fraction-free elimination, ``_kernels.exact_rank_int``, ranks them over
Q: it reduces the rows in place, with no copy, divides a row by its gcd
only when that exceeds 1, and uses no floats.  Ranking spends a system:
its rows keep their row space over Q but not their values, so every
system is assembled for the one rank taken of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _kernels
from .partitions import JordanAssignment, _end_dim, jordan_types
from .quiver import BoundQuiverPresentation, Relation

__all__ = [
    "ConstraintSystem",
    "integer_terms",
    "split_terms",
    "assemble_system",
    "rank_exact",
    "PartPairTable",
]


# (coefficient, loop power before, index of the non-loop arrow, loop power after)
Term = tuple[int, int, int, int]


@dataclass
class ConstraintSystem:
    """Stacked exact system; columns are unknown arrow entries, and
    ``rows[k]`` maps column indices to nonzero integers."""

    rows: list[dict[int, int]]
    ambient_dim: int

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> list[list[int]]:
        """Dense integer view, built on demand."""
        out = []
        for row in self.rows:
            dense = [0] * self.ambient_dim
            for col, v in row.items():
                dense[col] = v
            out.append(dense)
        return out


def integer_terms(terms: Sequence[tuple]) -> list[Term]:
    """Split terms with rational coefficients (``Fraction`` or ``int``),
    all of one relation, times the lcm of their denominators: the same
    relation up to a positive scale, with integer coefficients."""
    scale = math.lcm(*(coeff.denominator for coeff, *_ in terms))
    return [(coeff.numerator * (scale // coeff.denominator), pre, k, post)
            for coeff, pre, k, post in terms]


def split_terms(rel: Relation, arrows: Sequence[str]) -> list[Term]:
    """The integer terms of ``rel``, each arrow by its index in
    ``arrows``, the non-loop arrows from its source to its target."""
    index = {name: k for k, name in enumerate(arrows)}
    return integer_terms([(coeff, pre, index[name], post)
                          for coeff, pre, name, post in rel.terms])


def assemble_system(n_arrows: int, relations: Sequence[Sequence[Term]],
                    a: int, b: int) -> ConstraintSystem:
    """The system of ``relations``, each a list of integer split terms, all
    from one vertex s to one vertex t, on the single Jordan blocks (a) at t
    and (b) at s.

    J^k shifts indices by k within its block, so a term (c, pre, k, post),
    that is c * J^pre x_k J^post, puts c into row (i, j) at the column of
    x_k[i + pre][j - post], wherever both indices stay inside their blocks.
    A zero coefficient is skipped, and an entry that cancels is deleted as
    it is added, so no row stores a zero; every row is kept, empty or not.
    Rows run over the relations, then (i, j) row-major; columns run over
    the ``n_arrows`` arrows s -> t, then entries row-major.
    """
    rows: list[dict[int, int]] = []
    for terms in relations:
        block: list[dict[int, int]] = [{} for _ in range(a * b)]
        for c, pre, k, post in terms:
            if not c:
                continue
            for i in range(a - pre):
                # x_k[i + pre][j - post] for j = post .. b-1, in row (i, j)
                col = k * a * b + (i + pre) * b
                for row in block[i * b + post:(i + 1) * b]:
                    v = row.get(col, 0) + c
                    if v:
                        row[col] = v
                    else:
                        del row[col]
                    col += 1
        rows += block
    return ConstraintSystem(rows, n_arrows * a * b)


# the type records a table keeps across its listings: storing a listing
# that would pass it first drops every listing kept, so the table holds at
# most this many records plus one listing.  A record took about 276 bytes
# (tracemalloc, truncpoly(3) at d = 400..420), so the bound is about 140 MB.
# Whole scans keep far fewer: 17,338 records for A(1,5,5,4) to total 40 and
# 8,547 for A(2,6,6,5) to total 30.  reduce-scan on truncpoly(3) to total
# 620 lists 6,732,908 records, none reused: unbounded it peaked at 1,978 MB
# in 31.9 s, and with this bound at 183 MB in 27.5 s, with the same stdout;
# one process each on a 2-CPU host
_MAX_RECORDS = 5 * 10 ** 5


def rank_exact(cs: ConstraintSystem) -> int:
    """Rank over the rationals, by sparse fraction-free integer elimination.

    The system is spent: its rows are reduced in place and keep their row
    space over Q, but not their values or their ranks over F_p."""
    return _kernels.exact_rank_int(cs.rows)


class PartPairTable:
    """Codimensions from the ranks r_ts(a, b) of single block pairs.

    A Jordan block only shifts indices within itself, so each relation
    system splits into one part per (target block, source block) pair, and

        c(ja) = sum over (t, s), a, b of m_t(a) * m_s(b) * r_ts(a, b)

    over the vertex pairs (t, s) carrying relations, with m_v(a) the number
    of parts a at vertex v and r_ts(a, b) the codimension of the (t, s)
    relations on the single parts (a) at t and (b) at s, ranked on first use.
    """

    def __init__(self, pres: BoundQuiverPresentation):
        self.pres = pres
        position = {v: k for k, v in enumerate(pres.quiver.vertices)}

        def pair(x) -> tuple[int, int]:
            return position[x.target], position[x.source]

        arrows: dict[tuple[int, int], list[str]] = {}
        for x in pres.quiver.non_loop_arrows:
            arrows.setdefault(pair(x), []).append(x.name)
        # (number of arrows t <- s, split relations t <- s) per related pair
        self._pairs: dict[tuple[int, int], tuple[int, list[list[Term]]]] = {}
        for rel in pres.relations:
            ts = pair(rel)
            names = arrows.get(ts, ())
            self._pairs.setdefault(ts, (len(names), []))[1].append(split_terms(rel, names))
        self._ranks: dict[tuple[int, int, int, int], int] = {}
        self._types: dict[tuple[int, int], tuple[tuple[tuple, int], ...]] = {}

    def entry(self, t: int, s: int, a: int, b: int) -> int:
        """r_ts(a, b), with t and s vertex positions."""
        rank = self._ranks.get((t, s, a, b))
        if rank is None:
            n_arrows, relations = self._pairs.get((t, s), (0, ()))
            rank = rank_exact(assemble_system(n_arrows, relations, a, b))
            self._ranks[t, s, a, b] = rank
        return rank

    def types(self, d: int, m: int) -> tuple[tuple[tuple, int], ...]:
        """A record (pairs, orbit dim) for each Jordan type of weight d and
        order m, in the order of ``jordan_types``, listed on first use and
        kept with the table, so no module keeps a listing.  A listing that
        would take the records kept past ``_MAX_RECORDS`` first drops every
        listing kept; a dropped one is listed again when asked for."""
        if (d, m) not in self._types:
            records = tuple((pairs, d * d - _end_dim(pairs)) for pairs in jordan_types(d, m))
            if sum(map(len, self._types.values())) + len(records) > _MAX_RECORDS:
                self._types.clear()
            self._types[d, m] = records
        return self._types[d, m]

    def codim_of_types(self, types: Sequence[Sequence]) -> int:
        """Codimension of the Jordan types at the vertex positions, with
        ``types[k][0]`` the (part, count) pairs at position k: the layout
        of the records of ``types``.  A rank already in the table is read
        in this frame; ``entry`` ranks the others."""
        ranks = self._ranks
        total = 0
        for t, s in self._pairs:
            at_s = types[s][0]
            for a, ma in types[t][0]:
                for b, mb in at_s:
                    rank = ranks.get((t, s, a, b))
                    if rank is None:
                        rank = self.entry(t, s, a, b)
                    total += ma * mb * rank
        return total

    def codim(self, ja: JordanAssignment) -> int:
        """Codimension of the arrow solution space on the Jordan types ``ja``."""
        return self.codim_of_types([(p.multiplicities,) for p in ja.partitions])
