"""Exhaustive finite-field enumeration of representation points.

This layer is verification-only ground truth: it counts every matrix
assignment over F_q that satisfies the nilpotency bounds and the mixed
relations, and classifies each point by the Jordan types of its loop
actions.  It enumerates the candidates of the arrows and loops that some
relation reads; every other arrow or loop multiplies the count by its
candidates, per Jordan type, without being enumerated.  Only this layer
reduces coefficients mod a prime, and it calls no rank routine.  It
writes each relation term out as the word ``lt^pre x ls^post`` of its
stored split, which the engine reads too; the tests check that split
against an independent word-model parse.  Nothing here feeds back into
the exact engine; the counting identity ties the two together:

    |stratum| = (product of loop orbit counts) * q^(N - c)

with N the ambient arrow dimension and c the exact codimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _kernels
from .linsys import PartPairTable
from .partitions import (JordanAssignment, Partition, _is_prime, count_partitions_bounded,
                         jordan_types, orbit_count)
from .quiver import BoundQuiverPresentation
from .strata import _check_dims, ambient_arrow_dim, jordan_walk

__all__ = [
    "StratumCountTable",
    "EnumerationCapExceeded",
    "BadPrimeError",
    "IdentityRow",
    "enumerate_and_classify",
    "verify_count_identity",
]


class EnumerationCapExceeded(ValueError):
    pass


class BadPrimeError(ValueError):
    """A rational coefficient cannot be reduced modulo the requested prime."""


def _fraction_mod(x: Fraction, p: int) -> int:
    """``x`` reduced modulo the prime ``p``; raises :class:`BadPrimeError`
    when its denominator vanishes mod ``p``."""
    den = x.denominator % p
    if den == 0:
        raise BadPrimeError(f"coefficient {x} cannot reduce mod {p}")
    return (x.numerator % p) * pow(den, p - 2, p) % p


@dataclass
class StratumCountTable:
    q: int
    dims: tuple[int, ...]
    counts: dict[JordanAssignment, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


# bits of |GL_d(F_q)|, about d * d * q.bit_length(), that the identity
# check may form at one vertex.  Every point cap bounds a vertex with a loop
# or an arrow to a nonzero dimension to a few thousand bits; this bounds the
# others.  At 10^6 bits orbit_count took 0.28 s at (d, q) = (707, 2) and
# 0.40 s at (200, 1999993); at 8 * 10^6 bits, (2000, 2), oracle-count took
# 14.8 s, on a 2-CPU host
_MAX_GL_BITS = 10 ** 6


def _type_indices(ranks: np.ndarray, d: int, types) -> np.ndarray:
    """The index in ``types``, (part, count) pairs of the types of weight d,
    of the Jordan type of each rank row, row i holding rank(X^k) for
    0 < k <= ranks.shape[1], past which every listed type has rank 0.

    Rows and types are matched by their rank codes: rank(X^k) packed in
    base d + 1, a type's rank(J^k) being the sum of count * max(part - k, 0).
    A row that matches no listed type raises ``ValueError``."""
    place = (d + 1) ** np.arange(ranks.shape[1])
    powers = list(enumerate(place.tolist(), 1))
    codes = np.array([sum(c * max(a - k, 0) * w for a, c in pairs for k, w in powers)
                      for pairs in types])
    order = np.argsort(codes)
    keys = ranks @ place
    at = order[np.minimum(np.searchsorted(codes[order], keys), len(codes) - 1)]
    if (codes[at] != keys).any():
        raise ValueError("rank sequence is not that of a nilpotent matrix")
    return at


def enumerate_and_classify(pres: BoundQuiverPresentation, dims: Sequence[int],
                           q: int, max_points: int = 2_000_000
                           ) -> StratumCountTable:
    """Exhaustive point count per Jordan assignment.

    The loop matrices are pre-enumerated per vertex (only the nilpotent
    candidates survive, which prunes the dominant factor), then every
    combination of the candidates that some relation reads is tested
    against the relations, and the candidates no relation reads are
    folded into the count per Jordan type.  ``max_points`` caps both each
    per-vertex enumeration and the full product of candidate counts,
    folded slots included; a full product of 2^63 or more would overflow
    the int64 tally and is refused.
    """
    # both checks come before the primality test, whose cost grows with q
    if q > max_points:
        raise EnumerationCapExceeded(f"q = {q} exceeds the cap {max_points}")
    # a matmul mod q sums up to max(dims) int64 products of entries below q
    if max([1, *dims]) * (q - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"q = {q} is too large for int64 products at "
                         f"dimension vector {tuple(dims)}")
    if not _is_prime(q):
        raise ValueError("q must be prime")
    dims = _check_dims(pres, dims)
    quiver = pres.quiver
    dim_of = dict(zip(quiver.vertices, dims))
    order_of = pres.order_map
    # the point caps come before the Jordan types, whose number grows
    # faster than any cap can admit; they compare exponents, so no count
    # past the cap is formed, and one of up to 10,000 bits prints in full
    top = 0  # the largest e with q^e <= max_points
    while q ** (top + 1) <= max_points:
        top += 1
    for a in quiver.arrows:
        e = dim_of[a.target] * dim_of[a.source]
        if e <= top:
            continue
        count = q ** e if e * q.bit_length() <= 10_000 else f"{q}^{e}"
        if a.is_loop:
            raise EnumerationCapExceeded(
                f"loop enumeration at {a.source!r} needs {count} points, "
                f"cap is {max_points}"
            )
        raise EnumerationCapExceeded(
            f"arrow {a.name!r} needs {count} points, cap is {max_points}"
        )
    for v, d in dim_of.items():
        if (bits := d * d * q.bit_length()) > _MAX_GL_BITS:
            raise ValueError(f"|GL_{d}(F_{q})| at vertex {v!r} has about {bits} bits, "
                             f"more than the bound {_MAX_GL_BITS}")
    # mixed-radix layout of the tally keys, one digit per vertex, so a key
    # is the index of its assignment in the order of ``jordan_walk``
    radices = list(map(count_partitions_bounded, dims, pres.orders))
    types_at = [list(jordan_types(d, m)) for d, m in zip(dims, pres.orders)]
    weights = [math.prod(radices[i + 1:]) for i in range(len(radices))]
    n_keys = math.prod(radices)

    slot_of = {a.name: s for s, a in enumerate(quiver.arrows)}
    cand_mats: list = []  # an arrow's matrices are built once a relation reads them
    cand_keys: list[np.ndarray] = []
    nilpotent: dict = {}  # one enumeration per loop (dimension, order)

    for a in quiver.arrows:
        d_t, d_s = dim_of[a.target], dim_of[a.source]
        mats = None
        if a.is_loop:
            v = a.source
            vi = quiver.vertices.index(v)
            d, m = d_t, order_of[v]
            if (d, m) not in nilpotent:
                nilpotent[d, m] = _kernels.enumerate_nilpotent(d, m, q)
            mats, ranks = nilpotent[d, m]
            cand_keys.append(weights[vi] * _type_indices(ranks, d, types_at[vi]))
        else:
            cand_keys.append(np.zeros(q ** (d_t * d_s), np.int64))
        cand_mats.append(mats)

    shape = tuple(len(k) for k in cand_keys)
    work = math.prod(shape)
    if work > max_points:
        raise EnumerationCapExceeded(f"{work} points exceed the cap {max_points}")
    if work >= 2 ** 63:
        raise ValueError(f"{work} points overflow the int64 tally")

    # relations as (coeff mod q, slot word) terms, the word lt^pre x ls^post
    # of each split term written out; a relation with an empty equation
    # grid holds trivially, and a term with a loop power k >= d vanishes,
    # since X^d = 0 for every nilpotent d x d loop matrix X
    relations = []
    for rel in pres.relations:
        if dim_of[rel.target] and dim_of[rel.source]:
            (lt, ls), terms = rel.loops, []
            for coeff, pre, name, post in rel.terms:
                coeff = _fraction_mod(coeff, q)  # every coefficient, kept or not
                if pre < dim_of[rel.target] and post < dim_of[rel.source]:
                    word = [lt] * pre + [name] + [ls] * post
                    terms.append((coeff, [slot_of[x] for x in word]))
            if terms:
                relations.append(terms)
    for s in {s for terms in relations for _, word in terms for s in word}:
        if cand_mats[s] is None:
            d_t, d_s = dim_of[quiver.arrows[s].target], dim_of[quiver.arrows[s].source]
            cand_mats[s] = _kernels.digit_table(d_t * d_s, q).reshape(shape[s], d_t, d_s)

    tally = _kernels.tally_points(cand_mats, cand_keys, shape, relations, q, n_keys)

    # only the keys of points found become Jordan assignments: a key's
    # mixed-radix digits index the types at each vertex
    built = [[Partition.from_pairs(pairs, m) for pairs in t] for t, m in zip(types_at, pres.orders)]
    counts = {}
    for key in np.flatnonzero(tally).tolist():
        parts = tuple(b[key // w % r] for b, w, r in zip(built, weights, radices))
        counts[JordanAssignment(quiver.vertices, parts)] = int(tally[key])
    return StratumCountTable(q, dims, counts)


@dataclass(frozen=True)
class IdentityRow:
    assignment: JordanAssignment
    count: int
    predicted: int

    @property
    def ok(self) -> bool:
        return self.count == self.predicted


def verify_count_identity(counts: StratumCountTable,
                          table: PartPairTable) -> list[IdentityRow]:
    """Per-stratum check of count = (orbit counts) * q^(N - c), c from table.

    A failure at desk scale means either the prime is bad for the exact
    rank or the engine miscounts; both are reportable findings.  The rows
    follow ``jordan_walk``: each Jordan type's orbit count is formed once,
    and each row's ``JordanAssignment`` once.
    """
    q, vertices = counts.q, table.pres.quiver.vertices
    n = ambient_arrow_dim(table.pres, counts.dims)
    rows = []
    for combo in jordan_walk(table, counts.dims, lambda p: (p, orbit_count(p, q))):
        pred = q ** (n - table.codim_of_types(combo)) * math.prod(o for _, _, (_, o) in combo)
        ja = JordanAssignment(vertices, tuple(p for _, _, (p, _) in combo))
        rows.append(IdentityRow(ja, counts.counts.get(ja, 0), pred))
    return rows
