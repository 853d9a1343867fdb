"""The block-pair assembly that the one-pass ``linsys.assemble_system``
replaced, kept verbatim as the reference of its differential tests, with
the rational split terms it read.

Each relation is scaled to integers by the lcm of its coefficient
denominators as it is assembled, and every row keeps that scale.  Every
entry is added into its row dict, zero coefficients included, and each
row is rebuilt afterwards without its zero values.
"""
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

# (rational coefficient, loop power before, arrow index, loop power after)
RationalTerm = tuple[Fraction, int, int, int]


class ScaledSystem(NamedTuple):
    """Row k of the rational system is ``rows[k] / scales[k]``."""

    rows: list[dict[int, int]]
    scales: list[int]
    ambient_dim: int


def split_terms(rel, arrows: Sequence[str]) -> list[RationalTerm]:
    """The terms of ``rel`` split at their non-loop arrow, with their
    rational coefficients, each arrow by its index in ``arrows``."""
    index = {name: k for k, name in enumerate(arrows)}
    out = []
    for coeff, pre, name, post in rel.terms:
        out.append((coeff, pre, index[name], post))
    return out


def assemble_system(n_arrows: int, relations: Sequence[Sequence[RationalTerm]],
                    a: int, b: int) -> ScaledSystem:
    """The system of ``relations``, each a list of split terms, all from one
    vertex s to one vertex t, on the single Jordan blocks (a) at t and (b)
    at s.

    J^k shifts indices by k within its block, so a term (c, pre, k, post),
    that is c * J^pre x_k J^post, puts c into row (i, j) at the column of
    x_k[i + pre][j - post], wherever both indices stay inside their blocks.
    Each relation is scaled once, to the lcm of its coefficient
    denominators, so every row holds integers; a zero coefficient leaves no
    entry.  Rows run over the relations, then (i, j) row-major; columns run
    over the ``n_arrows`` arrows s -> t, then entries row-major.
    """
    rows: list[dict[int, int]] = []
    scales: list[int] = []
    for terms in relations:
        scale = math.lcm(*(coeff.denominator for coeff, *_ in terms))
        block: list[dict[int, int]] = [{} for _ in range(a * b)]
        for coeff, pre, k, post in terms:
            c = coeff.numerator * (scale // coeff.denominator)
            for i in range(a - pre):
                col0 = k * a * b + (i + pre) * b - post
                for j in range(post, b):
                    row = block[i * b + j]
                    row[col0 + j] = row.get(col0 + j, 0) + c
        rows += [{col: v for col, v in row.items() if v} for row in block]
        scales += [scale] * len(block)
    return ScaledSystem(rows, scales, n_arrows * a * b)
