"""Constructors for the standard algebra families: the two-vertex quiver
(loops ``e0``, ``e1`` where the orders ask for them, arrows ``a1..ah`` from
1 to 0) with or without its mixed relation, and the truncated polynomial
ring on one loop.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .quiver import Arrow, BoundQuiverPresentation, Quiver, Relation

__all__ = [
    "FamilyTag",
    "parse_family_spec",
    "build_family",
]


# arrows 1 -> 0 a family builds: A(10^6,2,2,1) took the family command
# 3.0 s and 360 MB on a 2-CPU host
_MAX_H = 10 ** 6
# terms of the mixed relation a family builds: A(1,200000,200000,100000),
# 10^5 terms, took the family command 2.8-3.9 s and 144 MB on a 2-CPU host
_MAX_TERMS = 10 ** 5


@dataclass(frozen=True)
class FamilyTag:
    """Named family with parameters.

    kind "A":         two loops of orders m0, m1, arrows a1..ah, and the
                      standard mixed relation of total loop degree n.
    kind "Aprime":    the same quiver with no mixed relation.
    kind "truncpoly": one vertex with a loop of order m (order 1 means the
                      base field).
    """

    kind: str
    h: Optional[int] = None
    m0: Optional[int] = None
    m1: Optional[int] = None
    n: Optional[int] = None
    m: Optional[int] = None

    def __post_init__(self):
        if self.kind == "A":
            if not (self.h and self.h >= 1 and self.n and self.n >= 1
                    and self.m0 and self.m0 >= 2 and self.m1 and self.m1 >= 2):
                raise ValueError("kind A needs h, n >= 1 and m0, m1 >= 2")
        elif self.kind == "Aprime":
            if self.h is None or self.h < 0 or not self.m0 or self.m0 < 1 \
                    or not self.m1 or self.m1 < 1:
                raise ValueError("kind Aprime needs h >= 0 and m0, m1 >= 1")
        elif self.kind == "truncpoly":
            if not self.m or self.m < 1:
                raise ValueError("kind truncpoly needs m >= 1")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind != "truncpoly" and self.h > _MAX_H:
            raise ValueError(f"h = {self.h} arrows exceed the bound {_MAX_H}")
        if self.kind == "A":  # not len(), which overflows past 2^63 terms
            terms = self.term_powers.stop - self.term_powers.start
            if terms > _MAX_TERMS:
                raise ValueError(f"the relation of {self.spec_string()} has {terms} "
                                 f"terms, more than the bound {_MAX_TERMS}")

    @property
    def term_powers(self) -> range:
        """The powers i of ``e1`` in the terms ``e0^(n-i) a1 e1^i`` of the
        mixed relation of kind A: those whose loop powers stay below the
        orders, counted without being listed."""
        return range(max(0, self.n - self.m0 + 1), min(self.n, self.m1 - 1) + 1)

    @property
    def in_classified_list(self) -> bool:
        """Whether the tag lies on the classified geometrically irreducible list."""
        if self.kind == "A":
            return self.m0 == self.m1 and self.n in (1, self.m0 - 1)
        return True

    def spec_string(self) -> str:
        if self.kind == "A":
            return f"A({self.h},{self.m0},{self.m1},{self.n})"
        if self.kind == "Aprime":
            return f"Aprime({self.h},{self.m0},{self.m1})"
        return f"truncpoly({self.m})"


_SPEC_RE = re.compile(r"^\s*(A|Aprime|truncpoly)\s*\(([^)]*)\)\s*$")


def parse_family_spec(text: str) -> FamilyTag:
    """Parse strings like ``A(1,2,2,1)``, ``Aprime(1,2,2)``, ``truncpoly(3)``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse family spec {text!r}")
    kind = m.group(1)
    try:
        params = [int(x) for x in m.group(2).split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"cannot parse family spec {text!r}") from None
    if kind == "A":
        if len(params) != 4:
            raise ValueError("A takes (h, m0, m1, n)")
        return FamilyTag("A", h=params[0], m0=params[1], m1=params[2], n=params[3])
    if kind == "Aprime":
        if len(params) != 3:
            raise ValueError("Aprime takes (h, m0, m1)")
        return FamilyTag("Aprime", h=params[0], m0=params[1], m1=params[2])
    if len(params) != 1:
        raise ValueError("truncpoly takes (m,)")
    return FamilyTag("truncpoly", m=params[0])


def build_family(tag: FamilyTag) -> BoundQuiverPresentation:
    """Presentation for a family tag.

    The relation of ``A(h,m0,m1,n)`` is the sum of ``e0^(n-i) a1 e1^i``
    over the i whose loop powers stay below the orders; only those i are
    visited, so a huge n costs nothing."""
    if tag.kind == "truncpoly":
        if tag.m >= 2:
            quiver = Quiver(("0",), (Arrow("e0", "0", "0"),))
            return BoundQuiverPresentation(quiver, (tag.m,))
        return BoundQuiverPresentation(Quiver(("0",), ()), (1,))
    loops = [Arrow(f"e{v}", str(v), str(v)) for v, m in enumerate((tag.m0, tag.m1)) if m >= 2]
    quiver = Quiver(("0", "1"), (*loops, *(Arrow(f"a{i + 1}", "1", "0") for i in range(tag.h))))
    relations: tuple[Relation, ...] = ()
    if tag.kind == "A":
        terms = [(1, [("e0", tag.n - i), ("a1", 1), ("e1", i)]) for i in tag.term_powers]
        rel = Relation.make(quiver, terms, source="1", target="0")
        if not rel.is_zero:
            relations = (rel,)
    return BoundQuiverPresentation(quiver, (tag.m0, tag.m1), relations)
