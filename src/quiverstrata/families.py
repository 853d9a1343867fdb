"""Constructors and recognizers for the standard two-vertex algebra families."""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _kernels
from .quiver import (Arrow, BoundQuiverPresentation, Quiver, Relation,
                     relation_mod_orders)

__all__ = [
    "FamilyTag",
    "parse_family_spec",
    "build_family",
    "recognize_family",
    "ProductCheck",
    "product_decomposition_check",
]


@dataclass(frozen=True)
class FamilyTag:
    """Named family with parameters.

    kind "A":         two loops of orders m0, m1, arrows a1..ah, and the
                      standard mixed relation of total loop degree n.
    kind "Aprime":    the same quiver with no mixed relation.
    kind "truncpoly": one vertex with a loop of order m (order 1 means the
                      base field).
    kind "unrecognized": anything else.
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
        elif self.kind != "unrecognized":
            raise ValueError(f"unknown family kind {self.kind!r}")

    @property
    def in_classified_list(self) -> Optional[bool]:
        """Whether the tag lies on the classified geometrically irreducible list."""
        if self.kind == "A":
            return self.m0 == self.m1 and self.n in (1, self.m0 - 1)
        if self.kind in ("Aprime", "truncpoly"):
            return True
        return None

    def spec_string(self) -> str:
        if self.kind == "A":
            return f"A({self.h},{self.m0},{self.m1},{self.n})"
        if self.kind == "Aprime":
            return f"Aprime({self.h},{self.m0},{self.m1})"
        if self.kind == "truncpoly":
            return f"truncpoly({self.m})"
        return "unrecognized"


_SPEC_RE = re.compile(r"^\s*(A|Aprime|A'|truncpoly)\s*\(([^)]*)\)\s*$")


def parse_family_spec(text: str) -> FamilyTag:
    """Parse strings like ``A(1,2,2,1)``, ``Aprime(1,2,2)``, ``truncpoly(3)``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse family spec {text!r}")
    kind = m.group(1)
    params = [int(x) for x in m.group(2).split(",") if x.strip()]
    if kind == "A":
        if len(params) != 4:
            raise ValueError("A takes (h, m0, m1, n)")
        return FamilyTag("A", h=params[0], m0=params[1], m1=params[2], n=params[3])
    if kind in ("Aprime", "A'"):
        if len(params) != 3:
            raise ValueError("Aprime takes (h, m0, m1)")
        return FamilyTag("Aprime", h=params[0], m0=params[1], m1=params[2])
    if len(params) != 1:
        raise ValueError("truncpoly takes (m,)")
    return FamilyTag("truncpoly", m=params[0])


def build_family(tag: FamilyTag) -> BoundQuiverPresentation:
    """Presentation for a family tag; relation terms truncate in the basis."""
    if tag.kind == "truncpoly":
        if tag.m >= 2:
            quiver = Quiver(("0",), (Arrow("e0", "0", "0"),))
            return BoundQuiverPresentation(quiver, (tag.m,))
        return BoundQuiverPresentation(Quiver(("0",), ()), (1,))
    if tag.kind not in ("A", "Aprime"):
        raise ValueError(f"cannot build {tag.kind!r}")
    arrows = []
    if tag.m0 >= 2:
        arrows.append(Arrow("e0", "0", "0"))
    if tag.m1 >= 2:
        arrows.append(Arrow("e1", "1", "1"))
    arrow_names = [f"a{i + 1}" for i in range(tag.h)]
    arrows.extend(Arrow(n, "1", "0") for n in arrow_names)
    quiver = Quiver(("0", "1"), tuple(arrows))
    orders = {"0": tag.m0, "1": tag.m1}
    relations: tuple[Relation, ...] = ()
    if tag.kind == "A":
        terms = []
        for i in range(tag.n + 1):
            a, b = tag.n - i, i
            if a >= tag.m0 or b >= tag.m1:
                continue
            word = ["e0"] * a + ["a1"] + ["e1"] * b
            terms.append((Fraction(1), quiver.path(word)))
        rel = relation_mod_orders(quiver, orders, terms, source="1", target="0")
        if not rel.is_zero:
            relations = (rel,)
    return BoundQuiverPresentation(quiver, (tag.m0, tag.m1), relations)


def recognize_family(pres: BoundQuiverPresentation) -> FamilyTag:
    """Syntactic pattern match onto the named families.

    Matches up to relabeling the arrows, rescaling the relation, and one
    substitution that renames a fixed linear combination of arrows; deeper
    identifications return ``unrecognized``.  Presentations with more than
    two vertices are rejected.
    """
    q = pres.quiver
    if len(q.vertices) > 2:
        raise ValueError("recognizer handles at most two vertices")
    if len(q.vertices) == 1:
        return FamilyTag("truncpoly", m=pres.orders[0])
    arrows = q.non_loop_arrows
    v0, v1 = q.vertices
    if not arrows:
        return FamilyTag("Aprime", h=0, m0=pres.order(v0), m1=pres.order(v1))
    tgt = arrows[0].target
    src = arrows[0].source
    if tgt == src or any(a.target != tgt or a.source != src for a in arrows):
        return FamilyTag("unrecognized")
    h = len(arrows)
    m0 = pres.order(tgt)
    m1 = pres.order(src)
    if not pres.relations:
        return FamilyTag("Aprime", h=h, m0=m0, m1=m1)
    if len(pres.relations) > 1 or m0 < 2 or m1 < 2:
        return FamilyTag("unrecognized")
    shape = _match_standard_relation(pres, pres.relations[0], tgt, src,
                                     [a.name for a in arrows])
    if shape is None:
        return FamilyTag("unrecognized")
    return FamilyTag("A", h=h, m0=m0, m1=m1, n=shape)


def _match_standard_relation(pres: BoundQuiverPresentation, rel: Relation,
                             tgt: str, src: str, arrow_names: list[str]
                             ) -> Optional[int]:
    """Total loop degree n if the relation has the standard shape, else None.

    Every arrow runs src -> tgt with src != tgt, so each term is one arrow
    between a loop power at tgt and a loop power at src.
    """
    index = {name: k for k, name in enumerate(arrow_names)}
    h = len(arrow_names)
    by_i: dict[int, list[Fraction]] = {}
    n: Optional[int] = None
    for coeff, path in rel.terms:
        a, mid, b = path.split
        if n is None:
            n = a + b
        elif n != a + b:
            return None
        vec = by_i.setdefault(b, [Fraction(0)] * h)
        vec[index[mid]] += coeff
    if n is None or n < 1:
        return None
    m0 = pres.order(tgt)
    m1 = pres.order(src)
    lo = max(0, n - (m0 - 1))
    hi = min(n, m1 - 1)
    if set(by_i) != set(range(lo, hi + 1)):
        return None
    base = by_i[lo]
    if all(x == 0 for x in base):
        return None
    ratios = []
    for i in range(lo, hi + 1):
        vec = by_i[i]
        # vec must be a scalar multiple of base
        scale: Optional[Fraction] = None
        for x, y in zip(base, vec):
            if x == 0:
                if y != 0:
                    return None
            else:
                s = y / x
                if scale is None:
                    scale = s
                elif scale != s:
                    return None
        if scale is None or scale == 0:
            return None
        ratios.append(scale)
    # successive ratios must be constant: a loop rescale then normalizes them
    steps = {ratios[k + 1] / ratios[k] for k in range(len(ratios) - 1)}
    if len(steps) > 1:
        return None
    return n


@dataclass(frozen=True)
class ProductCheck:
    ok: bool
    total: int
    loop_factor_0: int
    arrow_factor: int
    loop_factor_1: int

    @property
    def predicted(self) -> int:
        return self.loop_factor_0 * self.arrow_factor * self.loop_factor_1


def product_decomposition_check(pres: BoundQuiverPresentation,
                                dims: Sequence[int], q: int,
                                max_points: int = 2_000_000) -> ProductCheck:
    """Check the point count of a relation-free two-vertex presentation.

    With no mixed relations the representation points split as (nilpotent
    at vertex 0) x (free arrow entries) x (nilpotent at vertex 1), so the
    total count must equal the product of the three factors.  The total is
    recounted by exhaustive enumeration.
    """
    from .fforacle import enumerate_and_classify

    if pres.relations:
        raise ValueError("presentation must have no mixed relations")
    if len(pres.quiver.vertices) != 2:
        raise ValueError("product check needs exactly two vertices")
    d0, d1 = dims
    v0, v1 = pres.quiver.vertices
    h = len(pres.quiver.non_loop_arrows)
    table = enumerate_and_classify(pres, dims, q, max_points=max_points)

    f0 = _kernels.enumerate_nilpotent(d0, pres.order(v0), q)[0].shape[0]
    f1 = _kernels.enumerate_nilpotent(d1, pres.order(v1), q)[0].shape[0]
    arrow = q ** (h * d0 * d1)
    return ProductCheck(table.total == f0 * arrow * f1, table.total, f0, arrow, f1)
