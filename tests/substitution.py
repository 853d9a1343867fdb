"""Arrow substitutions: rewrite a presentation after renaming a linear
combination of arrows as one of its arrows.

The recognizer and substitution tests build their inputs with these; the
package itself never substitutes.  ``relation_mod_orders`` builds a
relation from terms after dropping those with a loop power at or above
its order.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from path_reference import word_of
from quiver_reference import _forbidden_power

from quiverstrata.quiver import (BoundQuiverPresentation, Combo, Path, Quiver,
                                 Relation, _normalize_combo)


class SubstitutionError(ValueError):
    pass


def truncate_terms(quiver: Quiver, orders: dict[str, int],
                   terms: Iterable[tuple[Fraction | int, Path]]):
    """Drop terms containing a loop power at or above its nilpotency order."""
    return [(Fraction(coeff), p) for coeff, p in terms
            if _forbidden_power(quiver, orders, p.runs) is None]


def relation_mod_orders(quiver: Quiver, orders: dict[str, int],
                        terms: Iterable[tuple[Fraction | int, Path]],
                        source: Optional[str] = None,
                        target: Optional[str] = None) -> Relation:
    return Relation.make(truncate_terms(quiver, orders, terms), source, target)


def _concat(quiver: Quiver, left: Path, right: Path) -> Path:
    if left.length == 0:
        return right
    if right.length == 0:
        return left
    return quiver.path(left.runs + right.runs)


def _substitute_in_path(pres: BoundQuiverPresentation, word: Path,
                        arrow_name: str, expansion: Combo) -> Combo:
    """Replace each occurrence of the arrow in the word by the expansion."""
    quiver = pres.quiver
    orders = pres.order_map
    acc: Combo = [(Fraction(1), Path((), word.target, word.target, 0))]
    for name in word_of(word):
        pieces = expansion if name == arrow_name else [(Fraction(1), quiver.path([(name, 1)]))]
        nxt: Combo = []
        for c1, p1 in acc:
            for c2, p2 in pieces:
                nxt.append((c1 * c2, _concat(quiver, p1, p2)))
        acc = _normalize_combo(truncate_terms(quiver, orders, nxt))
        if not acc:
            return []
    return acc


def invert_substitution(pres: BoundQuiverPresentation, arrow_name: str,
                        replacement: Iterable[tuple[Fraction | int, Path]]) -> Combo:
    """Combo expressing the old arrow through the renamed generators.

    The replacement must contain the substituted arrow itself as a bare
    length-1 path with nonzero coefficient; the rest may be any paths with
    the same endpoints.  The inverse is the truncated power-series inverse
    and is found by fixed-point iteration.
    """
    quiver = pres.quiver
    target = quiver.arrow(arrow_name)
    combo = _normalize_combo(replacement)
    if not combo:
        raise SubstitutionError("empty replacement")
    lead = Fraction(0)
    rest: Combo = []
    for c, p in combo:
        if p.source != target.source or p.target != target.target:
            raise SubstitutionError(
                f"replacement term {p} does not share endpoints with {arrow_name!r}"
            )
        if p.runs == ((arrow_name, 1),):
            lead = c
        else:
            rest.append((c, p))
    if lead == 0:
        raise SubstitutionError(
            f"replacement has no invertible coefficient on {arrow_name!r}"
        )
    bare = quiver.path([(arrow_name, 1)])
    expr: Combo = [(1 / lead, bare)]
    max_rounds = sum(pres.orders) + len(quiver.vertices) + 2
    for _ in range(max_rounds):
        assembled: Combo = [(1 / lead, bare)]
        for c, p in rest:
            for c2, p2 in _substitute_in_path(pres, p, arrow_name, expr):
                assembled.append((-c * c2 / lead, p2))
        nxt = _normalize_combo(assembled)
        if nxt == expr:
            return expr
        expr = nxt
    raise SubstitutionError("substitution inverse did not stabilize")


def apply_arrow_substitution(pres: BoundQuiverPresentation, arrow_name: str,
                             replacement: Iterable[tuple[Fraction | int, Path]]
                             ) -> BoundQuiverPresentation:
    """Rewrite all relations after renaming the given linear combination.

    ``arrow <- combo`` declares that the combination becomes the new arrow;
    relations are rewritten through the inverse expression, truncating in
    the monomial basis.  The underlying algebra is unchanged up to
    isomorphism (not checked).
    """
    replacement = _normalize_combo(replacement)
    inverse = invert_substitution(pres, arrow_name, replacement)
    new_relations = []
    for rel in pres.relations:
        terms: Combo = []
        for c, p in rel.terms:
            for c2, p2 in _substitute_in_path(pres, p, arrow_name, inverse):
                terms.append((c * c2, p2))
        new_rel = Relation.make(terms, source=rel.source, target=rel.target)
        if new_rel.is_zero:
            raise SubstitutionError("substitution collapsed a relation to zero")
        new_relations.append(new_rel)
    return BoundQuiverPresentation(pres.quiver, pres.orders, tuple(new_relations))
