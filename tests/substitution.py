"""Arrow substitutions: rewrite a presentation after renaming a linear
combination of arrows as one of its arrows.

The recognizer and substitution tests build their inputs with these; the
package itself never substitutes.  Paths here are word-model paths
(``path_reference.WordPath``); ``_relation`` hands the final terms to
``Relation.make`` as arrow runs.  ``relation_mod_orders`` builds a
relation from terms after dropping those with a loop power at or above
its order.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from path_reference import (WordPath, _normalize_combo, _runs, path_of, word_of,
                            word_path)
from quiver_reference import _forbidden_power

from quiverstrata.quiver import BoundQuiverPresentation, Quiver, Relation

Combo = list[tuple[Fraction, WordPath]]


class SubstitutionError(ValueError):
    pass


def truncate_terms(quiver: Quiver, orders: dict[str, int],
                   terms: Iterable[tuple[Fraction | int, WordPath]]):
    """Drop terms containing a loop power at or above its nilpotency order."""
    return [(Fraction(coeff), p) for coeff, p in terms
            if _forbidden_power(quiver, orders, _runs(p.arrows)) is None]


def _relation(quiver: Quiver, terms: Iterable[tuple[Fraction | int, WordPath]],
              source: Optional[str] = None, target: Optional[str] = None) -> Relation:
    return Relation.make(quiver, [(c, path_of(p.arrows)) for c, p in terms], source, target)


def relation_mod_orders(quiver: Quiver, orders: dict[str, int],
                        terms: Iterable[tuple[Fraction | int, WordPath]],
                        source: Optional[str] = None,
                        target: Optional[str] = None) -> Relation:
    return _relation(quiver, truncate_terms(quiver, orders, terms), source, target)


def _concat(quiver: Quiver, left: WordPath, right: WordPath) -> WordPath:
    if left.length == 0:
        return right
    if right.length == 0:
        return left
    return word_path(quiver, left.arrows + right.arrows)


def _substitute_in_path(pres: BoundQuiverPresentation, word: WordPath,
                        arrow_name: str, expansion: Combo) -> Combo:
    """Replace each occurrence of the arrow in the word by the expansion."""
    quiver = pres.quiver
    orders = pres.order_map
    acc: Combo = [(Fraction(1), WordPath((), word.target, word.target, 0))]
    for name in word.arrows:
        pieces = expansion if name == arrow_name else [(Fraction(1), word_path(quiver, [name]))]
        nxt: Combo = []
        for c1, p1 in acc:
            for c2, p2 in pieces:
                nxt.append((c1 * c2, _concat(quiver, p1, p2)))
        acc = _normalize_combo(truncate_terms(quiver, orders, nxt))
        if not acc:
            return []
    return acc


def invert_substitution(pres: BoundQuiverPresentation, arrow_name: str,
                        replacement: Iterable[tuple[Fraction | int, WordPath]]) -> Combo:
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
        if p.arrows == (arrow_name,):
            lead = c
        else:
            rest.append((c, p))
    if lead == 0:
        raise SubstitutionError(
            f"replacement has no invertible coefficient on {arrow_name!r}"
        )
    bare = word_path(quiver, [arrow_name])
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
                             replacement: Iterable[tuple[Fraction | int, WordPath]]
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
        for term in rel.terms:
            p = word_path(pres.quiver, word_of(rel, term))
            for c2, p2 in _substitute_in_path(pres, p, arrow_name, inverse):
                terms.append((term[0] * c2, p2))
        new_rel = _relation(pres.quiver, terms, source=rel.source, target=rel.target)
        if new_rel.is_zero:
            raise SubstitutionError("substitution collapsed a relation to zero")
        new_relations.append(new_rel)
    return BoundQuiverPresentation(pres.quiver, pres.orders, tuple(new_relations))
