"""The ``parse_presentation`` that the build-once parser replaced, and
its ``_parse_relation_terms``, kept verbatim as the reference of their
differential test: it builds the presentation declared so far after every
declaration line, and a presentation of each relation alone, so its cost
grows with the square of the input.  ``_expand_factors``, which wrote each
term out as its arrow word, and its ``_forbidden_power`` are kept verbatim
too; the word goes to ``Relation.make`` as runs of one arrow each.
``word_model_relations`` builds the relations of the same text in the
word model of ``path_reference``, as the reference of the split terms
that ``Relation.make`` stores.
"""
import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from path_reference import _normalize_combo, path_of, word_path

from quiverstrata.quiver import (_ARROW_RE, _FACTOR_RE, _RATIONAL_RE, Arrow,
                                 BoundQuiverPresentation, PresentationError, Quiver,
                                 Relation, _format_runs)


def parse_presentation(text: str) -> BoundQuiverPresentation:
    """Parse the line-oriented presentation format.

    Directives (``#`` starts a comment)::

        vertex <id>
        loop <id> <vertex> order <m>
        arrow <id> <src> -> <dst>
        relation <term> (+|-) <term> ...

    A term is ``[<rational>*]<factor>*<factor>*...`` with factors
    ``<arrowid>`` or ``<loopid>^<k>``, written left-to-right in composition
    order (leftmost factor applied last).  The presentation declared so
    far is built after each declaration, and each relation alone, so an
    error names its line.
    """
    vertices: list[str] = []
    arrows: list[Arrow] = []
    orders: dict[str, int] = {}
    relation_specs: list[tuple[int, list[tuple[Fraction, list[str]]]]] = []
    pres = BoundQuiverPresentation(Quiver((), ()), ())

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "relation":
            relation_specs.append((lineno, _parse_relation_terms(rest, lineno)))
            continue
        if keyword == "vertex":
            if not rest or " " in rest:
                raise PresentationError("expected: vertex <id>", lineno)
            vertices.append(rest)
        elif keyword == "loop":
            m = re.match(r"^(\S+)\s+(\S+)\s+order\s+(\d+)$", rest)
            if not m:
                raise PresentationError("expected: loop <id> <vertex> order <m>", lineno)
            name, vertex, order = m.group(1), m.group(2), int(m.group(3))
            arrows.append(Arrow(name, vertex, vertex))
            orders[vertex] = order
        elif keyword == "arrow":
            m = _ARROW_RE.match(rest)
            if not m:
                raise PresentationError("expected: arrow <id> <src> -> <dst>", lineno)
            name, src, dst = m.groups()
            if src == dst:
                raise PresentationError("declare loops with the loop directive", lineno)
            arrows.append(Arrow(name, src, dst))
        else:
            raise PresentationError(f"unknown directive {keyword!r}", lineno)
        with _on_line(lineno):  # the constructors check each declaration
            pres = BoundQuiverPresentation(Quiver(tuple(vertices), tuple(arrows)),
                                           tuple(orders.get(v, 1) for v in vertices))

    quiver, order_map = pres.quiver, pres.order_map
    relations = []
    for lineno, term_words in relation_specs:
        with _on_line(lineno):
            # drawn as Relation.make composes them: each term's forbidden
            # power and arrows are checked before the next term's
            terms = ((coeff, path_of(_expand_factors(quiver, order_map, factors)))
                     for coeff, factors in term_words)
            rel = Relation.make(quiver, terms)
            BoundQuiverPresentation(quiver, pres.orders, (rel,))
        relations.append(rel)
    return BoundQuiverPresentation(quiver, pres.orders, tuple(relations))


def word_model_relations(text: str):
    """The relations of ``text``, which :func:`parse_presentation`
    accepts, each a list of ``(coefficient, WordPath)`` terms, combined and
    ordered by ``path_reference._normalize_combo``."""
    pres = parse_presentation(text)
    quiver, order_map = pres.quiver, pres.order_map
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        keyword, _, rest = raw.split("#", 1)[0].strip().partition(" ")
        if keyword == "relation":
            out.append(_normalize_combo(
                (coeff, word_path(quiver, _expand_factors(quiver, order_map, factors)))
                for coeff, factors in _parse_relation_terms(rest.strip(), lineno)))
    return out


@contextmanager
def _on_line(lineno: int):
    """Re-raise a :class:`PresentationError` with the line number."""
    try:
        yield
    except PresentationError as exc:
        raise PresentationError(str(exc), lineno) from None


def _parse_relation_terms(rest: str, lineno: int):
    if not rest:
        raise PresentationError("empty relation", lineno)
    tokens = re.split(r"\s*([+-])\s*", rest)
    if tokens[0].strip():
        signed = [("+", tokens[0])]
        rest_tokens = tokens[1:]
    else:
        # leading sign belongs to the first term
        if len(tokens) < 3:
            raise PresentationError("dangling sign in relation", lineno)
        signed = [(tokens[1], tokens[2])]
        rest_tokens = tokens[3:]
    for sign, chunk in zip(rest_tokens[0::2], rest_tokens[1::2]):
        signed.append((sign, chunk))
    out = []
    for sign, chunk in signed:
        chunk = chunk.strip()
        if not chunk:
            raise PresentationError("dangling sign in relation", lineno)
        pieces = [piece.strip() for piece in chunk.split("*")]
        coeff = Fraction(1)
        if _RATIONAL_RE.match(pieces[0]):
            den = pieces[0].partition("/")[2]
            if den and int(den) == 0:
                raise PresentationError("zero denominator", lineno)
            coeff = Fraction(pieces[0])
            pieces = pieces[1:]
        if not pieces:
            raise PresentationError("term has no factors", lineno)
        factors: list[tuple[str, int]] = []
        for piece in pieces:
            m = _FACTOR_RE.match(piece)
            if not m:
                raise PresentationError(f"bad factor {piece!r}", lineno)
            name, power = m.group(1), m.group(2)
            k = int(power) if power is not None else 1
            if k < 1:
                raise PresentationError("factor power must be >= 1", lineno)
            if factors and factors[-1][0] == name:
                factors[-1] = (name, factors[-1][1] + k)
            else:
                factors.append((name, k))
        if coeff == 0:
            raise PresentationError("zero coefficient", lineno)
        if sign == "-":
            coeff = -coeff
        out.append((coeff, factors))
    return out


def _forbidden_power(quiver: Quiver, orders: Mapping[str, int],
                     runs: Sequence[tuple[str, int]]) -> Optional[str]:
    """The first loop power ``name^k`` of the runs at or above its order."""
    for name, k in runs:
        a = quiver.arrow(name)
        if a.is_loop and k >= orders[a.source]:
            return f"{name}^{k}"
    return None


def _expand_factors(quiver: Quiver, orders: Mapping[str, int],
                    factors: Sequence[tuple[str, int]]) -> list[str]:
    """The arrow word of a term's factors, refusing a power the arrow
    cannot carry before the word is written out."""
    power = _forbidden_power(quiver, orders, factors)
    if power is not None:
        raise PresentationError(
            f"path {_format_runs(factors)} contains the forbidden power {power}")
    for name, k in factors:
        if k > 1 and not quiver.arrow(name).is_loop:
            raise PresentationError(f"arrows {name!r} and {name!r} do not compose")
    return [name for name, k in factors for _ in range(k)]
