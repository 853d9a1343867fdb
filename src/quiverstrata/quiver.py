"""Quivers, relations, and bound quiver presentations.  A relation term is
stored as its split, loop power, arrow and loop power, the one shape the
engine ranks.  The constructors check every rule; the file parser adds
syntax and line numbers."""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "Arrow",
    "Quiver",
    "Relation",
    "BoundQuiverPresentation",
    "PresentationError",
    "parse_presentation",
    "serialize_presentation",
]


class PresentationError(ValueError):
    """Invalid presentation text or construction; carries a line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str

    @property
    def is_loop(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise PresentationError(f"duplicate vertex {v!r}")
            seen.add(v)
        names = set()
        for a in self.arrows:
            if a.name in names:
                raise PresentationError(f"duplicate arrow {a.name!r}")
            names.add(a.name)
            for v in (a.source, a.target):
                if v not in seen:
                    raise PresentationError(f"arrow {a.name!r} references unknown vertex {v!r}")
        object.__setattr__(self, "_by_name", {a.name: a for a in self.arrows})
        # the loop of each vertex, for the split of relation terms
        object.__setattr__(self, "_loop_at",
                           {a.source: a.name for a in self.arrows if a.source == a.target})

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise PresentationError(f"unknown arrow {name!r}") from None

    @property
    def non_loop_arrows(self) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if not a.is_loop)


Runs = tuple[tuple[str, int], ...]


def _compose(quiver: Quiver, runs: Iterable[tuple[str, int]]) -> tuple[Runs, list[Arrow]]:
    """The maximal runs of the path of arrow runs ``(name, k)``, and their
    arrows; adjacent runs of one arrow merge, and a run of 0 is dropped."""
    merged: list[tuple[str, int]] = []
    for name, k in runs:
        if merged and merged[-1][0] == name:
            merged[-1] = (name, merged[-1][1] + k)
        elif k:
            merged.append((name, k))
    if not merged:
        raise PresentationError("empty arrow word")
    arrows = [quiver.arrow(name) for name, _ in merged]
    for a, (_, k) in zip(arrows, merged):
        if k > 1 and not a.is_loop:
            raise PresentationError(f"arrows {a.name!r} and {a.name!r} do not compose")
    for left, right in zip(arrows, arrows[1:]):
        if left.source != right.target:
            raise PresentationError(
                f"arrows {left.name!r} and {right.name!r} do not compose"
            )
    return tuple(merged), arrows


def _term_key(runs: Runs):
    """Length, then the arrow word, compared run by run: where two words
    part inside runs of one arrow, the shorter run meets the arrow of the
    next run ("" past the end), so it sorts first exactly when that arrow
    comes before its own."""
    after = [name for name, _ in runs[1:]] + [""]
    return (sum(k for _, k in runs), tuple((name, nxt > name, -k if nxt > name else k)
                                           for (name, k), nxt in zip(runs, after)))


@dataclass(frozen=True)
class Relation:
    """Normalized linear combination of paths of length >= 2 from
    ``source`` to ``target``, each with exactly one non-loop arrow, stored
    as its split: a term ``(c, i, a, j)`` is ``c * lt^i * a * ls^j`` with
    ``loops = (lt, ls)``, the loops at the target and the source (None
    where a vertex has none)."""

    terms: tuple[tuple[Fraction, int, str, int], ...]
    source: str
    target: str
    loops: tuple[Optional[str], Optional[str]]

    @classmethod
    def make(cls, quiver: Quiver,
             terms: Iterable[tuple[Fraction | int, Iterable[tuple[str, int]]]],
             source: Optional[str] = None, target: Optional[str] = None) -> "Relation":
        """The relation of ``terms``, each ``(coefficient, arrow runs)`` in
        composition order (leftmost applied last), composed as they are
        drawn: equal paths combine, zero coefficients drop, and the rest sort
        by length, then word.  The endpoints default to the first term's."""
        combined: dict[Runs, Fraction | int] = {}
        arrows_of: dict[Runs, list[Arrow]] = {}
        for coeff, runs in terms:
            runs, arrows_of[runs] = _compose(quiver, runs)
            source = arrows_of[runs][-1].source if source is None else source
            target = arrows_of[runs][0].target if target is None else target
            combined[runs] = combined.get(runs, 0) + coeff
        kept = sorted((runs for runs, c in combined.items() if c), key=_term_key)
        if source is None or target is None:
            raise PresentationError("zero relation needs explicit endpoints")
        ends = [(arrows_of[r][-1].source, arrows_of[r][0].target) for r in kept]
        if kept and ends[0][0] != source:
            raise PresentationError("relation source does not match its paths")
        if kept and ends[0][1] != target:
            raise PresentationError("relation target does not match its paths")
        for runs, end in zip(kept, ends):
            if sum(k for _, k in runs) < 2:
                raise PresentationError(f"relation path {_format_runs(runs)} has length < 2")
            if end != (source, target):
                raise PresentationError("relation paths have mismatched endpoints")
        moves = [[i for i, a in enumerate(arrows_of[r]) if not a.is_loop] for r in kept]
        if not all(moves):
            raise PresentationError("degree-0 relation; use a loop order instead")
        for runs, at in zip(kept, moves):
            if len(at) > 1:
                raise PresentationError(
                    f"path {_format_runs(runs)} has degree {len(at)}; the linear engine "
                    "supports exactly one non-loop arrow per term")
        loops = (quiver._loop_at.get(target), quiver._loop_at.get(source))
        split = [(Fraction(combined[runs]), sum(k for _, k in runs[:i]), runs[i][0],
                  sum(k for _, k in runs[i + 1:])) for runs, [i] in zip(kept, moves)]
        for runs, term in zip(kept, split):
            if _term_runs(loops, term) != runs:  # the split names one loop per vertex
                raise PresentationError(
                    f"path {_format_runs(runs)} meets two loops at a vertex")
        return cls(tuple(split), source, target, loops)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, term in enumerate(self.terms):
            c, p = term[0], _format_runs(_term_runs(self.loops, term))
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = p if mag == 1 else f"{mag}*{p}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


def _term_runs(loops: tuple[Optional[str], Optional[str]], term: tuple) -> Runs:
    """The arrow runs of a term of a relation with the loops ``loops``."""
    (lt, ls), (_, pre, name, post) = loops, term
    return tuple((x, k) for x, k in ((lt, pre), (name, 1), (ls, post)) if k)


def _format_runs(runs: Sequence[tuple[str, int]]) -> str:
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in runs)


def _refuse_forbidden_power(quiver: Quiver, orders: Mapping[str, int],
                            runs: Sequence[tuple[str, int]]) -> None:
    """Refuse the path of ``runs`` at its first loop power at or above its order."""
    for name, k in runs:
        a = quiver.arrow(name)
        if a.is_loop and k >= orders[a.source]:
            raise PresentationError(
                f"path {_format_runs(runs)} contains the forbidden power {name}^{k}")


@dataclass(frozen=True)
class BoundQuiverPresentation:
    """Quiver with per-vertex nilpotency orders and the mixed relations.

    Order 1 at a vertex means the vertex carries no loop (the induced loop
    action is the zero map); a physical loop forces order >= 2.  Every
    relation term lives in the monomial basis: no path may contain a loop
    power at or above the order of its vertex.
    """

    quiver: Quiver
    orders: tuple[int, ...]
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        q = self.quiver
        if len(self.orders) != len(q.vertices):
            raise PresentationError("orders must align with the vertex list")
        order_of = dict(zip(q.vertices, self.orders))
        loops = dict.fromkeys(q.vertices, 0)
        for a in q.arrows:
            if a.is_loop:
                loops[a.source] += 1
        for v, m in order_of.items():
            if loops[v] > 1:
                raise PresentationError(f"vertex {v!r} carries more than one loop")
            if loops[v] and m < 2:
                raise PresentationError(
                    f"loop at {v!r} needs order >= 2 (omit the loop for order 1)")
            if not loops[v] and m != 1:
                raise PresentationError(f"vertex {v!r} has order {m} but no loop")
        for rel in self.relations:
            if rel.is_zero:
                raise PresentationError("relation cancels to zero")
            for term in rel.terms:  # paths stay in the monomial basis
                _refuse_forbidden_power(q, order_of, _term_runs(rel.loops, term))

    def order(self, vertex: str) -> int:
        return self.orders[self.quiver.vertices.index(vertex)]

    @property
    def order_map(self) -> dict[str, int]:
        return dict(zip(self.quiver.vertices, self.orders))


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_FACTOR_RE = re.compile(r"^(\w+)(?:\^(\d+))?$")
_ARROW_RE = re.compile(r"^(\S+)\s+(\S+)\s*->\s*(\S+)$")


def parse_presentation(text: str) -> BoundQuiverPresentation:
    """Parse the line-oriented presentation format.

    Directives (``#`` starts a comment)::

        vertex <id>
        loop <id> <vertex> order <m>
        arrow <id> <src> -> <dst>
        relation <term> (+|-) <term> ...

    A term is ``[<rational>*]<factor>*<factor>*...`` with factors
    ``<arrowid>`` or ``<loopid>^<k>``, written left-to-right in composition
    order (leftmost factor applied last).  Every line is parsed first and
    the presentation is built once.  An error names the first line at
    which the declarations so far fail; relations, which may name arrows
    declared after them, come after every declaration.
    """
    decls: list[tuple[int, object, Optional[int]]] = []
    relations: list[tuple[int, object, None]] = []
    seen: set[str] = set()
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            keyword, _, rest = line.partition(" ")
            rest = rest.strip()
            if keyword == "relation":
                relations.append((lineno, _parse_relation_terms(rest, lineno), None))
                continue
            if keyword == "vertex":
                if not rest or " " in rest:
                    raise PresentationError("expected: vertex <id>", lineno)
                decls.append((lineno, rest, None))
                seen.add(rest)
                continue
            if keyword == "loop":
                m = re.match(r"^(\S+)\s+(\S+)\s+order\s+(\d+)$", rest)
                if not m:
                    raise PresentationError("expected: loop <id> <vertex> order <m>", lineno)
                name, vertex, order = m.group(1), m.group(2), _integer(m.group(3), lineno)
                decls.append((lineno, Arrow(name, vertex, vertex), order))
            elif keyword == "arrow":
                m = _ARROW_RE.match(rest)
                if not m:
                    raise PresentationError("expected: arrow <id> <src> -> <dst>", lineno)
                name, src, dst = m.groups()
                if src == dst:
                    raise PresentationError("declare loops with the loop directive", lineno)
                decls.append((lineno, Arrow(name, src, dst), None))
            else:
                raise PresentationError(f"unknown directive {keyword!r}", lineno)
            if not {decls[-1][1].source, decls[-1][1].target} <= seen:
                break  # a vertex declared later fails this prefix, not the whole
    except PresentationError:
        _built(decls)  # an earlier line's error comes first
        raise
    return _built(decls + relations)


def _declared(decls) -> BoundQuiverPresentation:
    """The presentation of ``(line, item, loop order)`` declarations, each
    item a vertex, an arrow or the parsed terms of a relation; a vertex
    takes the order of its last loop, or 1."""
    vertices = tuple(d for _, d, _ in decls if isinstance(d, str))
    quiver = Quiver(vertices, tuple(d for _, d, _ in decls if isinstance(d, Arrow)))
    order_of = {d.source: m for _, d, m in decls if m is not None}
    relations = []
    for _, term_runs, _ in decls:
        if isinstance(term_runs, list):
            # drawn lazily, so a term's forbidden power is named before
            # ``Relation.make`` checks the term's arrows, term by term
            relations.append(Relation.make(quiver, (
                (coeff, _refuse_forbidden_power(quiver, order_of, factors) or factors)
                for coeff, factors in term_runs)))
    return BoundQuiverPresentation(quiver, tuple(order_of.get(v, 1) for v in vertices),
                                   tuple(relations))


def _built(decls) -> BoundQuiverPresentation:
    """The presentation of ``decls``, built once.  When that fails, the
    prefixes are built in turn, so the error names the first line that
    breaks them."""
    try:
        return _declared(decls)
    except PresentationError:
        for k, (lineno, _, _) in enumerate(decls, 1):
            try:
                _declared(decls[:k])
            except PresentationError as exc:
                raise PresentationError(str(exc), lineno) from None
        raise


def _integer(digits: str, lineno: int) -> int:
    """``int(digits)``, with an over-long literal an error of its line."""
    try:
        return int(digits)
    except ValueError:  # beyond Python's limit on integer string conversion
        raise PresentationError(f"{len(digits)}-digit integer is too long", lineno) from None


def _parse_relation_terms(rest: str, lineno: int):
    if not rest:
        raise PresentationError("empty relation", lineno)
    tokens = re.split(r"\s*([+-])\s*", rest)  # term, sign, term, ..., sign, term
    # an empty first term is a leading sign, which belongs to the next term
    signed = [("+", tokens[0])] if tokens[0] else []
    signed += zip(tokens[1::2], tokens[2::2])
    out = []
    for sign, chunk in signed:
        chunk = chunk.strip()
        if not chunk:
            raise PresentationError("dangling sign in relation", lineno)
        pieces = [piece.strip() for piece in chunk.split("*")]
        coeff = Fraction(1)
        if _RATIONAL_RE.match(pieces[0]):
            num, _, den = pieces[0].partition("/")
            denominator = _integer(den or "1", lineno)
            if denominator == 0:
                raise PresentationError("zero denominator", lineno)
            coeff = Fraction(_integer(num, lineno), denominator)
            pieces = pieces[1:]
        if not pieces:
            raise PresentationError("term has no factors", lineno)
        factors: list[tuple[str, int]] = []
        for piece in pieces:
            m = _FACTOR_RE.match(piece)
            if not m:
                raise PresentationError(f"bad factor {piece!r}", lineno)
            name, power = m.group(1), m.group(2)
            k = _integer(power, lineno) if power is not None else 1
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


def serialize_presentation(pres: BoundQuiverPresentation) -> str:
    """Inverse of :func:`parse_presentation` on valid presentations."""
    q = pres.quiver
    order_of = pres.order_map
    lines = [f"vertex {v}" for v in q.vertices]
    for a in q.arrows:
        if a.is_loop:
            lines.append(f"loop {a.name} {a.source} order {order_of[a.source]}")
    for a in q.arrows:
        if not a.is_loop:
            lines.append(f"arrow {a.name} {a.source} -> {a.target}")
    for rel in pres.relations:
        lines.append(f"relation {rel}")
    return "\n".join(lines) + "\n"
