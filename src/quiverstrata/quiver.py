"""Quivers, paths, relations, and bound quiver presentations."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "Arrow",
    "Quiver",
    "Path",
    "Relation",
    "BoundQuiverPresentation",
    "PresentationError",
    "SubstitutionError",
    "CycleDiagnostic",
    "parse_presentation",
    "serialize_presentation",
    "detect_shortcuts",
    "check_cycle_conditions",
    "apply_arrow_substitution",
    "invert_substitution",
    "relation_mod_orders",
    "truncate_terms",
]


class PresentationError(ValueError):
    """Invalid presentation text or construction; carries a line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SubstitutionError(ValueError):
    pass


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
            if a.source not in seen or a.target not in seen:
                raise PresentationError(f"arrow {a.name!r} references unknown vertex")
        object.__setattr__(self, "_by_name", {a.name: a for a in self.arrows})

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise PresentationError(f"unknown arrow {name!r}") from None

    @property
    def non_loop_arrows(self) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if not a.is_loop)

    def loops_at(self, vertex: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.is_loop and a.source == vertex)

    def path(self, arrow_names: Sequence[str]) -> "Path":
        """Path from a composition-ordered arrow word (leftmost applied last)."""
        if not arrow_names:
            raise PresentationError("empty arrow word; use trivial_path")
        arrows = [self.arrow(n) for n in arrow_names]
        for left, right in zip(arrows, arrows[1:]):
            if left.source != right.target:
                raise PresentationError(
                    f"arrows {left.name!r} and {right.name!r} do not compose"
                )
        moves = [k for k, a in enumerate(arrows) if not a.is_loop]
        split = None
        if len(moves) == 1:
            k = moves[0]
            split = (k, arrows[k].name, len(arrows) - 1 - k)
        return Path(tuple(arrow_names), arrows[-1].source, arrows[0].target,
                    len(moves), split)

    def trivial_path(self, vertex: str) -> "Path":
        if vertex not in self.vertices:
            raise PresentationError(f"unknown vertex {vertex!r}")
        return Path((), vertex, vertex, 0)


@dataclass(frozen=True)
class Path:
    """Composable arrow word; ``arrows[0]`` is applied last (target side)."""

    arrows: tuple[str, ...]
    source: str
    target: str
    degree: int
    # (loops before, arrow, loops after) when exactly one arrow is not a loop
    split: Optional[tuple[int, str, int]] = field(default=None, compare=False)

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        if not self.arrows:
            return f"e({self.source})"
        return _format_runs(_runs(self.arrows))


def _runs(word: Sequence[str]) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for name in word:
        if out and out[-1][0] == name:
            out[-1] = (name, out[-1][1] + 1)
        else:
            out.append((name, 1))
    return out


def _term_key(p: Path):
    return (p.length, p.arrows)


Combo = list[tuple[Fraction, Path]]


def _normalize_combo(terms: Iterable[tuple[Fraction | int, Path]]) -> Combo:
    """Combine equal paths, drop zero coefficients, sort by length then word."""
    combined: dict[Path, Fraction] = {}
    for coeff, p in terms:
        combined[p] = combined.get(p, Fraction(0)) + Fraction(coeff)
    out = [(c, p) for p, c in combined.items() if c != 0]
    out.sort(key=lambda t: _term_key(t[1]))
    return out


@dataclass(frozen=True)
class Relation:
    """Normalized linear combination of length >= 2 paths with common endpoints."""

    terms: tuple[tuple[Fraction, Path], ...]
    source: str
    target: str

    @classmethod
    def make(cls, terms: Iterable[tuple[Fraction | int, Path]],
             source: Optional[str] = None, target: Optional[str] = None) -> "Relation":
        kept = _normalize_combo(terms)
        if kept:
            src = kept[0][1].source
            tgt = kept[0][1].target
            if source is not None and source != src:
                raise PresentationError("relation source does not match its paths")
            if target is not None and target != tgt:
                raise PresentationError("relation target does not match its paths")
            source, target = src, tgt
        if source is None or target is None:
            raise PresentationError("zero relation needs explicit endpoints")
        for c, p in kept:
            if p.length < 2:
                raise PresentationError(f"relation path {p} has length < 2")
            if p.source != source or p.target != target:
                raise PresentationError("relation paths have mismatched endpoints")
        return cls(tuple(kept), source, target)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return min(p.degree for _, p in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (c, p) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = str(p) if mag == 1 else f"{mag}*{p}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


def _format_runs(runs: Sequence[tuple[str, int]]) -> str:
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in runs)


def _forbidden_power(quiver: Quiver, orders: Mapping[str, int],
                     runs: Sequence[tuple[str, int]]) -> Optional[str]:
    """The first loop power ``name^k`` of the runs at or above its order."""
    for name, k in runs:
        a = quiver.arrow(name)
        if a.is_loop and k >= orders[a.source]:
            return f"{name}^{k}"
    return None


def truncate_terms(quiver: Quiver, orders: dict[str, int],
                   terms: Iterable[tuple[Fraction | int, Path]]):
    """Drop terms containing a loop power at or above its nilpotency order."""
    return [(Fraction(coeff), p) for coeff, p in terms
            if _forbidden_power(quiver, orders, _runs(p.arrows)) is None]


def relation_mod_orders(quiver: Quiver, orders: dict[str, int],
                        terms: Iterable[tuple[Fraction | int, Path]],
                        source: Optional[str] = None,
                        target: Optional[str] = None) -> Relation:
    return Relation.make(truncate_terms(quiver, orders, terms), source, target)


@dataclass(frozen=True)
class BoundQuiverPresentation:
    """Quiver with per-vertex nilpotency orders and the mixed relations.

    Order 1 at a vertex means the vertex carries no loop (the induced loop
    action is the zero map); a physical loop forces order >= 2.  Relation
    paths live in the monomial basis: no path may contain a loop power at
    or above the order of its vertex.
    """

    quiver: Quiver
    orders: tuple[int, ...]
    relations: tuple[Relation, ...] = ()
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        q = self.quiver
        if len(self.orders) != len(q.vertices):
            raise PresentationError("orders must align with the vertex list")
        order_of = dict(zip(q.vertices, self.orders))
        for v in q.vertices:
            loops = q.loops_at(v)
            if len(loops) > 1:
                raise PresentationError(f"vertex {v!r} carries more than one loop")
            m = order_of[v]
            if m < 1:
                raise PresentationError(f"nilpotency order at {v!r} must be >= 1")
            if loops and m < 2:
                raise PresentationError(f"loop at {v!r} needs order >= 2")
            if not loops and m != 1:
                raise PresentationError(f"vertex {v!r} has order {m} but no loop")
        for rel in self.relations:
            if rel.is_zero:
                raise PresentationError("presentations may not contain zero relations")
            if rel.degree == 0:
                raise PresentationError(
                    "degree-0 relations are expressed through nilpotency orders"
                )
            for _, p in rel.terms:  # paths stay in the monomial basis
                power = _forbidden_power(q, order_of, _runs(p.arrows))
                if power is not None:
                    raise PresentationError(f"path {p} contains the forbidden power {power}")

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
    order (leftmost factor applied last).
    """
    vertices: list[str] = []
    arrows: list[Arrow] = []
    orders: dict[str, int] = {}
    relation_specs: list[tuple[int, list[tuple[Fraction, list[str]]]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "vertex":
            if not rest or " " in rest:
                raise PresentationError("expected: vertex <id>", lineno)
            if rest in vertices:
                raise PresentationError(f"duplicate vertex {rest!r}", lineno)
            vertices.append(rest)
        elif keyword == "loop":
            m = re.match(r"^(\S+)\s+(\S+)\s+order\s+(\d+)$", rest)
            if not m:
                raise PresentationError("expected: loop <id> <vertex> order <m>", lineno)
            name, vertex, order = m.group(1), m.group(2), int(m.group(3))
            if vertex not in vertices:
                raise PresentationError(f"unknown vertex {vertex!r}", lineno)
            if any(a.name == name for a in arrows):
                raise PresentationError(f"duplicate arrow {name!r}", lineno)
            if any(a.is_loop and a.source == vertex for a in arrows):
                raise PresentationError(f"vertex {vertex!r} already has a loop", lineno)
            if order < 2:
                raise PresentationError(
                    "loop order must be >= 2 (omit the loop for order 1)", lineno
                )
            arrows.append(Arrow(name, vertex, vertex))
            orders[vertex] = order
        elif keyword == "arrow":
            m = _ARROW_RE.match(rest)
            if not m:
                raise PresentationError("expected: arrow <id> <src> -> <dst>", lineno)
            name, src, dst = m.groups()
            if src not in vertices or dst not in vertices:
                raise PresentationError("arrow endpoints must be declared vertices", lineno)
            if any(a.name == name for a in arrows):
                raise PresentationError(f"duplicate arrow {name!r}", lineno)
            if src == dst:
                raise PresentationError("declare loops with the loop directive", lineno)
            arrows.append(Arrow(name, src, dst))
        elif keyword == "relation":
            relation_specs.append((lineno, _parse_relation_terms(rest, lineno)))
        else:
            raise PresentationError(f"unknown directive {keyword!r}", lineno)

    quiver = Quiver(tuple(vertices), tuple(arrows))
    order_map = {v: orders.get(v, 1) for v in vertices}
    relations = []
    for lineno, term_words in relation_specs:
        terms = []
        for coeff, factors in term_words:
            try:
                path = quiver.path(_expand_factors(quiver, order_map, factors))
            except PresentationError as exc:
                raise PresentationError(str(exc), lineno) from None
            terms.append((coeff, path))
        try:
            rel = Relation.make(terms)
        except PresentationError as exc:
            raise PresentationError(str(exc), lineno) from None
        if rel.is_zero:
            raise PresentationError("relation cancels to zero", lineno)
        if rel.degree == 0:
            raise PresentationError(
                "degree-0 relation; use a loop order instead", lineno
            )
        relations.append(rel)

    return BoundQuiverPresentation(
        quiver, tuple(order_map[v] for v in vertices), tuple(relations)
    )


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


# ---------------------------------------------------------------------------
# structural diagnostics
# ---------------------------------------------------------------------------

def detect_shortcuts(quiver: Quiver) -> list[Arrow]:
    """Non-loop arrows paralleled by a loop-free path of length >= 2."""
    verts = quiver.vertices
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    edge = [[False] * n for _ in range(n)]
    for a in quiver.non_loop_arrows:
        edge[index[a.source]][index[a.target]] = True
    reach = [row[:] for row in edge]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    out = []
    for a in quiver.non_loop_arrows:
        s, t = index[a.source], index[a.target]
        if any(reach[s][index[b.source]] and index[b.target] == t
               for b in quiver.non_loop_arrows):
            out.append(a)
    return out


@dataclass(frozen=True)
class CycleDiagnostic:
    ok: bool
    multi_loop_vertex: Optional[str] = None
    degree_cycle: Optional[tuple[str, ...]] = None


def check_cycle_conditions(quiver: Quiver) -> CycleDiagnostic:
    """Check that every oriented cycle is a power of a loop and loops are unique.

    Both conditions together say the only cycling happens through a single
    loop per vertex; a cycle using a non-loop arrow, or two loops at one
    vertex, is reported with a witness.
    """
    for v in quiver.vertices:
        if len(quiver.loops_at(v)) > 1:
            return CycleDiagnostic(False, multi_loop_vertex=v)
    cycle = _find_loop_free_cycle(quiver)
    if cycle is not None:
        return CycleDiagnostic(False, degree_cycle=tuple(cycle))
    return CycleDiagnostic(True)


def _find_loop_free_cycle(quiver: Quiver) -> Optional[list[str]]:
    out_arrows: dict[str, list[Arrow]] = {v: [] for v in quiver.vertices}
    for a in quiver.non_loop_arrows:
        out_arrows[a.source].append(a)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in quiver.vertices}
    stack_arrows: list[Arrow] = []

    def dfs(v: str) -> Optional[list[str]]:
        color[v] = GRAY
        for a in out_arrows[v]:
            w = a.target
            if color[w] == GRAY:
                names = [a.name]
                for b in reversed(stack_arrows):
                    names.append(b.name)
                    if b.source == w:
                        break
                return names
            if color[w] == WHITE:
                stack_arrows.append(a)
                found = dfs(w)
                stack_arrows.pop()
                if found is not None:
                    return found
        color[v] = BLACK
        return None

    for v in quiver.vertices:
        if color[v] == WHITE:
            found = dfs(v)
            if found is not None:
                return found
    return None


# ---------------------------------------------------------------------------
# arrow substitutions
# ---------------------------------------------------------------------------

def _concat(quiver: Quiver, left: Path, right: Path) -> Path:
    if left.length == 0:
        return right
    if right.length == 0:
        return left
    return quiver.path(left.arrows + right.arrows)


def _substitute_in_path(pres: BoundQuiverPresentation, word: Path,
                        arrow_name: str, expansion: Combo) -> Combo:
    """Replace each occurrence of the arrow in the word by the expansion."""
    quiver = pres.quiver
    orders = pres.order_map
    acc: Combo = [(Fraction(1), quiver.trivial_path(word.target))]
    for name in word.arrows:
        pieces = expansion if name == arrow_name else [(Fraction(1), quiver.path([name]))]
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
        if p.arrows == (arrow_name,):
            lead = c
        else:
            rest.append((c, p))
    if lead == 0:
        raise SubstitutionError(
            f"replacement has no invertible coefficient on {arrow_name!r}"
        )
    bare = quiver.path([arrow_name])
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
    isomorphism (recorded in the provenance log, not checked).
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
    note = f"{arrow_name} <- " + " + ".join(
        (f"{c}*{p}" if c != 1 else str(p)) for c, p in replacement
    )
    return BoundQuiverPresentation(
        pres.quiver, pres.orders, tuple(new_relations),
        pres.provenance + (note,),
    )
