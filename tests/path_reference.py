"""The word model of paths that the run-built paths replaced, and the
helpers that state test paths as arrow words.

``Quiver.path`` once took the expanded arrow word and ``Path`` stored it;
``WordPath``, ``word_path``, ``_runs``, ``_term_key`` and
``_normalize_combo`` below are that code, kept verbatim in substance as
the reference of the differential tests of relations, which store each
term as its split.  ``path_of`` hands a word to ``Relation.make`` (each
arrow a run of one, which ``Relation.make`` merges) and ``word_of``
writes a relation term out as its arrow word.
"""
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from quiverstrata.quiver import PresentationError, Quiver, Relation, _format_runs


def path_of(word: Sequence[str]) -> list[tuple[str, int]]:
    """The arrow runs of a composition-ordered arrow word (leftmost
    applied last), as ``Relation.make`` takes a term's path."""
    return [(name, 1) for name in word]


def word_of(rel: Relation, term) -> tuple[str, ...]:
    """The arrow word ``lt^pre x ls^post`` of a term of ``rel``."""
    (lt, ls), (_, pre, name, post) = rel.loops, term
    return (lt,) * pre + (name,) + (ls,) * post


def word_path(quiver: Quiver, arrow_names: Sequence[str]) -> "WordPath":
    """Path from a composition-ordered arrow word (leftmost applied last)."""
    if not arrow_names:
        raise PresentationError("empty arrow word")
    arrows = [quiver.arrow(n) for n in arrow_names]
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
    return WordPath(tuple(arrow_names), arrows[-1].source, arrows[0].target,
                    len(moves), split)


@dataclass(frozen=True)
class WordPath:
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
        return _format_runs(_runs(self.arrows))


def _runs(word: Sequence[str]) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for name in word:
        if out and out[-1][0] == name:
            out[-1] = (name, out[-1][1] + 1)
        else:
            out.append((name, 1))
    return out


def _term_key(p: WordPath):
    return (p.length, p.arrows)


def _normalize_combo(terms: Iterable[tuple[Fraction | int, WordPath]]
                     ) -> list[tuple[Fraction, WordPath]]:
    """Combine equal paths, drop zero coefficients, sort by length then word."""
    combined: dict[WordPath, Fraction] = {}
    for coeff, p in terms:
        if p in combined:
            combined[p] += coeff
        else:
            combined[p] = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
    out = [(c, p) for p, c in combined.items() if c != 0]
    out.sort(key=lambda t: _term_key(t[1]))
    return out
