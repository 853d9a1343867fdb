"""The word model of paths that the run-built paths replaced, and the
helpers that state test paths as arrow words.

``Quiver.path`` once took the expanded arrow word and ``Path`` stored it;
``WordPath``, ``word_path``, ``_runs``, ``_term_key`` and
``_normalize_combo`` below are that code, kept verbatim in substance as
the reference of the differential test of run-built paths and relations.
``path_of`` builds the run-built path of a word (each arrow a run of one,
which ``Quiver.path`` merges) and ``word_of`` writes a path's runs out.
"""
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from quiverstrata.quiver import Path, PresentationError, Quiver, _format_runs


def path_of(quiver: Quiver, word: Sequence[str]) -> Path:
    """The path of a composition-ordered arrow word (leftmost applied last)."""
    return quiver.path([(name, 1) for name in word])


def word_of(path: Path) -> tuple[str, ...]:
    """The arrow word of a path, its runs written out."""
    return tuple(name for name, k in path.runs for _ in range(k))


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
