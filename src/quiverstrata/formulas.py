"""Closed-form codimensions for the supported one-arrow relation shapes.

Each item fixes a relation shape on the two-vertex quiver with loops at
both ends (single parts p and q for the Jordan types) and states the rank
of the induced linear system:

    1   eps0^l a                                            p - l
    2   eps0^l a + eps0^(l-1) a eps1          (q = 2)       2 (p - l)
    3   eps0 a + a eps1                                     q (p - 1)
    4   eps0 a + b eps1                                     p q - 1
    5   eps0 a + a eps1 + b eps1^(q-1)                      q (p - 1) + 1
    6   sum_{i=q-l}^{q-1} eps0^(p+q-l-i-1) a eps1^i         l
    7   eps0^(p-1) a eps1^(q-2) + t eps0^(p-2) a eps1^(q-1)
          + eps0^(p-1) c eps1^(q-1)                         2
    8   eps0^(p-1) a eps1^(q-2) + eps0^(p-2) b eps1^(q-1)
          + eps0^(p-1) c eps1^(q-1)                         3
    9   eps0^(p-1) a eps1^(q-3) + eps0^(p-2) a eps1^(q-2)
          + t eps0^(p-3) a eps1^(q-1) + eps0^(p-2) c1 eps1^(q-1)
          + eps0^(p-1) c2 eps1^(q-1)             (t != 1)   4
    10  item 6 + eps0^(p-2) b eps1^(q-1)
          + eps0^(p-1) c eps1^(q-1)              (l >= 3)   l + 1
    11  item 6 + t eps0^(p-3) a eps1^(q-1) + eps0^(p-2) c1 eps1^(q-1)
          + eps0^(p-1) c2 eps1^(q-1)    (l >= 4, t != 0)    l + 1

Here a, b are linearly independent arrow combinations and c, c1, c2 are
arbitrary ones; the sweep instantiates them as the distinct arrows 0, 1, 2
of the h arrows 1 -> 0.  It states each term as the integer split term
``(coefficient, eps0 power, arrow index, eps1 power)`` that
``linsys.assemble_system`` reads, and builds no quiver, path or relation.
The arrows past the item's ``symbols`` are in no term, so the h of a case
changes no row.  One builder, ``build_case``, checks a shape (item, p, q,
l, lambda) and gives its closed form and terms to ``formula_sweep``, which
ranks each shape once for every h with no memo cache, and to
``single_case``, which bounds its entries and ranks it; both give the same
row.  ``_ITEMS`` holds the rules that are not side conditions: which items
take l or lambda or fix q, their arrows.
"""
from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .linsys import Term, assemble_system, rank_exact

__all__ = [
    "SideConditionError",
    "c_closed_form",
    "formula_sweep",
    "single_case",
    "build_case",
]


class SideConditionError(ValueError):
    pass


class _Rules(NamedTuple):
    symbols: int                    # distinct arrow symbols the relation uses
    takes_l: bool = False
    takes_lambda: bool = False
    fixed_q: Optional[int] = None


_ITEMS = {1: _Rules(1, takes_l=True, fixed_q=1), 2: _Rules(1, takes_l=True, fixed_q=2),
          3: _Rules(1), 4: _Rules(2), 5: _Rules(2), 6: _Rules(1, takes_l=True),
          7: _Rules(2, takes_lambda=True), 8: _Rules(3), 9: _Rules(3, takes_lambda=True),
          10: _Rules(3, takes_l=True), 11: _Rules(3, takes_l=True, takes_lambda=True)}


def _rules(item: int) -> _Rules:
    if item not in _ITEMS:
        raise SideConditionError(f"unknown item {item}")
    return _ITEMS[item]


def c_closed_form(item: int, p: Optional[int] = None, q: Optional[int] = None,
                  l: Optional[int] = None, lam: Optional[Fraction] = None) -> int:
    """Closed-form codimension of the given item, checking side conditions."""
    fixed_q = _rules(item).fixed_q
    if p is None or p < 1:
        raise SideConditionError("p >= 1 required")
    if fixed_q is not None and q not in (None, fixed_q):
        raise SideConditionError(f"item {item} has q = {fixed_q}")
    if item == 1:
        if l is None or not 1 <= l <= p:
            raise SideConditionError("item 1 needs 1 <= l <= p")
        return p - l
    if item == 2:
        if l is None or not 1 <= l < p:
            raise SideConditionError("item 2 needs 1 <= l < p")
        return 2 * (p - l)
    if q is None or q < 1:
        raise SideConditionError("q >= 1 required")
    if item in (3, 4):
        if q > p:
            raise SideConditionError("q <= p required")
        return q * (p - 1) if item == 3 else p * q - 1
    if item == 5:
        if not 2 <= q <= p:
            raise SideConditionError("item 5 needs 2 <= q <= p")
        return q * (p - 1) + 1
    if item in (6, 10, 11):
        low = {6: 1, 10: 3, 11: 4}[item]
        if l is None or not low <= l <= min(p, q):
            raise SideConditionError(f"item {item} needs {low} <= l <= min(p, q)")
        if item == 11 and lam == 0:
            raise SideConditionError("item 11 needs lambda != 0")
        return l + (item != 6)
    if item in (7, 8):
        if p < 2 or q < 2:
            raise SideConditionError("items 7 and 8 need p, q >= 2")
        return 2 if item == 7 else 3
    # item 9
    if p < 3 or q < 3:
        raise SideConditionError("item 9 needs p, q >= 3")
    if lam == 1:
        raise SideConditionError("item 9 needs lambda != 1")
    return 4


def _term_shapes(item: int, p: int, q: int, l: Optional[int],
                 lam: Optional[Fraction]) -> list[Term]:
    """(integer coefficient, eps0 power, arrow index, eps1 power) per term:
    the relation times lambda's denominator, for the items that take
    lambda, so a coefficient 1 is that denominator and lambda its
    numerator, as ``integer_terms`` would make them."""
    one = 1
    if _ITEMS[item].takes_lambda:
        lam = Fraction(lam)
        one, lam = lam.denominator, lam.numerator
    if item == 1:
        return [(one, l, 0, 0)]
    if item == 2:
        return [(one, l, 0, 0), (one, l - 1, 0, 1)]
    if item == 3:
        return [(one, 1, 0, 0), (one, 0, 0, 1)]
    if item == 4:
        return [(one, 1, 0, 0), (one, 0, 1, 1)]
    if item == 5:
        return [(one, 1, 0, 0), (one, 0, 0, 1), (one, 0, 1, q - 1)]
    if item == 7:
        return [(one, p - 1, 0, q - 2), (lam, p - 2, 0, q - 1),
                (one, p - 1, 1, q - 1)]
    # items 6, 10 and 11 start with the l terms of item 6, items 8 to 11
    # end with the terms of b and c, and items 9 and 11 have the lambda term
    b_c = [] if item == 6 else [(one, p - 2, 1, q - 1), (one, p - 1, 2, q - 1)]
    if item == 8:
        return [(one, p - 1, 0, q - 2)] + b_c
    if item == 9:
        return [(one, p - 1, 0, q - 3), (one, p - 2, 0, q - 2), (lam, p - 3, 0, q - 1)] + b_c
    lam_term = [(lam, p - 3, 0, q - 1)] if item == 11 else []
    return [(one, p + q - l - i - 1, 0, i) for i in range(q - l, q)] + lam_term + b_c


def build_case(item: int, p: int, q: int, l: Optional[int],
               lam: Optional[Fraction]) -> tuple[int, tuple[Term, ...]]:
    """(closed form, integer split terms) of an admissible shape, whatever
    its h; raises :class:`SideConditionError` otherwise.  A lambda = 0 term
    stays in the terms; it puts no entry into the system."""
    expected = c_closed_form(item, p, q, l, lam)
    terms = tuple(_term_shapes(item, p, q, l, lam))
    if any(a + 1 + b < 2 for _, a, _k, b in terms):
        raise SideConditionError("a term would be a bare arrow (length < 2)")
    return expected, terms


def _rank(item: int, terms: tuple[Term, ...], p: int, q: int) -> int:
    """The exact rank of the one block pair (p) at 0 and (q) at 1, on the
    item's ``symbols`` arrows."""
    return rank_exact(assemble_system(_ITEMS[item].symbols, [terms], p, q))


_HS = (1, 2, 3)  # the numbers of arrows 1 -> 0 that the sweep tries
_LAMBDAS = (Fraction(2), Fraction(-1), Fraction(1, 2))
# (item, p, q, l, lambda) shapes one sweep tries: --p-max 29 tries 47,995
# and took 7.8 s on a 2-CPU host
_MAX_SHAPES = 5 * 10 ** 4
_MAX_UNKNOWNS = 10 ** 6  # of the one block-pair system of a single case
# entries of that system: item 3 at p = q = 1000 assembles 1,998,000
# and peaks at 382 MB, the most that any case of at most three terms
# within the unknowns bound reaches (items 4 and 5 at p = q = 707 peak
# at 206 MB)
_MAX_ENTRIES = 2 * 10 ** 6
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)  # as Fraction reads it


def _read_lambda(lam: str | Fraction) -> Fraction:
    """``Fraction(lam)`` if its numerator and denominator have at most
    ``sys.get_int_max_str_digits()`` digits, as a row prints them.  Fraction
    builds 10^|e| for a text's exponent e unchecked, so e is read first:
    n/d != 0 times 10^e has a numerator >= 10^e / d and a denominator
    >= 10^-e / |n|, so past |e| = ``bound`` the digits only grow."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300  # CPython's default
    exp = _EXPONENT.search(lam) if isinstance(lam, str) else None
    try:  # the text with exponent 0, so that Fraction checks its syntax
        value = Fraction(lam if exp is None else f"{lam[:exp.start(1)]}0{lam[exp.end(1):]}")
        scale = 0 if exp is None else int(exp[1])
    except (ValueError, ZeroDivisionError):
        raise SideConditionError(f"bad lambda {lam!r}") from None
    if value:
        bound = limit + value.numerator.bit_length() + value.denominator.bit_length()
        value *= Fraction(10) ** max(-bound, min(scale, bound))
    if max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise SideConditionError(f"bad lambda {lam!r}: more than {limit} digits")
    return value


def single_case(item: int, p: Optional[int] = None, q: Optional[int] = None,
                l: Optional[int] = None, lam: Optional[str | Fraction] = None,
                h: Optional[int] = None) -> tuple:
    """The row (item, p, q, l, lambda, h, closed form, exact rank) of one
    case, ``None`` meaning not given: p defaults to 1, h to 3, q to the
    item's fixed q, and lambda (any value ``_read_lambda`` reads) to 2 for
    the items that take it.  A case whose system has more than
    ``_MAX_UNKNOWNS`` unknowns (symbols*p*q: it is on the item's
    ``symbols`` arrows, whatever h) is refused before anything is built,
    and one that would assemble more than ``_MAX_ENTRIES`` entries before
    it is assembled: a term (c, pre, k, post) with c != 0 puts
    max(0, p - pre) * max(0, q - post) entries into the system, so items 6,
    10 and 11 with a large l grow with l*p*q within the unknowns bound.
    ``build_case`` refuses a broken side condition, and then an h below the
    item's ``symbols`` is refused."""
    rules = _rules(item)
    if rules.takes_lambda:
        lam = Fraction(2) if lam is None else _read_lambda(lam)
    elif lam is not None:
        raise SideConditionError(f"item {item} takes no lambda")
    if l is not None and not rules.takes_l:
        raise SideConditionError(f"item {item} takes no l")
    q = rules.fixed_q if q is None else q
    if q is None:
        raise SideConditionError("this item needs an explicit --q")
    p, h = 1 if p is None else p, 3 if h is None else h
    if min(p, q) >= 1 and (unknowns := rules.symbols * p * q) > _MAX_UNKNOWNS:
        raise SideConditionError(f"symbols*p*q = {unknowns} unknowns exceed the "
                                 f"single-case bound {_MAX_UNKNOWNS}")
    expected, terms = build_case(item, p, q, l, lam)
    entries = sum(max(0, p - pre) * max(0, q - post) for c, pre, _k, post in terms if c)
    if entries > _MAX_ENTRIES:
        raise SideConditionError(
            f"the case assembles {entries} entries, more than the single-case "
            f"bound {_MAX_ENTRIES}")
    if h < rules.symbols:
        raise SideConditionError(f"item {item} needs {rules.symbols} distinct arrows, h={h}")
    return item, p, q, l, lam, h, expected, _rank(item, terms, p, q)


def _shapes(p_max: int, items: Optional[Iterable[int]]) -> Iterator[tuple]:
    """(item, p, q, lambda, the h in ``_HS`` the item admits, [(l, closed
    form, integer split terms) per admissible l]), each shape tried once;
    more than ``_MAX_SHAPES`` shapes raise ``ValueError`` before any is."""
    wanted = [(item, _rules(item)) for item in sorted(set(_ITEMS if items is None else items))]
    # sum over p <= p_max of p^k, for k the number of q and l ranges up to p
    sums = (p_max, p_max * (p_max + 1) // 2, p_max * (p_max + 1) * (2 * p_max + 1) // 6)
    count = sum((len(_LAMBDAS) if rules.takes_lambda else 1)
                * sums[(rules.fixed_q is None) + rules.takes_l] for _, rules in wanted)
    if count > _MAX_SHAPES:
        raise ValueError(f"the sweep to p = {p_max} tries {count} relation shapes, "
                         f"more than the bound {_MAX_SHAPES}")
    for item, rules in wanted:
        hs = [h for h in _HS if h >= rules.symbols]
        lams: Sequence[Optional[Fraction]] = _LAMBDAS if rules.takes_lambda else (None,)
        for p in range(1, p_max + 1):
            qs = range(1, p + 1) if rules.fixed_q is None else (rules.fixed_q,)
            ls = range(1, p + 1) if rules.takes_l else (None,)
            for q, lam in itertools.product(qs, lams):
                shapes = []
                for l in ls:
                    try:
                        shapes.append((l, *build_case(item, p, q, l, lam)))
                    except SideConditionError:
                        pass
                yield item, p, q, lam, hs, shapes


def formula_sweep(p_max: int = 6, items: Optional[Iterable[int]] = None) -> list[tuple]:
    """The row (item, p, q, l, lambda, h, closed form, exact rank) of every
    admissible case with q <= p <= p_max, h in ``_HS`` and lambda in
    ``_LAMBDAS`` where the item takes it, l inner to h; each shape ranked once."""
    rows = []
    for item, p, q, lam, hs, shapes in _shapes(p_max, items):
        ranked = [(l, expected, _rank(item, terms, p, q)) for l, expected, terms in shapes]
        rows += [(item, p, q, l, lam, h, expected, rank)
                 for h in hs for l, expected, rank in ranked]
    return rows
