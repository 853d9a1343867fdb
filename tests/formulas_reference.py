"""The ``build_case`` and ``formula_cases`` that the shared-parts versions
replaced, kept verbatim as the reference of their differential tests:
they check the side conditions of every case anew, and ``build_case``
builds a fresh quiver, fresh paths and fresh partitions for every case.

``_term_shapes`` is the rational form of the terms that the package now
states as integers, and ``evaluate_case_per_h`` the ``evaluate_case``
that assembled and ranked every case anew, once per h; both are kept
verbatim, the latter under a name that does not clash with the reference
``build_case`` (it calls the package's).

``sweep_per_case`` is the per-case path that ``formulas.formula_sweep``
replaced: list every case with ``formula_cases_per_case``, then evaluate
each through the memo caches ``_shaped_cached`` and ``_rank_cached``,
keyed by its shape.  They are the replaced ``formula_cases``,
``_shaped``, ``_rank`` and ``evaluate_case``, renamed, with two changes:
the sweep bound is left out, and the terms are the ``integer_terms`` of
this module's rational ``_term_shapes``, which the package's integer
terms equal.
"""
import functools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from path_reference import path_of

from quiverstrata import formulas
from quiverstrata.formulas import (_LAMBDAS, FormulaCase, SideConditionError,
                                   c_closed_form)
from quiverstrata.linsys import assemble_system, integer_terms, rank_exact
from quiverstrata.partitions import JordanAssignment, Partition
from quiverstrata.quiver import Arrow, BoundQuiverPresentation, Quiver, Relation

# the per-item rules as the replaced code stated them
_SYMBOLS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 1, 7: 2, 8: 3, 9: 3, 10: 3, 11: 3}
_HAS_LAMBDA = {7, 9, 11}


def _term_shapes(item: int, p: int, q: int, l: Optional[int],
                 lam: Optional[Fraction]) -> list[tuple[Fraction, int, int, int]]:
    """(rational coefficient, eps0 power, arrow index, eps1 power) per term."""
    one = Fraction(1)
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
    if item == 6:
        return [(one, p + q - l - i - 1, 0, i) for i in range(q - l, q)]
    if item == 7:
        return [(one, p - 1, 0, q - 2), (Fraction(lam), p - 2, 0, q - 1),
                (one, p - 1, 1, q - 1)]
    if item == 8:
        return [(one, p - 1, 0, q - 2), (one, p - 2, 1, q - 1),
                (one, p - 1, 2, q - 1)]
    if item == 9:
        return [(one, p - 1, 0, q - 3), (one, p - 2, 0, q - 2),
                (Fraction(lam), p - 3, 0, q - 1), (one, p - 2, 1, q - 1),
                (one, p - 1, 2, q - 1)]
    if item == 10:
        base = [(one, p + q - l - i - 1, 0, i) for i in range(q - l, q)]
        return base + [(one, p - 2, 1, q - 1), (one, p - 1, 2, q - 1)]
    base = [(one, p + q - l - i - 1, 0, i) for i in range(q - l, q)]
    return base + [(Fraction(lam), p - 3, 0, q - 1), (one, p - 2, 1, q - 1),
                   (one, p - 1, 2, q - 1)]


def evaluate_case_per_h(case: FormulaCase) -> tuple[int, int]:
    """(expected closed form, computed exact rank) for one case.

    Both Jordan types are single parts, so the relation system is the one
    block pair (p) at 0 and (q) at 1, ranked as it is assembled."""
    expected, terms = formulas.build_case(case.item, case.p, case.q, case.l, case.lam)
    return expected, rank_exact(assemble_system(case.h, [terms], case.p, case.q))


def build_case(case):
    """Presentation, Jordan assignment, and expected codimension of a case."""
    expected = c_closed_form(case.item, case.p, case.q, case.l, case.lam)
    shapes = _term_shapes(case.item, case.p, case.q, case.l, case.lam)
    if any(a + 1 + b < 2 for _, a, _sym, b in shapes):
        raise SideConditionError("a term would be a bare arrow (length < 2)")
    n_sym = _SYMBOLS[case.item]
    if case.h < n_sym:
        raise SideConditionError(
            f"item {case.item} needs {n_sym} distinct arrows, h={case.h}"
        )
    m0 = max(case.p, max(a for _, a, _s, _b in shapes) + 1)
    m1 = max(case.q, max(b for _, _a, _s, b in shapes) + 1)
    vertices = ("0", "1")
    arrows = []
    if m0 >= 2:
        arrows.append(Arrow("e0", "0", "0"))
    if m1 >= 2:
        arrows.append(Arrow("e1", "1", "1"))
    arrow_names = [f"a{i + 1}" for i in range(case.h)]
    arrows.extend(Arrow(n, "1", "0") for n in arrow_names)
    quiver = Quiver(vertices, tuple(arrows))
    terms = []
    for coeff, a, sym, b in shapes:
        word = ["e0"] * a + [arrow_names[sym]] + ["e1"] * b
        terms.append((coeff, path_of(word)))
    rel = Relation.make(quiver, terms)
    pres = BoundQuiverPresentation(quiver, (m0, m1), (rel,))
    ja = JordanAssignment.for_presentation(
        pres, [Partition((case.p,), m0), Partition((case.q,), m1)]
    )
    return pres, ja, expected


def formula_cases(p_max: int = 6, hs: Sequence[int] = (1, 2, 3),
                  lambdas: Sequence[Fraction] = _LAMBDAS,
                  items: Optional[Iterable[int]] = None) -> list[FormulaCase]:
    """Every admissible case with q <= p <= p_max, deterministic order."""
    wanted = set(items) if items is not None else set(range(1, 12))
    cases: list[FormulaCase] = []
    for item in sorted(wanted):
        lams: Sequence[Optional[Fraction]] = (
            lambdas if item in _HAS_LAMBDA else (None,)
        )
        for p in range(1, p_max + 1):
            qs = (1,) if item == 1 else (2,) if item == 2 else range(1, p + 1)
            for q in qs:
                for lam in lams:
                    for h in hs:
                        if h < _SYMBOLS[item]:
                            continue
                        # c_closed_form below decides which l are admissible
                        ls = range(1, p + 1) if item in (1, 2, 6, 10, 11) else (None,)
                        for l in ls:
                            case = FormulaCase(item, p, q, l, lam, h)
                            try:
                                c_closed_form(item, p, q, l, lam)
                                shapes = _term_shapes(item, p, q, l, lam)
                            except SideConditionError:
                                continue
                            if any(a + 1 + b < 2 for _, a, _s, b in shapes):
                                continue
                            cases.append(case)
    return cases


@functools.lru_cache(maxsize=4096)
def _shaped_cached(item: int, p: int, q: int, l: Optional[int], lam: Optional[Fraction]):
    """(closed form, integer split terms) of an admissible case, whatever
    its h; raises :class:`SideConditionError` otherwise."""
    expected = c_closed_form(item, p, q, l, lam)
    terms = tuple(integer_terms(_term_shapes(item, p, q, l, lam)))
    if any(a + 1 + b < 2 for _, a, _k, b in terms):
        raise SideConditionError("a term would be a bare arrow (length < 2)")
    return expected, terms


@functools.lru_cache(maxsize=4096)
def _rank_cached(item: int, p: int, q: int, l: Optional[int], lam: Optional[Fraction]) -> int:
    """The exact rank of an admissible case's system, whatever its h: an
    arrow whose index is at least the item's ``symbols`` is in no term, so
    h changes only the ambient dimension, never a row."""
    _, terms = _shaped_cached(item, p, q, l, lam)
    return rank_exact(assemble_system(formulas._ITEMS[item].symbols, [terms], p, q))


def evaluate_case_cached(case: FormulaCase) -> tuple[int, int]:
    """(expected closed form, computed exact rank) for one case, ranked
    once for every h of the same case shape."""
    expected, _ = formulas.build_case(case.item, case.p, case.q, case.l, case.lam)
    return expected, _rank_cached(case.item, case.p, case.q, case.l, case.lam)


def formula_cases_per_case(p_max: int = 6,
                           items: Optional[Iterable[int]] = None) -> list[FormulaCase]:
    """Every admissible case with q <= p <= p_max, h in ``formulas._HS``
    and, for the items that take it, lambda in ``formulas._LAMBDAS``, in
    a deterministic order."""
    wanted = set(items) if items is not None else set(formulas._ITEMS)
    cases: list[FormulaCase] = []
    for item in sorted(wanted):
        rules = formulas._ITEMS[item]
        lams: Sequence[Optional[Fraction]] = (formulas._LAMBDAS if rules.takes_lambda
                                              else (None,))
        for p in range(1, p_max + 1):
            qs = range(1, p + 1) if rules.fixed_q is None else (rules.fixed_q,)
            ls = range(1, p + 1) if rules.takes_l else (None,)
            for q in qs:
                for lam in lams:
                    # _shaped decides which l are admissible, whatever h
                    ok = []
                    for l in ls:
                        try:
                            _shaped_cached(item, p, q, l, lam)
                        except SideConditionError:
                            continue
                        ok.append(l)
                    cases += [FormulaCase(item, p, q, l, lam, h) for h in formulas._HS
                              if h >= rules.symbols for l in ok]
    return cases


def sweep_per_case(p_max: int = 6, items: Optional[Iterable[int]] = None) -> list[tuple]:
    """The rows (item, p, q, l, lambda, h, closed form, exact rank) that
    ``verify-formulas`` printed, case by case."""
    return [(c.item, c.p, c.q, c.l, c.lam, c.h, *evaluate_case_cached(c))
            for c in formula_cases_per_case(p_max, items)]
