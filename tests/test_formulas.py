import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formulas_reference
from formulas_reference import FormulaCase
from path_reference import path_of
from quiverstrata import formulas
from quiverstrata.formulas import (SideConditionError, build_case, c_closed_form,
                                   formula_sweep, single_case)
from quiverstrata.linsys import PartPairTable, assemble_system, integer_terms
from quiverstrata.partitions import JordanAssignment, Partition
from quiverstrata.quiver import BoundQuiverPresentation, Quiver, Arrow, Relation


def test_closed_form_examples():
    assert c_closed_form(1, p=4, l=2) == 2
    assert c_closed_form(5, p=3, q=2) == 5
    assert c_closed_form(6, p=3, q=3, l=2) == 2
    assert c_closed_form(3, p=3, q=2) == 4
    assert c_closed_form(7, p=2, q=2, lam=Fraction(0)) == 2
    assert c_closed_form(10, p=4, q=3, l=3) == 4
    assert c_closed_form(11, p=5, q=4, l=4, lam=Fraction(2)) == 5


def test_closed_form_side_conditions():
    with pytest.raises(SideConditionError):
        c_closed_form(9, p=3, q=3, lam=Fraction(1))
    with pytest.raises(SideConditionError):
        c_closed_form(11, p=4, q=4, l=4, lam=Fraction(0))
    with pytest.raises(SideConditionError):
        c_closed_form(1, p=3, l=4)
    with pytest.raises(SideConditionError):
        c_closed_form(2, p=3, l=3)
    with pytest.raises(SideConditionError):
        c_closed_form(5, p=3, q=1)
    with pytest.raises(SideConditionError):
        c_closed_form(10, p=6, q=2, l=3)
    with pytest.raises(SideConditionError):
        c_closed_form(12, p=2)


def test_fixed_q_items_reject_other_q():
    for item, q in ((1, 1), (2, 2)):
        assert c_closed_form(item, p=3, q=q, l=1) == c_closed_form(item, p=3, l=1)
        with pytest.raises(SideConditionError, match=f"^item {item} has q = {q}$"):
            c_closed_form(item, p=3, q=3, l=1)


def _args(case):
    """The arguments of ``single_case`` that give the row of ``case``."""
    return case.item, case.p, case.q, case.l, case.lam, case.h


def test_single_case_defaults_and_rules():
    assert single_case(1, l=1) == (1, 1, 1, 1, None, 3, 0, 0)
    assert single_case(2, p=3, l=1, h=1) == (2, 3, 2, 1, None, 1, 4, 4)
    assert single_case(7, p=2, q=2) == (7, 2, 2, None, Fraction(2), 3, 2, 2)
    assert single_case(11, p=4, q=4, l=4, lam="1/2")[4] == Fraction(1, 2)
    with pytest.raises(SideConditionError, match="^p >= 1 required$"):
        single_case(3, p=0, q=1, h=0)
    with pytest.raises(SideConditionError, match="^item 3 takes no lambda$"):
        single_case(3, p=2, q=1, lam="1/0")
    with pytest.raises(SideConditionError, match="^bad lambda '1/0'$"):
        single_case(9, p=3, lam="1/0")
    with pytest.raises(SideConditionError, match="^this item needs an explicit --q$"):
        single_case(4, p=3)


def test_single_case_rejects_l_where_the_item_takes_none():
    for item in range(1, 12):
        q = {1: 1, 2: 2}.get(item, 5)
        if item in (1, 2, 6, 10, 11):
            assert single_case(item, p=5, q=q, l=4)[3] == 4
        else:
            with pytest.raises(SideConditionError, match=f"^item {item} takes no l$"):
                single_case(item, p=5, q=q, l=4)


def test_single_case_rejects_an_unknown_item():
    """Both entry points refuse an unknown item as ``c_closed_form`` does,
    before the item's rules are read."""
    for call in (lambda: single_case(12), lambda: formula_sweep(items=[12]),
                 lambda: c_closed_form(12)):
        with pytest.raises(SideConditionError, match="^unknown item 12$"):
            call()


def _stub_rank(monkeypatch) -> list:
    """The arguments of every ``assemble_system`` call that the formulas
    module makes from now on, each assembling and ranking nothing: a
    bound that admits 10^6 unknowns is tested without ranking them."""
    calls = []
    monkeypatch.setattr(formulas, "assemble_system", lambda *args: calls.append(args))
    monkeypatch.setattr(formulas, "rank_exact", lambda system: -1)
    return calls


def test_single_case_bounds_its_unknowns(monkeypatch):
    # symbols*p*q unknowns in the one block-pair system, whatever h, since
    # it is assembled on the item's symbols arrows; the bound is 10^6
    calls = _stub_rank(monkeypatch)
    assert single_case(3, p=1000, q=1000, h=1) == (3, 1000, 1000, None, None, 1, 999000, -1)
    assert single_case(3, p=1000, q=1000)[5] == 3
    assert single_case(8, p=577, q=577)[1] == 577   # 3 * 577^2 < 10^6
    assert [args[0] for args in calls] == [1, 1, 3]
    monkeypatch.undo()
    assert single_case(3, p=2, q=2, h=2 * 10 ** 6)[5:] == (2 * 10 ** 6, 2, 2)
    for item, kwargs in ((3, {"p": 1001, "q": 1000, "h": 1}), (3, {"p": 10 ** 8, "q": 1}),
                         (8, {"p": 578, "q": 578, "h": 3})):
        with pytest.raises(SideConditionError, match="exceed the single-case bound"):
            single_case(item, **kwargs)
    with pytest.raises(SideConditionError, match="^symbols\\*p\\*q = 100000000 unknowns"):
        single_case(1, p=10 ** 8, l=1)
    # a side condition, not the bound, rejects nonpositive sizes
    with pytest.raises(SideConditionError, match="^p >= 1 required$"):
        single_case(3, p=-2000, q=-2000, h=1)


@pytest.mark.parametrize("item, kwargs", [
    (6, {"p": 9, "q": 7, "l": 5, "h": 1}), (10, {"p": 8, "q": 8, "l": 6, "h": 3}),
    (11, {"p": 9, "q": 6, "l": 5, "lam": "-1/2", "h": 3}), (3, {"p": 6, "q": 4, "h": 1}),
    (7, {"p": 5, "q": 4, "lam": "0", "h": 2})])
def test_single_case_bounds_its_entries(item, kwargs, monkeypatch):
    """The bound counts the entries that the assembly puts in, before it
    runs: a case with exactly the bound passes and one above it does not."""
    row = single_case(item, **kwargs)
    item, p, q, l, lam, h = row[:6]
    _, terms = build_case(item, p, q, l, lam)
    entries = sum(map(len, assemble_system(h, [terms], p, q).rows))
    assert entries > 0
    monkeypatch.setattr(formulas, "_MAX_ENTRIES", entries)
    assert single_case(item, **kwargs) == row
    monkeypatch.setattr(formulas, "_MAX_ENTRIES", entries - 1)
    with pytest.raises(SideConditionError,
                       match=f"^the case assembles {entries} entries, more than"):
        single_case(item, **kwargs)


def test_single_case_entry_bound_refuses_long_item_6(monkeypatch):
    # 167,167,000 entries within 10^6 unknowns; the largest case of at most
    # three terms, item 3 at p = q = 1000, assembles 1,998,000
    calls = _stub_rank(monkeypatch)
    with pytest.raises(SideConditionError, match="^the case assembles 167167000 entries"):
        single_case(6, p=1000, q=1000, l=1000, h=1)
    assert calls == []
    assert single_case(3, p=1000, q=1000, h=1)[1] == 1000
    assert len(calls) == 1
    # a side condition, not the bound, rejects an inadmissible l
    with pytest.raises(SideConditionError, match="^item 6 needs 1 <= l <= min\\(p, q\\)$"):
        single_case(6, p=1000, q=1000, l=2000, h=1)


def test_build_case_requires_enough_arrows():
    """A shape is built whatever its h; ``single_case`` refuses a case
    with fewer arrows 1 -> 0 than the item reads, but a broken side
    condition first."""
    assert build_case(4, 3, 2, None, None) == (5, ((1, 1, 0, 0), (1, 0, 1, 1)))
    with pytest.raises(SideConditionError, match="^item 4 needs 2 distinct arrows, h=1$"):
        single_case(4, 3, 2, None, None, 1)
    with pytest.raises(SideConditionError, match="^item 9 needs 3 distinct arrows, h=2$"):
        single_case(9, 3, 3, None, Fraction(2), 2)
    with pytest.raises(SideConditionError, match="^q <= p required$"):
        single_case(4, 2, 3, None, None, 1)
    with pytest.raises(SideConditionError, match="^item 9 needs lambda != 1$"):
        single_case(9, 3, 3, None, Fraction(1), 0)


def test_single_case_builds_its_shape_once(monkeypatch):
    """A single case goes through ``build_case`` once, as a traced run
    counts it, where the replaced record and evaluator built it twice."""
    build, built = formulas.build_case, []
    monkeypatch.setattr(formulas, "build_case", lambda *key: built.append(key) or build(*key))
    assert single_case(7, 2, 2, None, "1/2", 2) == (7, 2, 2, None, Fraction(1, 2), 2, 2, 2)
    assert built == [(7, 2, 2, None, Fraction(1, 2))]
    built.clear()
    with pytest.raises(SideConditionError, match="^item 4 needs 2 distinct arrows, h=1$"):
        single_case(4, 3, 2, None, None, 1)
    assert len(built) == 1


_GRID_LAMBDAS = (None, "2", "0", "1", "-1", "1/2", "-3/2", "1/0", "x", "1e4300", "1e-4300",
                 "2e3", Fraction(5, 3))


def _grid():
    """Argument tuples of ``single_case``: valid cases, every refusal (the
    lambda, l and q rules, both bounds, the side conditions, h too small),
    and lambda texts that read, that do not, and that have too many digits."""
    for item in range(1, 12):
        lams = _GRID_LAMBDAS if item in (7, 9, 11) else (None, "1/2")
        for p, q, l, lam, h in itertools.product((None, 0, 2, 4), (None, 0, 2, 4),
                                                 (None, 0, 1, 4), lams, (None, 0, 2)):
            if lam in (None, "2", "1/2") or (p, q, h) == (4, 4, None) and l in (None, 4):
                yield item, p, q, l, lam, h
    yield from [(3, 1001, 1000, None, None, 1), (3, 10 ** 8, 1, None, None, None),
                (1, 10 ** 8, None, 1, None, None), (8, 578, 578, None, None, 3),
                (6, 1000, 1000, 1000, None, 1), (10, 1000, 333, 300, None, 3),
                (11, 1000, 900, 900, "1/0", 3), (3, -2000, -2000, None, None, 1),
                (6, 1000, 1000, 2000, None, 1), (3, 2, 2, None, None, 2 * 10 ** 6)]


def _reference_row(*args):
    case = formulas_reference.single_case(*args)
    return (*_args(case), *formulas_reference.evaluate_case(case))


def test_single_case_matches_the_replaced_record_and_evaluator():
    """On every tuple of the grid ``single_case`` gives the row that the
    replaced ``single_case`` and ``evaluate_case`` gave, or raises the same
    exception with the same message."""
    def outcome(call, args):
        try:
            return call(*args)
        except ValueError as exc:  # SideConditionError among them
            return type(exc), str(exc)

    grid = list(_grid())
    outcomes = [outcome(single_case, args) for args in grid]
    assert outcomes == [outcome(_reference_row, args) for args in grid]
    assert sum(not isinstance(o[0], type) for o in outcomes) == 100  # rows, the rest refused
    messages = [o[1] for o in outcomes if isinstance(o[0], type)]
    for start in ("item 3 takes no lambda", "bad lambda '1/0'", "bad lambda '1e4300': more than",
                  "item 7 takes no l", "this item needs an explicit --q", "symbols*p*q = ",
                  "the case assembles ", "q <= p required", "item 11 needs lambda != 0",
                  "item 8 needs 3 distinct arrows, h=2"):
        assert any(m.startswith(start) for m in messages), start


def _linear_form(terms):
    """{(pre, arrow index, post): coefficient} of split terms, equal terms
    combined and zero coefficients dropped, as ``Relation.make`` does."""
    form = {}
    for coeff, pre, k, post in terms:
        form[pre, k, post] = form.get((pre, k, post), 0) + coeff
    return {key: coeff for key, coeff in form.items() if coeff}


def _assert_matches_reference(case, ref):
    """build_case gives the number of non-loop arrows and the split terms of
    the presentation that the reference builds, arrow ``a{k+1}`` as index
    k, times the lcm of the relation's denominators, and evaluate_case the
    codimension of its part-pair table."""
    ref_pres, ref_ja, ref_expected = ref
    h = case.h
    expected, terms = build_case(case.item, case.p, case.q, case.l, case.lam)
    assert [f"a{k + 1}" for k in range(h)] == [
        a.name for a in ref_pres.quiver.non_loop_arrows], case
    assert all(type(coeff) is int for coeff, *_ in terms), case
    [ref_rel] = ref_pres.relations
    scale = math.lcm(*(coeff.denominator for coeff, *_ in ref_rel.terms))
    ref_terms = []
    for coeff, pre, name, post in ref_rel.terms:
        ref_terms.append((coeff * scale, pre, int(name[1:]) - 1, post))
    assert _linear_form(terms) == _linear_form(ref_terms), case
    assert expected == ref_expected, case
    assert formulas_reference.evaluate_case(case) == (
        ref_expected, PartPairTable(ref_pres).codim(ref_ja)), case


def test_build_case_matches_replaced_on_sweep():
    """On every case of the p <= 8 sweep the reference builds a
    presentation, and the direct build_case and evaluate_case agree with it."""
    cases = formulas_reference.formula_cases(p_max=8)
    assert len(cases) == 1205
    for case in cases:
        _assert_matches_reference(case, formulas_reference.build_case(case))


def _outcome(build, case):
    try:
        return build(case)
    except (SideConditionError, TypeError) as exc:  # no lambda: TypeError
        return type(exc), str(exc)


def test_build_case_rejects_what_replaced_rejected():
    """On a grid of cases on and off the sweep, both versions accept the
    same cases and agree on them, or fail alike with the same message: the
    replaced build_case checked the side conditions before h, and
    evaluate_case on the package's build_case does too."""
    lams = (None, Fraction(0), Fraction(1), Fraction(2))
    for item, p, q, h in itertools.product(range(1, 12), range(1, 4), range(1, 4),
                                           range(1, 4)):
        for l, lam in itertools.product((None, *range(1, p + 2)), lams):
            case = FormulaCase(item, p, q, l, lam, h)
            want = _outcome(formulas_reference.build_case, case)
            if isinstance(want[0], type):
                assert _outcome(formulas_reference.evaluate_case, case) == want, case
            else:
                _assert_matches_reference(case, want)


def test_sweep_ranks_each_shape_once_as_per_h_did(monkeypatch):
    """On every case of the p <= 8 sweep, and its lambda cases at lambda =
    0 (item 11 refuses it), single_case equals the replaced per-h
    assembly and rank, and the integer terms are ``integer_terms`` of the
    replaced rational ones.  formula_sweep gives every case its row with
    that rank, and assembles each (item, p, q, l, lambda) once, whatever
    its h."""
    cases = formulas_reference.formula_cases(p_max=8)
    zero = list(dict.fromkeys(replace(c, lam=Fraction(0)) for c in cases
                              if c.lam is not None and c.item != 11))
    assert len(cases) == 1205 and zero
    for case in cases + zero:
        _, terms = build_case(case.item, case.p, case.q, case.l, case.lam)
        rational = formulas_reference._term_shapes(case.item, case.p, case.q,
                                                   case.l, case.lam)
        assert list(terms) == integer_terms(rational), case
        assert single_case(*_args(case))[6:] == formulas_reference.evaluate_case_per_h(case), case
    want = [single_case(*_args(c)) for c in cases]
    calls = _count_assemblies(monkeypatch)
    assert formula_sweep(8) == want
    shapes = {(c.item, c.p, c.q, c.l, c.lam) for c in cases}
    assert len(calls) == len(shapes) < len(cases)


def _count_assemblies(monkeypatch) -> list:
    """The argument tuples of every ``assemble_system`` call that the
    formulas module makes from now on."""
    calls, assemble = [], formulas.assemble_system
    monkeypatch.setattr(formulas, "assemble_system",
                        lambda *args: calls.append(args) or assemble(*args))
    return calls


@pytest.mark.parametrize("items", [None, [1], [2, 7], [11], [3, 6, 9], [4, 5, 8, 10]])
@pytest.mark.parametrize("lambdas", [formulas._LAMBDAS, (Fraction(0), Fraction(1)),
                                     (Fraction(1), Fraction(-3, 2), Fraction(0))])
def test_formula_sweep_matches_per_case_reference(items, lambdas, monkeypatch):
    """The shape walk gives the rows of the replaced per-case sweep, in its
    order, under each lambda setting (lambda = 1 is refused by item 9 and
    lambda = 0 by item 11), and assembles each shape exactly once."""
    monkeypatch.setattr(formulas, "_LAMBDAS", lambdas)
    calls = _count_assemblies(monkeypatch)
    for p_max in range(1, 9):
        calls.clear()
        want = formulas_reference.sweep_per_case(p_max, items)
        assert formula_sweep(p_max, items) == want, p_max
        assert len(calls) == len({row[:5] for row in want}), p_max


@st.composite
def single_case_args(draw):
    """(item, p, q, l, lambda, h) for ``single_case``, biased towards q <= p
    and l <= min(p, q); l and lambda are drawn where the item takes them,
    q also where the item fixes it."""
    item, p = draw(st.integers(1, 11)), draw(st.integers(-1, 8))
    small = st.integers(1, max(p, 1))
    if item in (1, 2):
        q = draw(st.one_of(st.none(), st.integers(1, 3)))
    else:
        q = draw(st.one_of(small, st.integers(-1, 8)))
    l = lam = None
    if item in (1, 2, 6, 10, 11):
        l = draw(st.one_of(st.integers(1, max(min(p, q or p), 1)), st.integers(-2, 10)))
    if item in (7, 9, 11):
        lam = draw(st.sampled_from(["0", "1", "-1", "1/2", "2"]))
    return item, p, q, l, lam, draw(st.integers(0, 4))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(single_case_args())
def test_single_cases_match_reference(args):
    """Any case the replaced ``single_case`` admitted is accepted by the
    direct path and by the reference alike, with the same closed form and
    the same rank, or refused by both with the same message."""
    try:
        case = formulas_reference.single_case(*args)
    except SideConditionError:
        return

    def reference(case):
        pres, ja, expected = formulas_reference.build_case(case)
        return expected, PartPairTable(pres).codim(ja)

    assert _outcome(lambda case: single_case(*args)[6:], case) == _outcome(reference, case)


@pytest.mark.parametrize("items", [None, [1], [2, 7], [11], [3, 6, 9]])
@pytest.mark.parametrize("lambdas", [formulas._LAMBDAS, (Fraction(0), Fraction(1))])
def test_sweep_shapes_are_counted_before_they_are_tried(items, lambdas, monkeypatch):
    """The count is the number of shapes the sweep tries, each built once
    through ``build_case``: a bound equal to it walks the same shapes, and
    one less refuses before any is tried."""
    monkeypatch.setattr(formulas, "_LAMBDAS", lambdas)
    build, tried = formulas.build_case, []
    monkeypatch.setattr(formulas, "build_case", lambda *key: tried.append(key) or build(*key))
    for p_max in range(1, 9):
        monkeypatch.setattr(formulas, "_MAX_SHAPES", 10 ** 9)
        want, tried[:] = list(formulas._shapes(p_max, items)), []
        assert list(formulas._shapes(p_max, items)) == want
        count = len(tried)
        assert len(set(tried)) == count
        monkeypatch.setattr(formulas, "_MAX_SHAPES", count)
        assert list(formulas._shapes(p_max, items)) == want
        monkeypatch.setattr(formulas, "_MAX_SHAPES", count - 1)
        tried.clear()
        with pytest.raises(ValueError, match=f"^the sweep to p = {p_max} tries {count} "
                                             f"relation shapes, more than the bound {count - 1}$"):
            formula_sweep(p_max, items)
        assert tried == []


def test_case_sweep_is_deterministic_and_nonempty():
    rows = formula_sweep(p_max=4)
    assert rows == formula_sweep(p_max=4)
    assert len(rows) > 100
    items = {row[0] for row in rows}
    assert items == set(range(1, 12))


@pytest.mark.parametrize("item", range(1, 12))
def test_each_item_matches_engine_on_a_sample(item):
    sample = formula_sweep(p_max=4, items=[item])[:12]
    assert sample
    for row in sample:
        assert single_case(*row[:6]) == row and row[6] == row[7], row


def test_unified_remark_formula_reported_not_relied_on(capsys):
    """Empirical status of the unproven unified rule c = q(p - l).

    The rule holds in much of the range but fails for some parameters;
    the engine result is the authority.  The known counterexample below is
    frozen so any engine change that moves it gets noticed.
    """
    mismatches = []
    for p in range(2, 5):
        for q in range(1, p + 1):
            for l in range(1, p):
                arrows = [Arrow("e0", "0", "0")]
                if q >= 2:
                    arrows.append(Arrow("e1", "1", "1"))
                arrows.append(Arrow("a1", "1", "0"))
                quiver = Quiver(("0", "1"), tuple(arrows))
                terms = []
                for i in range(0, min(l, q - 1) + 1):
                    word = ["e0"] * (l - i) + ["a1"] + ["e1"] * i
                    if len(word) < 2:
                        continue
                    terms.append((1, path_of(word)))
                rel = Relation.make(quiver, terms)
                pres = BoundQuiverPresentation(quiver, (max(p, l + 1), max(q, 2) if q >= 2 else 1), (rel,))
                ja = JordanAssignment.for_presentation(
                    pres, [Partition((p,), pres.orders[0]),
                           Partition((q,), pres.orders[1])]
                )
                got = PartPairTable(pres).codim(ja)
                if got != q * (p - l):
                    mismatches.append((p, q, l, got, q * (p - l)))
    print("unified-rule mismatches:", mismatches)
    # frozen finding: the rule fails at (p, q, l) = (4, 4, 2), rank 9 vs 8
    assert (4, 4, 2, 9, 8) in mismatches
