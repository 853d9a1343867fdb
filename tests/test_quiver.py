from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import presentations

from quiverstrata.quiver import (Arrow, PresentationError, Quiver, Relation,
                                 SubstitutionError, apply_arrow_substitution,
                                 check_cycle_conditions, detect_shortcuts,
                                 invert_substitution, parse_presentation,
                                 serialize_presentation)

A1221_TEXT = """
# two vertices, two loops, one arrow
vertex 0
vertex 1
loop e0 0 order 2
loop e1 1 order 2
arrow a1 1 -> 0
relation e0*a1 + a1*e1
"""


def test_parse_a1221():
    pres = parse_presentation(A1221_TEXT)
    assert pres.quiver.vertices == ("0", "1")
    assert pres.orders == (2, 2)
    assert len(pres.relations) == 1
    rel = pres.relations[0]
    assert rel.source == "1" and rel.target == "0"
    assert {p.arrows for _, p in rel.terms} == {("e0", "a1"), ("a1", "e1")}
    assert all(c == 1 for c, _ in rel.terms)


def test_parse_one_vertex_truncated_polynomial():
    pres = parse_presentation("vertex v\nloop e v order 3\n")
    assert pres.orders == (3,)
    assert pres.relations == ()


def test_parse_two_loops_at_vertex_rejected():
    text = "vertex 0\nloop e 0 order 2\nloop f 0 order 2\n"
    with pytest.raises(PresentationError) as exc:
        parse_presentation(text)
    assert exc.value.line == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PresentationError) as exc:
        parse_presentation("vertex 0\narrow a 0 -> 1\n")
    assert exc.value.line == 2
    with pytest.raises(PresentationError) as exc:
        parse_presentation("vertex 0\nvertex 1\narrow a 1 -> 0\nrelation a*a\n")
    assert exc.value.line == 4
    with pytest.raises(PresentationError) as exc:
        parse_presentation("vertex 0\nloop e 0 order 1\n")
    assert exc.value.line == 2
    # the forbidden f^2 is on line 8, though "a*f" of line 7 is in its text
    with pytest.raises(PresentationError) as exc:
        parse_presentation("vertex 0\nvertex 1\nloop e 0 order 2\n"
                           "loop f 1 order 2\narrow a 1 -> 0\narrow xa 1 -> 0\n"
                           "relation e*a + a*f\nrelation xa*f^2 + e*xa\n")
    assert exc.value.line == 8
    for coeff in ("1/0", "1/00", "-3/0"):
        with pytest.raises(PresentationError) as exc:
            parse_presentation(f"vertex 0\nvertex 1\nloop e 0 order 2\n"
                               f"arrow a 1 -> 0\nrelation {coeff}*e*a\n")
        assert exc.value.line == 5


def test_parse_rejects_forbidden_subword():
    text = "vertex 0\nvertex 1\nloop e0 0 order 2\narrow a 1 -> 0\nrelation e0^2*a\n"
    with pytest.raises(PresentationError):
        parse_presentation(text)


def test_parse_rejects_degree_zero_relation():
    text = "vertex 0\nloop e 0 order 4\nrelation e^2 + e^3\n"
    with pytest.raises(PresentationError):
        parse_presentation(text)


def test_serialize_round_trip():
    text = """
vertex 0
vertex 1
loop e0 0 order 3
loop e1 1 order 2
arrow a1 1 -> 0
arrow a2 1 -> 0
relation e0^2*a1 + e0*a1*e1 - 1/2*a2*e1
"""
    pres = parse_presentation(text)
    again = parse_presentation(serialize_presentation(pres))
    assert again.quiver == pres.quiver
    assert again.orders == pres.orders
    assert again.relations == pres.relations


def test_path_degree():
    q = Quiver(("0", "1", "2"),
               (Arrow("e0", "0", "0"), Arrow("e1", "1", "1"),
                Arrow("a1", "1", "0"), Arrow("b1", "2", "1")))
    assert q.path(["e0", "e0", "a1", "e1"]).degree == 1
    assert q.path(["e0", "e0", "e0"]).degree == 0
    assert q.path(["a1", "e1", "b1"]).degree == 2


def test_relation_degree():
    q = Quiver(("0", "1"),
               (Arrow("e0", "0", "0"), Arrow("a1", "1", "0")))
    mixed = Relation.make([(1, q.path(["e0", "a1"])), (1, q.path(["e0", "e0", "a1"]))])
    assert mixed.degree == 1
    loops = Relation.make([(1, q.path(["e0", "e0", "e0"]))])
    assert loops.degree == 0


def test_relation_rejects_incompatible_paths():
    q = Quiver(("0", "1", "2"),
               (Arrow("a", "1", "0"), Arrow("b", "2", "1")))
    with pytest.raises(PresentationError):
        q.path(["b", "a"])  # does not compose
    with pytest.raises(PresentationError):
        Relation.make([(1, q.path(["a", "b"])), (1, q.path(["b", "b"]))])


def test_normalization_idempotent_and_cancellation():
    q = Quiver(("0", "1"), (Arrow("e0", "0", "0"), Arrow("a", "1", "0")))
    p1 = q.path(["e0", "a"])
    rel = Relation.make([(Fraction(1, 2), p1), (Fraction(1, 2), p1)])
    assert rel.terms == ((Fraction(1), p1),)
    assert Relation.make(rel.terms) == rel
    cancelled = Relation.make([(1, p1), (-1, p1)], source="1", target="0")
    assert cancelled.is_zero


def test_detect_shortcuts_cases():
    a1221 = parse_presentation(A1221_TEXT)
    assert detect_shortcuts(a1221.quiver) == []

    chord = Quiver(("0", "1", "2"),
                   (Arrow("a", "1", "0"), Arrow("b", "2", "1"), Arrow("c", "2", "0")))
    assert [x.name for x in detect_shortcuts(chord)] == ["c"]

    chain = Quiver(("0", "1", "2"), (Arrow("a", "1", "0"), Arrow("b", "2", "1")))
    assert detect_shortcuts(chain) == []

    # parallel arrows are not shortcuts: the companion path needs length >= 2
    parallel = Quiver(("0", "1"),
                      (Arrow("a1", "1", "0"), Arrow("a2", "1", "0"),
                       Arrow("a3", "1", "0")))
    assert detect_shortcuts(parallel) == []


def test_cycle_conditions_cases():
    a1221 = parse_presentation(A1221_TEXT)
    assert check_cycle_conditions(a1221.quiver).ok

    two_cycle = Quiver(("0", "1"), (Arrow("u", "0", "1"), Arrow("v", "1", "0")))
    diag = check_cycle_conditions(two_cycle)
    assert not diag.ok and diag.degree_cycle is not None
    assert set(diag.degree_cycle) == {"u", "v"}

    double_loop = Quiver(("0",), (Arrow("e", "0", "0"), Arrow("f", "0", "0")))
    diag = check_cycle_conditions(double_loop)
    assert not diag.ok and diag.multi_loop_vertex == "0"


def _brute_force_cycle_ok(quiver: Quiver) -> bool:
    """Enumerate all cycles up to a safe length; each must be a loop power."""
    cap = max(len(quiver.vertices), 2)
    stack = [(a, [a]) for a in quiver.arrows]
    while stack:
        last, word = stack.pop()
        if word[0].target == word[-1].source:
            names = {a.name for a in word}
            if not (len(names) == 1 and word[0].is_loop):
                return False
        if len(word) < cap:
            for nxt in quiver.arrows:
                if nxt.target == word[-1].source:
                    stack.append((nxt, word + [nxt]))
    return True


@st.composite
def small_quivers(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    vertices = tuple(f"v{i}" for i in range(n))
    n_arrows = draw(st.integers(min_value=0, max_value=6))
    arrows = []
    for k in range(n_arrows):
        s = draw(st.integers(min_value=0, max_value=n - 1))
        t = draw(st.integers(min_value=0, max_value=n - 1))
        arrows.append(Arrow(f"x{k}", vertices[s], vertices[t]))
    return Quiver(vertices, tuple(arrows))


@settings(max_examples=150, deadline=None)
@given(small_quivers())
def test_cycle_conditions_match_brute_force(quiver):
    assert check_cycle_conditions(quiver).ok == _brute_force_cycle_ok(quiver)


@settings(max_examples=100, deadline=None)
@given(small_quivers())
def test_relation_degree_matches_min_over_terms(quiver):
    # build all length-2 paths and check the min-degree convention
    paths = []
    for a in quiver.arrows:
        for b in quiver.arrows:
            if a.source == b.target:
                paths.append(quiver.path([a.name, b.name]))
    groups = {}
    for p in paths:
        groups.setdefault((p.source, p.target), []).append(p)
    for ps in groups.values():
        rel = Relation.make([(1, p) for p in ps])
        if not rel.is_zero:
            assert rel.degree == min(p.degree for _, p in rel.terms)


SUBST_BASE = """
vertex 0
vertex 1
loop e0 0 order 5
arrow a1 1 -> 0
arrow a2 1 -> 0
relation e0^2*a1
"""


def test_substitution_scalar_rescale():
    pres = parse_presentation("vertex 0\nvertex 1\nloop e0 0 order 2\n"
                              "arrow a1 1 -> 0\nrelation e0*a1\n")
    out = apply_arrow_substitution(pres, "a1", [(2, pres.quiver.path(["a1"]))])
    (coeff, path), = out.relations[0].terms
    assert coeff == Fraction(1, 2) and path.arrows == ("e0", "a1")


def test_substitution_shear_expected_expansion():
    pres = parse_presentation(SUBST_BASE)
    q = pres.quiver
    repl = [(1, q.path(["a1"])), (1, q.path(["e0", "a2"]))]
    out = apply_arrow_substitution(pres, "a1", repl)
    got = {(c, p.arrows) for c, p in out.relations[0].terms}
    assert got == {(Fraction(1), ("e0", "e0", "a1")),
                   (Fraction(-1), ("e0", "e0", "e0", "a2"))}
    assert out.provenance and "a1 <-" in out.provenance[0]


def test_substitution_loop_reparameterization_keeps_order():
    text = ("vertex 0\nvertex 1\nloop e0 0 order 2\nloop e1 1 order 4\n"
            "arrow a1 1 -> 0\nrelation e0*a1 + a1*e1\n")
    pres = parse_presentation(text)
    q = pres.quiver
    repl = [(1, q.path(["e1"])), (Fraction(1, 3), q.path(["e1"] * 3))]
    out = apply_arrow_substitution(pres, "e1", repl)
    assert out.orders == pres.orders
    words = {p.arrows for _, p in out.relations[0].terms}
    assert ("a1", "e1", "e1", "e1") in words


def test_substitution_round_trip():
    pres = parse_presentation(SUBST_BASE)
    q = pres.quiver
    for repl in (
        [(1, q.path(["a1"])), (1, q.path(["e0", "a2"]))],
        [(Fraction(-3), q.path(["a1"])), (Fraction(1, 2), q.path(["e0", "e0", "a1"]))],
        [(2, q.path(["a1"])), (1, q.path(["a2"]))],
    ):
        forward = apply_arrow_substitution(pres, "a1", repl)
        back = apply_arrow_substitution(forward, "a1",
                                        invert_substitution(pres, "a1", repl))
        assert back.relations == pres.relations


def test_substitution_with_self_referencing_tail():
    # the replaced arrow may appear inside loop-padded correction terms;
    # the inverse is then a truncated series
    text = ("vertex 0\nvertex 1\nloop e0 0 order 3\nloop e1 1 order 3\n"
            "arrow a1 1 -> 0\nrelation e0*a1 + a1*e1\n")
    pres = parse_presentation(text)
    q = pres.quiver
    repl = [(1, q.path(["a1"])), (Fraction(1, 2), q.path(["e0", "a1", "e1"]))]
    inv = invert_substitution(pres, "a1", repl)
    assert {(str(c), p.arrows) for c, p in inv} == {
        ("1", ("a1",)),
        ("-1/2", ("e0", "a1", "e1")),
        ("1/4", ("e0", "e0", "a1", "e1", "e1"))}
    fwd = apply_arrow_substitution(pres, "a1", repl)
    words = {p.arrows for _, p in fwd.relations[0].terms}
    assert ("e0", "e0", "a1", "e1") in words and ("e0", "a1", "e1", "e1") in words
    back = apply_arrow_substitution(fwd, "a1", inv)
    assert back.relations == pres.relations


def test_substitution_requires_invertible_lead():
    pres = parse_presentation(SUBST_BASE)
    q = pres.quiver
    with pytest.raises(SubstitutionError):
        apply_arrow_substitution(pres, "a1", [(1, q.path(["a2"]))])
    with pytest.raises(SubstitutionError):
        apply_arrow_substitution(pres, "a1", [(1, q.path(["e0", "a1"]))])


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_serialize_parse_round_trip(pres):
    text = serialize_presentation(pres)
    again = parse_presentation(text)
    assert again.quiver == pres.quiver
    assert again.orders == pres.orders
    assert again.relations == pres.relations
    assert serialize_presentation(again) == text


@settings(max_examples=400, deadline=None)
@given(presentations(), st.randoms(use_true_random=False))
def test_edited_files_parse_or_raise_presentation_error(pres, rng):
    text = serialize_presentation(pres)
    alphabet = sorted(set(text) | set("0123456789/*^+-#> \n"))
    for _ in range(rng.randint(1, 4)):
        # half the edits land on a digit or an operator
        marks = [i for i, c in enumerate(text) if c in "0123456789/*^+-"]
        if marks and rng.random() < 0.5:
            k = rng.choice(marks)
        else:
            k = rng.randint(0, len(text))
        op = rng.choice(["insert", "delete", "replace"])
        ch = rng.choice(alphabet)
        if op == "insert":
            text = text[:k] + ch + text[k:]
        elif op == "delete":
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k] + ch + text[k + 1:]
    try:
        parse_presentation(text)
    except PresentationError:
        pass
