import contextlib
import dataclasses
import io
import itertools
import os
import pickle
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import path_reference
import quiver_reference
from paper_checks import check_cycle_conditions, detect_shortcuts
from path_reference import path_of, word_of, word_path
from strategies import presentations
from substitution import (SubstitutionError, apply_arrow_substitution,
                          invert_substitution)

from quiverstrata import cli
from quiverstrata.quiver import (Arrow, BoundQuiverPresentation, PresentationError,
                                 Quiver, Relation, parse_presentation, serialize_presentation)

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
    assert {word_of(rel, t) for t in rel.terms} == {("e0", "a1"), ("a1", "e1")}
    assert all(c == 1 for c, *_ in rel.terms)


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


_HEAD = "vertex 0\nvertex 1\n"


@pytest.mark.parametrize("text, line", [
    ("vertex 0\nvertex 1\nvertex 0\nvertex 2\n", 3),
    (_HEAD + "loop e 2 order 2\nvertex 2\n", 3),
    (_HEAD + "loop e 0 order 2\nloop e 1 order 2\n", 4),
    (_HEAD + "arrow a 1 -> 0\nloop a 0 order 2\n", 4),
    (_HEAD + "loop e 0 order 2\narrow e 1 -> 0\n", 4),
    (_HEAD + "arrow a 1 -> 0\narrow a 0 -> 1\n", 4),
    (_HEAD + "loop e 0 order 2\nloop f 0 order 3\nloop g 1 order 2\n", 4),
    (_HEAD + "loop e 0 order 1\nloop f 1 order 2\n", 3),
    (_HEAD + "loop e 1 order 0\n", 3),
    (_HEAD + "arrow a 1 -> 2\nvertex 2\n", 3),
    (_HEAD + "arrow a 2 -> 0\n", 3),
    (_HEAD + "arrow a 1 -> 1\nloop e 1 order 2\n", 3),
    (_HEAD + "loop e 1 order 2\narrow a 1 -> 0\nrelation a*e - a*e\nrelation a*e\n", 5),
    (_HEAD + "loop e 1 order 3\narrow a 1 -> 0\nrelation a*e\n"
     "relation a*e^2 - a*e^2\nrelation a*e^2\n", 6),
    ("vertex 0\nloop e 0 order 4\nrelation e^2 + e^3\n", 3),
], ids=["duplicate-vertex", "loop-at-undeclared-vertex", "duplicate-loop-name",
        "loop-named-as-arrow", "arrow-named-as-loop", "duplicate-arrow-name",
        "second-loop", "loop-order-1", "loop-order-0", "arrow-to-undeclared-vertex",
        "arrow-from-undeclared-vertex", "self-arrow", "cancelling-relation",
        "cancelling-relation-later", "degree-0-relation"])
def test_parse_error_names_its_line(text, line):
    with pytest.raises(PresentationError) as exc:
        parse_presentation(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ")


# lines for the differential test: each directive well formed or not, names
# that clash, vertices used before they are declared, and relations that
# fail in the parser, in Relation.make or in the presentation
PARSE_LINES = [
    "vertex 0", "vertex 1", "vertex 2", "vertex 0 1", "# note", "",
    "loop e 0 order 3", "loop f 1 order 2", "loop e 1 order 2", "loop g 2 order 1",
    "loop h 0 order 0", "loop e 0 ordr 2",
    "arrow a 1 -> 0", "arrow b 1 -> 0", "arrow a 2 -> 1", "arrow c 0 -> 0",
    "arrow c 5 -> 0", "arrow e 1 -> 0", "arrow d 1 0", "bogus 1",
    "relation e*a", "relation e*a - e*a", "relation e^2", "relation a*f + 1/2*e*b",
    "relation e^5*a", "relation x*a", "relation 1/0*e*a", "relation", "relation a*b",
    "relation e*a*f - 2*e^2*b", "relation - e*a", "relation e*a +", "relation -",
    "relation -1/2*e*a + e*b", "relation +e*a", "relation e*a - - e*b", "relation 0*e*a",
    "relation e*a*", "relation e^0*a", "relation a*f^2", "relation 2",
    "relation e^4*f", "relation e^3*x*a^2",
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(PARSE_LINES), max_size=14))
def test_parse_matches_replaced(lines):
    """The build-once parser returns what the per-line one did, or fails
    with the same message on the same line."""
    def outcome(parse):
        try:
            pres = parse("\n".join(lines))
        except PresentationError as exc:
            return str(exc), exc.line
        return pres.quiver, pres.orders, pres.relations

    assert outcome(parse_presentation) == outcome(quiver_reference.parse_presentation)


def _assert_split_terms_match_reference_words(text):
    """Each stored term of the relations of ``text``, written out as the
    word lt^pre x ls^post that the engine's split and the oracle read, has
    the coefficient and the word of the same term in the word model, built
    from the text by the reference parser; so the oracle checks the split
    independently.  Returns the number of terms compared."""
    try:
        pres = parse_presentation(text)
    except PresentationError:
        return 0
    got = [[(t[0], word_of(rel, t)) for t in rel.terms] for rel in pres.relations]
    assert got == [[(c, p.arrows) for c, p in terms]
                   for terms in quiver_reference.word_model_relations(text)]
    return sum(map(len, got))


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_split_terms_match_reference_words(pres):
    _assert_split_terms_match_reference_words(serialize_presentation(pres))


def test_split_terms_match_reference_words_on_parse_lines():
    """Every ordered pair of the pool's relation lines, under two heads of
    the pool's declarations."""
    heads = [["vertex 0", "vertex 1", "loop e 0 order 3", "loop f 1 order 2",
              "arrow a 1 -> 0", "arrow b 1 -> 0"],
             ["vertex 0", "vertex 1", "vertex 2", "loop e 1 order 2", "arrow a 2 -> 1"]]
    relations = [line for line in PARSE_LINES if line.startswith("relation")]
    compared = sum(_assert_split_terms_match_reference_words("\n".join(head + list(pair)))
                   for head in heads for pair in itertools.product(relations, repeat=2))
    assert compared > 100


def test_parse_is_linear_in_the_arrows():
    """4,000 parallel arrows and 200 relations parse at once; building the
    presentation after every line took seconds."""
    text = "\n".join(["vertex 0", "vertex 1", "loop e 0 order 2"]
                     + [f"arrow a{i} 1 -> 0" for i in range(4000)]
                     + [f"relation e*a{i}" for i in range(200)])
    start = time.perf_counter()
    pres = parse_presentation(text)
    assert time.perf_counter() - start < 0.5
    assert len(pres.quiver.arrows) == 4001 and len(pres.relations) == 200


def test_parse_rejects_forbidden_subword():
    """A forbidden power is named before an unknown arrow, a power of an
    arrow that is not a loop, or arrows that do not compose."""
    for term, path, power in [
            ("e0^2*a", "e0^2*a", "e0^2"), ("e0*e0^2*a", "e0^3*a", "e0^3"),
            ("e0^2*x", "e0^2*x", "e0^2"), ("e0^2*a^2", "e0^2*a^2", "e0^2"),
            ("a*e0^2", "a*e0^2", "e0^2")]:
        text = f"vertex 0\nvertex 1\nloop e0 0 order 2\narrow a 1 -> 0\nrelation {term}\n"
        with pytest.raises(PresentationError) as exc:
            parse_presentation(text)
        assert str(exc.value) == f"line 5: path {path} contains the forbidden power {power}"


@pytest.mark.parametrize("relation, message", [
    ("a*e0 + e0^2*a", "arrows 'a' and 'e0' do not compose"),
    ("e0^2*a + a*e0", "path e0^2*a contains the forbidden power e0^2")])
def test_term_errors_come_in_input_order(relation, message):
    """Each term is checked whole, its forbidden power and then its arrows,
    before the next term: a compose error comes before a later term's
    forbidden power, and a forbidden power before a later compose error."""
    text = f"vertex 0\nvertex 1\nloop e0 0 order 2\narrow a 1 -> 0\nrelation {relation}\n"
    for parse in (parse_presentation, quiver_reference.parse_presentation):
        with pytest.raises(PresentationError) as exc:
            parse(text)
        assert str(exc.value) == f"line 5: {message}"


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


def test_equal_presentations_hash_alike_and_pickle_without_the_cached_hash():
    pres, again = parse_presentation(A1221_TEXT), parse_presentation(A1221_TEXT)
    assert pres is not again and pres == again
    assert hash(pres) == hash(again) == hash(pres)
    copy = pickle.loads(pickle.dumps(pres))
    assert copy.__dict__.keys() == {f.name for f in dataclasses.fields(pres)}
    assert copy == pres and hash(copy) == hash(pres)


def test_unpickled_presentation_hashes_as_parsed_under_another_hash_seed():
    """A presentation pickled after its hash was taken hashes in a process
    with another hash seed as one parsed there does: no hash computed under
    one seed travels with the pickle."""
    pres = parse_presentation(A1221_TEXT)
    hash(pres)
    script = ("import pickle, sys\n"
              "from quiverstrata.quiver import parse_presentation\n"
              "pres = pickle.loads(sys.stdin.buffer.read())\n"
              "print(hash(pres) == hash(parse_presentation(sys.argv[1])))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, A1221_TEXT],
                              input=pickle.dumps(pres), env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [b"True"]


def test_path_degree():
    """A path of degree 1 is stored as its split; Relation.make refuses
    one of degree 0 or 2."""
    q = Quiver(("0", "1", "2"),
               (Arrow("e0", "0", "0"), Arrow("e1", "1", "1"),
                Arrow("a1", "1", "0"), Arrow("b1", "2", "1")))
    rel = Relation.make(q, [(1, path_of(["e0", "e0", "a1", "e1"]))])
    assert rel.terms == ((1, 2, "a1", 1),) and rel.loops == ("e0", "e1")
    with pytest.raises(PresentationError, match="^degree-0 relation"):
        Relation.make(q, [(1, path_of(["e0", "e0", "e0"]))])
    with pytest.raises(PresentationError, match="^path a1\\*e1\\*b1 has degree 2;"):
        Relation.make(q, [(1, path_of(["a1", "e1", "b1"]))])


def test_relation_degree():
    """A relation builds only when every term has exactly one non-loop
    arrow."""
    q = Quiver(("0", "1", "2"),
               (Arrow("e0", "0", "0"), Arrow("a1", "1", "0"), Arrow("b1", "2", "1")))
    mixed = Relation.make(q, [(1, path_of(["e0", "a1"])), (1, path_of(["e0", "e0", "a1"]))])
    assert BoundQuiverPresentation(q, (4, 1, 1), (mixed,)).relations == (mixed,)
    with pytest.raises(PresentationError, match="^degree-0 relation; use a loop order instead$"):
        Relation.make(q, [(1, path_of(["e0", "e0", "e0"]))])
    with pytest.raises(PresentationError, match=(
            "^path a1\\*b1 has degree 2; the linear engine supports exactly one "
            "non-loop arrow per term$")):
        Relation.make(q, [(1, path_of(["e0", "a1", "b1"])), (1, path_of(["a1", "b1"]))])


def test_relation_rejects_incompatible_paths():
    q = Quiver(("0", "1", "2"),
               (Arrow("a", "1", "0"), Arrow("b", "2", "1")))
    with pytest.raises(PresentationError):
        Relation.make(q, [(1, path_of(["b", "a"]))])  # does not compose
    with pytest.raises(PresentationError):
        Relation.make(q, [(1, path_of(["a", "b"])), (1, path_of(["b", "b"]))])
    # a split names one loop per vertex
    two = Quiver(("0", "1"), (Arrow("e", "0", "0"), Arrow("f", "0", "0"), Arrow("a", "1", "0")))
    with pytest.raises(PresentationError, match="^path e\\*a meets two loops at a vertex$"):
        Relation.make(two, [(1, path_of(["e", "a"]))])


def test_normalization_idempotent_and_cancellation():
    q = Quiver(("0", "1"), (Arrow("e0", "0", "0"), Arrow("a", "1", "0")))
    p1 = path_of(["e0", "a"])
    rel = Relation.make(q, [(Fraction(1, 2), p1), (Fraction(1, 2), p1)])
    assert rel.terms == ((Fraction(1), 1, "a", 0),)
    assert Relation.make(q, [(t[0], path_of(word_of(rel, t))) for t in rel.terms]) == rel
    cancelled = Relation.make(q, [(1, p1), (-1, p1)], source="1", target="0")
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
    """Relation.make refuses a relation with a degree-0 term, then one
    with a term of degree 2 or more, naming the first such term in the
    word model's order, and builds every other; all length-2 paths,
    grouped by their ends."""
    loops = [a.source for a in quiver.arrows if a.is_loop]
    assume(len(loops) == len(set(loops)))
    orders = tuple(3 if v in loops else 1 for v in quiver.vertices)
    groups = {}
    for a in quiver.arrows:
        for b in quiver.arrows:
            if a.source == b.target:
                p = word_path(quiver, [a.name, b.name])
                groups.setdefault((p.source, p.target), []).append(p)
    for ps in groups.values():
        ref = path_reference._normalize_combo([(1, p) for p in ps])
        deep = [p for _, p in ref if p.degree > 1]
        if min(p.degree for _, p in ref) == 0:
            want = "degree-0 relation; use a loop order instead"
        elif deep:
            want = (f"path {deep[0]} has degree {deep[0].degree}; the linear "
                    "engine supports exactly one non-loop arrow per term")
        else:
            rel = Relation.make(quiver, [(1, path_of(p.arrows)) for p in ps])
            assert [(t[0], word_of(rel, t)) for t in rel.terms] == [(c, p.arrows) for c, p in ref]
            assert BoundQuiverPresentation(quiver, orders, (rel,)).relations == (rel,)
            continue
        with pytest.raises(PresentationError) as exc:
            Relation.make(quiver, [(1, path_of(p.arrows)) for p in ps])
        assert str(exc.value) == want


@st.composite
def _run_lists(draw, quiver):
    """Up to four runs (powers 1 to 6), each arrow mostly one that composes
    with the run before it, and repeated runs of one arrow."""
    runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        prev = quiver.arrow(runs[-1][0]) if runs else None
        following = [a for a in quiver.arrows if prev is None or a.target == prev.source]
        pool = following if following and draw(st.integers(0, 5)) else quiver.arrows
        name = draw(st.sampled_from(pool)).name
        runs.append((name, draw(st.integers(min_value=1, max_value=6))))
    return runs


@st.composite
def _split_runs(draw, quiver):
    """Runs of a non-loop arrow between powers 0 to 3 of the loops at its
    ends, where they have one."""
    x = draw(st.sampled_from(quiver.non_loop_arrows))
    loop = {a.source: a.name for a in quiver.arrows if a.is_loop}
    return ([(loop[x.target], draw(st.integers(0, 3)))] if x.target in loop else []) + [
        (x.name, 1)] + ([(loop[x.source], draw(st.integers(0, 3)))] if x.source in loop else [])


def _built(build, *args):
    try:
        return build(*args)
    except PresentationError:
        return None


@settings(max_examples=300, deadline=None)
@given(small_quivers(), st.data())
def test_run_paths_match_word_model(quiver, data):
    """Relations built from arrow runs against the word model of paths they
    replaced: a term builds exactly where its word path does and has length
    >= 2 and one non-loop arrow, with the word path's str, ends, split and
    word, and equal exactly where the word paths are; and the terms of
    several such paths combine and order as the word model combines and
    orders them."""
    assume(quiver.arrows)
    loops = [a.source for a in quiver.arrows if a.is_loop]
    assume(len(loops) == len(set(loops)))
    built = []
    shapes = _run_lists(quiver)
    if quiver.non_loop_arrows:
        shapes = st.one_of(shapes, _split_runs(quiver))
    for runs in data.draw(st.lists(shapes, min_size=1, max_size=8)):
        word = [name for name, k in runs for _ in range(k)]
        rel, old = _built(Relation.make, quiver, [(1, runs)]), _built(word_path, quiver, word)
        assert (rel is None) == (old is None or old.length < 2 or old.degree != 1), runs
        if rel is None:
            continue
        (term,) = rel.terms
        assert (str(rel), rel.source, rel.target, term[1:]) == (
            str(old), old.source, old.target, old.split)
        assert word_of(rel, term) == old.arrows
        built.append((runs, old, rel))
    for _, old, rel in built:
        for _, other_old, other in built:
            assert (rel == other) == (old == other_old)
            if rel == other:
                assert hash(rel) == hash(other)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(built), max_size=len(built)))
    groups = {}
    for c, (runs, old, _) in zip(coeffs, built):
        groups.setdefault((old.source, old.target), []).append((c, runs, old))
    for group in groups.values():
        got = Relation.make(quiver, [(c, runs) for c, runs, _ in group])
        want = path_reference._normalize_combo([(c, old) for c, _, old in group])
        assert [(t[0], word_of(got, t)) for t in got.terms] == [(c, p.arrows) for c, p in want]


@settings(max_examples=300, deadline=None)
@given(st.permutations(["b", "d", "f", "h"]), st.integers(min_value=2, max_value=6),
       st.data())
def test_relation_term_order_matches_word_model(names, length, data):
    """Degree-1 terms of one length, that a relation orders by their
    target-loop power and arrow, in the order the word model gives their
    words; loop and arrow names interleave alphabetically."""
    e0, e1, a1, a2 = names
    q = Quiver(("0", "1"), (Arrow(e0, "0", "0"), Arrow(e1, "1", "1"),
                            Arrow(a1, "1", "0"), Arrow(a2, "1", "0")))
    terms = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, length - 1),
                                         st.sampled_from([a1, a2])), min_size=1, max_size=8))
    got = Relation.make(q, [(c, [(e0, i), (a, 1), (e1, length - 1 - i)])
                            for c, i, a in terms], source="1", target="0")
    want = path_reference._normalize_combo(
        [(c, word_path(q, [e0] * i + [a] + [e1] * (length - 1 - i)))
         for c, i, a in terms])
    assert [(t[0], word_of(got, t)) for t in got.terms] == [(c, p.arrows) for c, p in want]


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
    out = apply_arrow_substitution(pres, "a1", [(2, word_path(pres.quiver, ["a1"]))])
    (rel,) = out.relations
    (term,) = rel.terms
    assert term[0] == Fraction(1, 2) and word_of(rel, term) == ("e0", "a1")


def test_substitution_shear_expected_expansion():
    pres = parse_presentation(SUBST_BASE)
    q = pres.quiver
    repl = [(1, word_path(q, ["a1"])), (1, word_path(q, ["e0", "a2"]))]
    out = apply_arrow_substitution(pres, "a1", repl)
    (rel,) = out.relations
    got = {(t[0], word_of(rel, t)) for t in rel.terms}
    assert got == {(Fraction(1), ("e0", "e0", "a1")),
                   (Fraction(-1), ("e0", "e0", "e0", "a2"))}


def test_substitution_loop_reparameterization_keeps_order():
    text = ("vertex 0\nvertex 1\nloop e0 0 order 2\nloop e1 1 order 4\n"
            "arrow a1 1 -> 0\nrelation e0*a1 + a1*e1\n")
    pres = parse_presentation(text)
    q = pres.quiver
    repl = [(1, word_path(q, ["e1"])), (Fraction(1, 3), word_path(q, ["e1"] * 3))]
    out = apply_arrow_substitution(pres, "e1", repl)
    assert out.orders == pres.orders
    (rel,) = out.relations
    words = {word_of(rel, t) for t in rel.terms}
    assert ("a1", "e1", "e1", "e1") in words


def test_substitution_round_trip():
    pres = parse_presentation(SUBST_BASE)
    q = pres.quiver
    for repl in (
        [(1, word_path(q, ["a1"])), (1, word_path(q, ["e0", "a2"]))],
        [(Fraction(-3), word_path(q, ["a1"])), (Fraction(1, 2), word_path(q, ["e0", "e0", "a1"]))],
        [(2, word_path(q, ["a1"])), (1, word_path(q, ["a2"]))],
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
    repl = [(1, word_path(q, ["a1"])), (Fraction(1, 2), word_path(q, ["e0", "a1", "e1"]))]
    inv = invert_substitution(pres, "a1", repl)
    assert {(str(c), p.arrows) for c, p in inv} == {
        ("1", ("a1",)),
        ("-1/2", ("e0", "a1", "e1")),
        ("1/4", ("e0", "e0", "a1", "e1", "e1"))}
    fwd = apply_arrow_substitution(pres, "a1", repl)
    (rel,) = fwd.relations
    words = {word_of(rel, t) for t in rel.terms}
    assert ("e0", "e0", "a1", "e1") in words and ("e0", "a1", "e1", "e1") in words
    back = apply_arrow_substitution(fwd, "a1", inv)
    assert back.relations == pres.relations


def test_substitution_requires_invertible_lead():
    pres = parse_presentation(SUBST_BASE)
    q = pres.quiver
    with pytest.raises(SubstitutionError):
        apply_arrow_substitution(pres, "a1", [(1, word_path(q, ["a2"]))])
    with pytest.raises(SubstitutionError):
        apply_arrow_substitution(pres, "a1", [(1, word_path(q, ["e0", "a1"]))])


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


# numbers, names, runs of white space, and single characters otherwise
TOKEN = re.compile(r"\d+|\w+|\s+|.")
SEPARATORS = {"*", "+", "-"}
# stand-ins for a number: zero, a padded zero, a zero denominator, and a
# value far past any loop order or exponent the engine can expand
NUMBER_SWAPS = ("0", "00", "1/0", "1" + "0" * 40)


def _factors(tokens):
    """(start, end) token spans of the factors of the relation terms:
    maximal runs such as ``e0^2`` or ``1/2`` next to a ``*``."""
    spans, start = [], None
    for i, tok in enumerate(tokens + [" "]):
        if tok in SEPARATORS or tok.isspace():
            if start is not None and "*" in (tokens[start - 1], tok):
                spans.append((start, i))
            start = None
        elif start is None:
            start = i
    return spans


def _token_edit(tokens, rng):
    """One edit: swap a number, drop or duplicate a factor, flip a sign or
    delete a ``*``."""
    numbers = [i for i, t in enumerate(tokens) if t.isdigit()]
    factors = _factors(tokens)
    signs = [i for i, t in enumerate(tokens) if t in "+-"
             and tokens[i + 1:i + 2] != [">"]]
    stars = [i for i, t in enumerate(tokens) if t == "*"]
    edits = [e for e, where in (("number", numbers), ("drop", factors),
                                ("duplicate", factors), ("sign", signs),
                                ("star", stars)) if where]
    if not edits:
        return tokens
    edit = rng.choice(edits)
    if edit == "number":
        k = rng.choice(numbers)
        return tokens[:k] + [rng.choice(NUMBER_SWAPS)] + tokens[k + 1:]
    if edit == "sign":
        k = rng.choice(signs)
        return tokens[:k] + ["-" if tokens[k] == "+" else "+"] + tokens[k + 1:]
    if edit == "star":
        k = rng.choice(stars)
        return tokens[:k] + tokens[k + 1:]
    a, b = rng.choice(factors)
    if edit == "duplicate":
        return tokens[:b] + ["*"] + tokens[a:b] + tokens[b:]
    # drop the factor with the ``*`` that joins it to its neighbour
    if tokens[a - 1] == "*":
        a -= 1
    elif tokens[b:b + 1] == ["*"]:
        b += 1
    return tokens[:a] + tokens[b:]


@settings(max_examples=400, deadline=None)
@given(presentations(), st.randoms(use_true_random=False))
def test_token_edited_files_parse_or_raise_presentation_error(pres, rng):
    tokens = TOKEN.findall(serialize_presentation(pres))
    for _ in range(rng.randint(1, 3)):
        tokens = _token_edit(tokens, rng)
    text = "".join(tokens)
    try:
        parse_presentation(text)
    except PresentationError:
        pass
    if rng.random() < 0.25:
        # the CLI turns every such file into a table or exit code 2
        dims = ",".join(["1"] * len(pres.quiver.vertices))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.bq"
            path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["strata", "--algebra", str(path), "--dim", dims])
        assert code in (0, 2), err.getvalue()
