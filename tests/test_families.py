import itertools
from fractions import Fraction

import pytest
from paper_checks import product_decomposition_check, recognize_family
from path_reference import path_of, word_of, word_path
from substitution import apply_arrow_substitution, relation_mod_orders

from quiverstrata import families
from quiverstrata.families import FamilyTag, build_family, parse_family_spec
from quiverstrata.quiver import parse_presentation


def test_build_standard_relation():
    pres = build_family(FamilyTag("A", h=1, m0=2, m1=2, n=1))
    (rel,) = pres.relations
    assert {word_of(rel, t) for t in rel.terms} == {("e0", "a1"), ("a1", "e1")}

    pres = build_family(FamilyTag("A", h=2, m0=3, m1=3, n=2))
    (rel,) = pres.relations
    assert {word_of(rel, t) for t in rel.terms} == {
        ("e0", "e0", "a1"), ("e0", "a1", "e1"), ("a1", "e1", "e1")}
    assert [a.name for a in pres.quiver.non_loop_arrows] == ["a1", "a2"]


def test_build_truncates_high_powers():
    # order bound 2 on both sides kills the middle of the n = 2 relation
    pres = build_family(FamilyTag("A", h=1, m0=3, m1=2, n=2))
    (rel,) = pres.relations
    assert {word_of(rel, t) for t in rel.terms} == {
        ("e0", "e0", "a1"), ("e0", "a1", "e1")}
    # truncating everything leaves no relation at all
    pres = build_family(FamilyTag("A", h=1, m0=2, m1=2, n=3))
    assert pres.relations == ()


def test_relation_sums_only_terms_below_the_orders():
    # the same relation as summing all n + 1 terms and truncating them
    for m0, m1 in itertools.product(range(2, 6), repeat=2):
        for n in range(1, m0 + m1 + 1):
            pres = build_family(FamilyTag("A", h=1, m0=m0, m1=m1, n=n))
            terms = [(1, word_path(pres.quiver, ["e0"] * (n - i) + ["a1"] + ["e1"] * i))
                     for i in range(n + 1)]
            want = relation_mod_orders(pres.quiver, {"0": m0, "1": m1}, terms,
                                       source="1", target="0")
            assert pres.relations == (() if want.is_zero else (want,)), (m0, m1, n)


def test_degree_one_members_survive():
    for m in (2, 3, 4, 5):
        for n in (1, m - 1):
            pres = build_family(FamilyTag("A", h=1, m0=m, m1=m, n=n))
            assert len(pres.relations) == 1
            assert {name for _, _, name, _ in pres.relations[0].terms} == {"a1"}
            assert len(pres.relations[0].terms) == n + 1


def test_build_disconnected_family():
    pres = build_family(FamilyTag("Aprime", h=0, m0=3, m1=2))
    assert pres.quiver.non_loop_arrows == ()
    assert len(pres.quiver.vertices) == 2
    pres = build_family(FamilyTag("Aprime", h=0, m0=1, m1=1))
    assert pres.quiver.arrows == ()


def test_tag_validation_and_spec_strings():
    with pytest.raises(ValueError):
        FamilyTag("A", h=1, m0=1, m1=2, n=1)
    with pytest.raises(ValueError):
        FamilyTag("Aprime", h=-1, m0=1, m1=1)
    with pytest.raises(ValueError):
        FamilyTag("unrecognized")
    with pytest.raises(ValueError):
        parse_family_spec("B(1,2)")
    with pytest.raises(ValueError, match="cannot parse family spec"):
        parse_family_spec("A'(1,2,2)")  # the spelling is Aprime
    tag = parse_family_spec("A(2,3,3,2)")
    assert tag.spec_string() == "A(2,3,3,2)"
    # h up to the bound, checked before any arrow is built
    assert FamilyTag("A", h=families._MAX_H, m0=2, m1=2, n=1).h == 10 ** 6
    for spec in (f"A({10 ** 6 + 1},2,2,1)", f"Aprime({10 ** 6 + 1},1,1)"):
        with pytest.raises(ValueError, match="^h = 1000001 arrows exceed the bound 1000000$"):
            parse_family_spec(spec)
    assert parse_family_spec("truncpoly(4)").m == 4


def test_relation_terms_are_counted_before_they_are_built():
    """A(h,m0,m1,n) has min(n, m1-1) - max(0, n-m0+1) + 1 terms; the tag
    refuses more than the bound without listing them."""
    for spec, terms in (("A(1,3,3,2)", 3), ("A(1,2,2,99999999999)", 0),
                        ("A(1,10000000,3,5000000)", 3), ("A(1,5,3,3)", 3)):
        tag = parse_family_spec(spec)
        built = sum(len(rel.terms) for rel in build_family(tag).relations)
        assert len(tag.term_powers) == terms == built, spec
    assert len(FamilyTag("A", h=1, m0=10 ** 5, m1=10 ** 5, n=10 ** 5 - 1).term_powers) == 10 ** 5
    with pytest.raises(ValueError, match=r"^the relation of A\(1,100001,100001,100000\) has "
                                         r"100001 terms, more than the bound 100000$"):
        parse_family_spec("A(1,100001,100001,100000)")
    with pytest.raises(ValueError, match=f"has {10 ** 30 + 1} terms"):
        parse_family_spec(f"A(1,{2 * 10 ** 30},{2 * 10 ** 30},{10 ** 30})")


def test_in_classified_list_flag():
    assert FamilyTag("A", h=1, m0=3, m1=3, n=1).in_classified_list
    assert FamilyTag("A", h=1, m0=3, m1=3, n=2).in_classified_list
    assert not FamilyTag("A", h=1, m0=4, m1=4, n=2).in_classified_list
    assert not FamilyTag("A", h=1, m0=3, m1=2, n=1).in_classified_list
    assert FamilyTag("Aprime", h=2, m0=1, m1=3).in_classified_list
    assert FamilyTag("truncpoly", m=5).in_classified_list


def test_recognize_round_trip_on_tags():
    tags = []
    for m in range(2, 6):
        for h in (1, 2, 3):
            for n in {1, m - 1}:
                tags.append(FamilyTag("A", h=h, m0=m, m1=m, n=n))
    for h in (0, 1, 2):
        for m0 in (1, 2, 3):
            for m1 in (1, 2, 3):
                tags.append(FamilyTag("Aprime", h=h, m0=m0, m1=m1))
    for m in (1, 2, 5):
        tags.append(FamilyTag("truncpoly", m=m))
    for tag in tags:
        assert recognize_family(build_family(tag)) == tag, tag.spec_string()


def test_recognize_outside_list_shape():
    tag = recognize_family(build_family(FamilyTag("A", h=1, m0=4, m1=4, n=2)))
    assert tag.kind == "A" and tag.n == 2
    assert not tag.in_classified_list


def test_recognize_one_vertex():
    pres = parse_presentation("vertex v\nloop e v order 4\n")
    assert recognize_family(pres) == FamilyTag("truncpoly", m=4)
    bare = parse_presentation("vertex v\n")
    assert recognize_family(bare) == FamilyTag("truncpoly", m=1)


def test_recognize_modulo_rescale_and_substitution():
    base = build_family(FamilyTag("A", h=2, m0=3, m1=3, n=2))
    q = base.quiver
    # global rescale plus a geometric loop rescale pattern
    rel = base.relations[0]
    scaled_terms = [(t[0] * Fraction(3) * Fraction(2) ** word_of(rel, t).count("e1"),
                     path_of(word_of(rel, t))) for t in rel.terms]
    from quiverstrata.quiver import BoundQuiverPresentation, Relation

    scaled = BoundQuiverPresentation(q, base.orders,
                                     (Relation.make(q, scaled_terms),))
    tag = recognize_family(scaled)
    assert tag == FamilyTag("A", h=2, m0=3, m1=3, n=2)

    # renaming a1 <- a1 + a2 keeps the shape recognizable
    mixed = apply_arrow_substitution(base, "a1",
                                     [(1, word_path(q, ["a1"])), (1, word_path(q, ["a2"]))])
    tag = recognize_family(mixed)
    assert tag == FamilyTag("A", h=2, m0=3, m1=3, n=2)


def test_recognize_rejects_deeper_shapes():
    text = """
vertex 0
vertex 1
loop e0 0 order 3
loop e1 1 order 3
arrow a1 1 -> 0
arrow a2 1 -> 0
relation e0*a1 + e0^2*a2
"""
    pres = parse_presentation(text)
    assert recognize_family(pres) is None
    twisted = """
vertex 0
vertex 1
loop e0 0 order 3
loop e1 1 order 3
arrow a1 1 -> 0
relation e0^2*a1 + e0*a1*e1 + 2*a1*e1^2
"""
    # coefficients 1, 1, 2 are not geometric: not a loop rescale of the shape
    assert recognize_family(parse_presentation(twisted)) is None


def test_recognize_too_many_vertices():
    text = "vertex 0\nvertex 1\nvertex 2\narrow a 1 -> 0\narrow b 2 -> 1\n"
    with pytest.raises(ValueError):
        recognize_family(parse_presentation(text))


def test_product_decomposition_examples():
    check = product_decomposition_check(
        build_family(parse_family_spec("Aprime(1,2,2)")), (1, 1), 2)
    assert check.ok
    assert (check.loop_factor_0, check.arrow_factor, check.loop_factor_1) == (1, 2, 1)

    check = product_decomposition_check(
        build_family(parse_family_spec("Aprime(0,3,2)")), (1, 2), 2)
    assert check.ok and check.arrow_factor == 1

    check = product_decomposition_check(
        build_family(parse_family_spec("Aprime(2,2,2)")), (1, 1), 2)
    assert check.ok and check.arrow_factor == 4


def test_product_decomposition_sweep():
    for h in (0, 1, 2):
        pres = build_family(FamilyTag("Aprime", h=h, m0=2, m1=2))
        for q in (2, 3):
            for d0 in (0, 1, 2):
                for d1 in (0, 1, 2):
                    assert product_decomposition_check(pres, (d0, d1), q).ok


def test_product_decomposition_rejects_relations(a1221):
    with pytest.raises(ValueError):
        product_decomposition_check(a1221, (1, 1), 2)
