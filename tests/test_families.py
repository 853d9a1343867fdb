from fractions import Fraction

import pytest

from quiverstrata.families import (FamilyTag, build_family, parse_family_spec,
                                   product_decomposition_check, recognize_family)
from quiverstrata.quiver import apply_arrow_substitution, parse_presentation


def test_build_standard_relation():
    pres = build_family(FamilyTag("A", h=1, m0=2, m1=2, n=1))
    (rel,) = pres.relations
    assert {p.arrows for _, p in rel.terms} == {("e0", "a1"), ("a1", "e1")}

    pres = build_family(FamilyTag("A", h=2, m0=3, m1=3, n=2))
    (rel,) = pres.relations
    assert {p.arrows for _, p in rel.terms} == {
        ("e0", "e0", "a1"), ("e0", "a1", "e1"), ("a1", "e1", "e1")}
    assert [a.name for a in pres.quiver.non_loop_arrows] == ["a1", "a2"]


def test_build_truncates_high_powers():
    # order bound 2 on both sides kills the middle of the n = 2 relation
    pres = build_family(FamilyTag("A", h=1, m0=3, m1=2, n=2))
    (rel,) = pres.relations
    assert {p.arrows for _, p in rel.terms} == {
        ("e0", "e0", "a1"), ("e0", "a1", "e1")}
    # truncating everything leaves no relation at all
    pres = build_family(FamilyTag("A", h=1, m0=2, m1=2, n=3))
    assert pres.relations == ()


def test_degree_one_members_survive():
    for m in (2, 3, 4, 5):
        for n in (1, m - 1):
            pres = build_family(FamilyTag("A", h=1, m0=m, m1=m, n=n))
            assert len(pres.relations) == 1
            assert pres.relations[0].degree == 1
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
        parse_family_spec("B(1,2)")
    tag = parse_family_spec("A(2,3,3,2)")
    assert tag.spec_string() == "A(2,3,3,2)"
    assert parse_family_spec("truncpoly(4)").m == 4


def test_in_classified_list_flag():
    assert FamilyTag("A", h=1, m0=3, m1=3, n=1).in_classified_list
    assert FamilyTag("A", h=1, m0=3, m1=3, n=2).in_classified_list
    assert not FamilyTag("A", h=1, m0=4, m1=4, n=2).in_classified_list
    assert not FamilyTag("A", h=1, m0=3, m1=2, n=1).in_classified_list
    assert FamilyTag("Aprime", h=2, m0=1, m1=3).in_classified_list
    assert FamilyTag("truncpoly", m=5).in_classified_list
    assert FamilyTag("unrecognized").in_classified_list is None


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
    scaled_terms = [(c * Fraction(3) * Fraction(2) ** sum(1 for x in p.arrows if x == "e1"), p)
                    for c, p in rel.terms]
    from quiverstrata.quiver import BoundQuiverPresentation, Relation

    scaled = BoundQuiverPresentation(q, base.orders,
                                     (Relation.make(scaled_terms),))
    tag = recognize_family(scaled)
    assert tag == FamilyTag("A", h=2, m0=3, m1=3, n=2)

    # renaming a1 <- a1 + a2 keeps the shape recognizable
    mixed = apply_arrow_substitution(base, "a1",
                                     [(1, q.path(["a1"])), (1, q.path(["a2"]))])
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
    assert recognize_family(pres).kind == "unrecognized"
    twisted = """
vertex 0
vertex 1
loop e0 0 order 3
loop e1 1 order 3
arrow a1 1 -> 0
relation e0^2*a1 + e0*a1*e1 + 2*a1*e1^2
"""
    # coefficients 1, 1, 2 are not geometric: not a loop rescale of the shape
    assert recognize_family(parse_presentation(twisted)).kind == "unrecognized"


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
