import contextlib
import io
import itertools
import math
import os
import re
import tempfile

import pytest
import scan_reference
import walk_reference
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from paper_checks import (build_nooverlap_presentation, nooverlap_dims, opposite,
                          split_gap_test)
from strategies import presentations

from quiverstrata import cli, strata
from quiverstrata.cli import main
from quiverstrata.families import FamilyTag, build_family, parse_family_spec
from quiverstrata.fforacle import StratumCountTable, verify_count_identity
from quiverstrata.linsys import PartPairTable
from quiverstrata.partitions import JordanAssignment, Partition, jordan_types
from quiverstrata.quiver import (Arrow, BoundQuiverPresentation, Quiver, parse_presentation,
                                serialize_presentation)
from quiverstrata.strata import (ScanCapExceeded, ambient_arrow_dim, dim_vectors_up_to,
                                 reducibility_scan, stratum_dim, stratum_rows)


def _ja(pres, *parts_per_vertex):
    return JordanAssignment.for_presentation(
        pres,
        [Partition(tuple(parts), pres.orders[i])
         for i, parts in enumerate(parts_per_vertex)],
    )


def test_stratum_dim_with_relation(a1221):
    rep = stratum_dim(PartPairTable(a1221), _ja(a1221, (2,), (2,)))
    assert rep.orbit_dims == (2, 2)
    assert rep.ambient_dim == 4
    assert rep.codim == 2
    assert rep.dim == 6
    assert rep.is_maximal


def test_stratum_dim_no_relations(aprime122):
    rep = stratum_dim(PartPairTable(aprime122), _ja(aprime122, (2,), (2,)))
    assert rep.codim == 0
    assert rep.dim == 2 + 2 + 4


def test_stratum_dim_all_ones(aprime122):
    rep = stratum_dim(PartPairTable(aprime122), _ja(aprime122, (1, 1), (1, 1)))
    assert rep.orbit_dims == (0, 0)
    assert rep.dim == rep.ambient_dim == 4
    assert not rep.is_maximal


def test_max_stratum_examples():
    for m in (2, 3):
        pres = build_family(parse_family_spec(f"A(1,{m},{m},1)"))
        ja = walk_reference.assignments_for(pres, (m, 2 * m))[0]
        rep = stratum_dim(PartPairTable(pres), ja)
        assert rep.assignment.partitions[0].parts == (m,)
        assert rep.assignment.partitions[1].parts == (m, m)
        assert rep.is_maximal

    pres = build_family(parse_family_spec("A(1,2,2,1)"))
    rep = stratum_dim(PartPairTable(pres), walk_reference.assignments_for(pres, (0, 0))[0])
    assert rep.dim == 0 and rep.assignment.dims == (0, 0)
    rep = stratum_dim(PartPairTable(pres), walk_reference.assignments_for(pres, (3, 1))[0])
    assert rep.assignment.partitions[0].parts == (2, 1)
    assert rep.assignment.partitions[1].parts == (1,)


def test_assignments_order_and_cap(a1221):
    table = PartPairTable(a1221)
    rows = stratum_rows(table, (2, 2))
    assert [row[0] for row in rows] == ["2|2", "2|1,1", "1,1|2", "1,1|1,1"]
    with pytest.raises(ScanCapExceeded):
        reducibility_scan(table, (2, 2), cap=3)
    assert stratum_rows(table, (2, 2), cap=4) == rows
    with pytest.raises(ScanCapExceeded, match="^4 Jordan assignments exceed the cap 3$"):
        stratum_rows(table, (2, 2), cap=3)


def test_scan_two_monomial_relations():
    text = """
vertex 0
vertex 1
loop e0 0 order 4
arrow x1 1 -> 0
arrow x2 1 -> 0
relation e0^1*x1
relation e0^2*x2
"""
    pres = parse_presentation(text)
    cert = reducibility_scan(PartPairTable(pres), (3, 1))
    assert cert is not None
    assert cert.witness.assignment.serialize() == "2,1|1"
    assert cert.witness.codim == 1  # a2 - a1
    assert cert.maximal.codim == 3  # a2 + 2 - a1
    assert cert.margin >= 0


def test_scan_certificate_soundness_and_decomposition():
    table = PartPairTable(build_family(parse_family_spec("A(1,4,4,2)")))
    certs = [c for dims in dim_vectors_up_to(2, 8)
             if (c := reducibility_scan(table, dims)) is not None]
    assert len(certs) > 1
    for cert in certs:
        fresh_max = stratum_dim(table, cert.maximal.assignment)
        fresh_wit = stratum_dim(table, cert.witness.assignment)
        assert fresh_max == cert.maximal
        assert fresh_wit == cert.witness
        assert not cert.witness.is_maximal
        assert cert.margin == cert.codim_gap + sum(cert.orbit_gaps)
        assert cert.margin >= 0


def test_scan_deterministic(a1221):
    table = PartPairTable(build_family(parse_family_spec("A(1,4,4,2)")))
    first = reducibility_scan(table, (4, 2))
    second = reducibility_scan(table, (4, 2))
    assert first == second
    assert reducibility_scan(PartPairTable(a1221), (2, 2)) is None


def test_certificate_text_fields():
    pres = build_family(parse_family_spec("A(1,4,4,2)"))
    cert = reducibility_scan(PartPairTable(pres), (4, 2))
    text = cert.to_text()
    assert "dimension vector: (4, 2)" in text
    assert "maximal assignment: 4|2" in text
    assert "witness assignment: 3,1|2" in text
    assert "margin: 0" in text


def test_dense_loop_pair_splitting_certificate():
    # independent two-term relation at d = (2m, 2): the codimension pair
    # (4m - 2, 4m - 4) makes splitting (2) into (1, 1) dimension-neutral
    for m in (2, 3):
        text = (f"vertex 0\nvertex 1\nloop e0 0 order {m}\nloop e1 1 order 2\n"
                "arrow a1 1 -> 0\narrow a2 1 -> 0\nrelation e0*a1 + a2*e1\n")
        pres = parse_presentation(text)
        table = PartPairTable(pres)
        maximal = stratum_dim(table, _ja(pres, (m, m), (2,)))
        witness = stratum_dim(table, _ja(pres, (m, m), (1, 1)))
        assert maximal.codim == 4 * m - 2
        assert witness.codim == 4 * m - 4
        assert witness.dim == maximal.dim
        assert reducibility_scan(table, (2 * m, 2)) is not None


def test_three_term_relation_codim_pairs():
    # eps0 a1 + a1 eps1 + a2 eps1^(p-1) on types ((m, m), (p)) versus
    # ((m, m), (p-1, 1)): 2(p(m-1) + 1) against 2((p-1)(m-1) + (m-1))
    for m0, p in ((3, 2), (3, 3), (4, 3)):
        text = (f"vertex 0\nvertex 1\nloop e0 0 order {m0}\nloop e1 1 order {p}\n"
                "arrow a1 1 -> 0\narrow a2 1 -> 0\n"
                f"relation e0*a1 + a1*e1 + a2*e1^{p - 1}\n")
        pres = parse_presentation(text)
        ja_max = JordanAssignment.for_presentation(
            pres, [Partition((m0,) * 2, m0), Partition((p,), p)])
        ja_wit = JordanAssignment.for_presentation(
            pres, [Partition((m0,) * 2, m0), Partition((p - 1, 1), p)])
        table = PartPairTable(pres)
        assert table.codim(ja_max) == 2 * (p * (m0 - 1) + 1)
        assert table.codim(ja_wit) == 2 * ((p - 1) * (m0 - 1) + (m0 - 1))


def test_split_gap_cases():
    # chain-truncation instance: gap 2, certificate exists
    pres = build_family(parse_family_spec("A(1,3,2,2)"))
    hit, gap = split_gap_test(pres, (2, 4))
    assert hit and gap == 2

    # no mixed relations: no conditions at all
    pres = build_family(parse_family_spec("Aprime(1,3,2)"))
    hit, gap = split_gap_test(pres, (2, 4))
    assert not hit and gap == 0

    # gap 1 is not enough
    pres = build_family(parse_family_spec("A(1,2,2,1)"))
    hit, gap = split_gap_test(pres, (2, 1))
    assert not hit and gap == 1


def test_split_gap_precondition():
    pres = build_family(parse_family_spec("A(1,2,2,1)"))
    with pytest.raises(ValueError):
        split_gap_test(pres, (3, 1))  # maximal (2,1) is not a single part
    with pytest.raises(ValueError):
        split_gap_test(pres, (1, 1))  # single part but p = 1


def test_nooverlap_dims_examples():
    assert nooverlap_dims(1, 1, 1, 1, 2) == (4, 4)
    u, v = nooverlap_dims(2, 1, 1, 2, 4)
    assert u == v
    with pytest.raises(ValueError):
        nooverlap_dims(1, 1, 2, 1, 4)  # n1 > n2 rejected
    with pytest.raises(ValueError):
        nooverlap_dims(1, 1, 1, 1, 4, lam=(0, 1))  # leading coefficient zero


def test_nooverlap_presentation_shape():
    pres = build_nooverlap_presentation(2, 2, 1, 2, 4)
    assert len(pres.quiver.vertices) == 3
    assert len(pres.quiver.non_loop_arrows) == 4
    assert len(pres.relations) == 2
    # second relation uses only the first hop arrow of 2 -> 1
    sources = {rel.source for rel in pres.relations}
    assert sources == {"1", "2"}


def test_nooverlap_nontrivial_lambda_vector():
    u, v = nooverlap_dims(1, 1, 2, 2, 4, lam=(1, 1, 0))
    assert u == v


def test_chain_scan_finds_middle_split_certificate():
    """The dimension tie between middle types (n2+1) and (n2, 1) is a
    margin-zero certificate at d = (1, n2+1, 1), on the 24 chains of the
    chain dimension check and one of order 3: the paper's second result
    says a minimal geometrically irreducible algebra without shortcuts has
    at most two simple modules."""
    chains = [(h, l, n1, n2, 4) for h, l in itertools.product((1, 2), repeat=2)
              for n1 in (1, 2, 3) for n2 in range(n1, 4)]
    assert len(chains) == 24
    for h, l, n1, n2, m in chains + [(2, 1, 1, 1, 3)]:
        chain = build_nooverlap_presentation(h, l, n1, n2, m)
        cert = reducibility_scan(PartPairTable(chain), (1, n2 + 1, 1))
        assert cert is not None
        assert cert.margin == 0
        mid = cert.witness.assignment.partitions[1]
        assert mid.parts == (n2, 1)


def test_dim_vectors_up_to():
    vecs = list(dim_vectors_up_to(2, 2))
    assert vecs == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(dim_vectors_up_to(2, 0)) == [(0, 0)]
    # the filtered product the direct generation replaced, order included
    for n in range(4):
        for total in range(-1, 9):
            want = [v for v in itertools.product(range(total + 1), repeat=n)
                    if sum(v) <= total]
            assert list(dim_vectors_up_to(n, total)) == want, (n, total)


def test_dim_vectors_are_counted_before_they_are_listed(monkeypatch):
    # C(total + n, n) vectors; a bound equal to the count passes, one less
    # refuses at the call, before any vector is asked for
    assert len(list(dim_vectors_up_to(3, 6))) == math.comb(9, 3) == 84
    monkeypatch.setattr(strata, "_MAX_VECTORS", 84)
    assert len(list(dim_vectors_up_to(3, 6))) == 84
    monkeypatch.setattr(strata, "_MAX_VECTORS", 83)
    with pytest.raises(ValueError, match="^84 dimension vectors with entry sum <= 6 "
                                         "exceed the bound 83$"):
        dim_vectors_up_to(3, 6)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="^5000150001 dimension vectors"):
        dim_vectors_up_to(2, 100_000)


def test_dimensions_are_bounded_before_types_are_counted(monkeypatch):
    # a bound equal to the largest dimension passes, one less refuses,
    # before count_partitions_bounded builds its table
    pres = build_family(parse_family_spec("A(1,2,2,1)"))
    monkeypatch.setattr(strata, "_MAX_DIM", 990)
    assert len(stratum_rows(PartPairTable(pres), (990, 1), cap=496)) == 496
    monkeypatch.setattr(strata, "count_partitions_bounded", None)
    with pytest.raises(ValueError, match="^dimension 991 exceeds the bound 990$"):
        stratum_rows(PartPairTable(pres), (1, 991), cap=10 ** 9)
    with pytest.raises(ValueError, match="^dimension 991 exceeds the bound 990$"):
        reducibility_scan(PartPairTable(pres), (991, 0))


def test_ambient_arrow_dim():
    pres = build_family(parse_family_spec("Aprime(3,2,2)"))
    assert ambient_arrow_dim(pres, (2, 3)) == 3 * 6
    assert ambient_arrow_dim(pres, (0, 5)) == 0


def test_parts_are_bounded_after_the_cap(monkeypatch):
    # (types at v)·d_v summed over the vertices: 496·990 + 1·1 at (990, 1);
    # a bound equal to it passes, one less refuses, and the cap comes first.
    # The scan lists (part, count) pairs, not parts, so the bound spares it
    table = PartPairTable(build_family(parse_family_spec("A(1,2,2,1)")))
    monkeypatch.setattr(strata, "_MAX_PARTS", 491041)
    assert len(stratum_rows(table, (990, 1), cap=496)) == 496
    monkeypatch.setattr(strata, "_MAX_PARTS", 491040)
    message = "the Jordan types at d = (990, 1) may hold 491041 parts, more than the bound 491040"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stratum_rows(table, (990, 1), cap=496)
    assert reducibility_scan(table, (990, 1)) is None
    with pytest.raises(ScanCapExceeded):
        stratum_rows(table, (990, 1), cap=495)


# ---------------------------------------------------------------------------
# differential gate: the lean scan against the per-assignment path it
# replaced (tests/scan_reference.py), witness for witness
# ---------------------------------------------------------------------------

# the seven families of the benchmark's scan workload, then A(2,3,3,1)
# (two arrows) and Aprime(1,2,2) (no relation)
SCAN_SPECS = [
    "A(1,3,3,2)", "A(1,4,4,1)", "A(1,4,4,3)", "A(1,5,5,4)",
    "A(1,4,4,2)", "A(1,5,5,3)", "A(1,6,6,4)",
    "A(2,3,3,1)", "Aprime(1,2,2)",
]


def _same_certificates(pres, vectors, cap=100_000):
    """The lean and the replaced scan give equal certificates, or the same
    cap refusal, on every vector, each from its own table; the number of
    certificates."""
    table, ref_table = PartPairTable(pres), PartPairTable(pres)
    found = 0
    for dims in vectors:
        try:
            want = scan_reference.reducibility_scan(ref_table, dims, cap)
        except ScanCapExceeded as exc:
            with pytest.raises(ScanCapExceeded, match=f"^{exc.count} "):
                reducibility_scan(table, dims, cap)
            continue
        got = reducibility_scan(table, dims, cap)
        assert got == want, dims
        found += got is not None
    return found


@pytest.mark.parametrize("spec", SCAN_SPECS)
def test_scan_matches_replaced_on_families(spec):
    found = _same_certificates(build_family(parse_family_spec(spec)),
                               dim_vectors_up_to(2, 9))
    assert (found > 0) == (spec in ("A(1,4,4,2)", "A(1,5,5,3)", "A(1,6,6,4)"))


def test_scan_matches_replaced_on_nooverlap_chains():
    """The 24 chains of the chain dimension check, to total 4 and at the
    vector (1, n2 + 1, 1) of their margin-zero certificate."""
    found = 0
    for h, l in itertools.product((1, 2), repeat=2):
        for n1 in (1, 2, 3):
            for n2 in range(n1, 4):
                chain = build_nooverlap_presentation(h, l, n1, n2, 4)
                found += _same_certificates(chain, [*dim_vectors_up_to(3, 4), (1, n2 + 1, 1)])
    assert found >= 24


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(presentations().filter(lambda pres: len(pres.quiver.vertices) == 3))
def test_scan_matches_replaced_on_three_vertices(pres):
    _same_certificates(pres, dim_vectors_up_to(3, 5), cap=2_000)


@pytest.mark.parametrize("spec", ["A(1,5,5,4)", "A(1,6,6,4)"])
def test_scan_ranks_what_the_replaced_scan_ranks(spec, tmp_path, monkeypatch, capsys):
    """reduce-scan ranks the same (t, s, a, b) entries as the replaced scan,
    in the same order, so the benchmark's traced system counts still
    describe the same work."""
    tables = []

    class Recorded(PartPairTable):
        def __init__(self, pres):
            super().__init__(pres)
            tables.append(self)

    path = str(tmp_path / "family.bq")
    assert main(["family", spec, "-o", path]) == 0
    monkeypatch.setattr(cli, "PartPairTable", Recorded)
    assert main(["reduce-scan", "--algebra", path, "--max-total", "9"]) == 0
    capsys.readouterr()
    [table] = tables
    ref_table = PartPairTable(build_family(parse_family_spec(spec)))
    for dims in dim_vectors_up_to(2, 9):
        scan_reference.reducibility_scan(ref_table, dims)
    assert list(table._ranks.items()) == list(ref_table._ranks.items())
    assert len(table._ranks) > 10


# ---------------------------------------------------------------------------
# differential gate: the one Jordan-assignment walk against the listing it
# replaced (tests/walk_reference.py), row for row
# ---------------------------------------------------------------------------

# three vertices, the middle one of order 1 (no loop)
THREE_VERTEX = parse_presentation("""
vertex 0
vertex 1
vertex 2
loop e0 0 order 3
loop e2 2 order 2
arrow a 1 -> 0
arrow c 1 -> 0
arrow b 2 -> 1
relation 1/2*e0*a - 2/3*e0^2*c
relation 3/5*b*e2
""")


def _printed(argv, pres):
    """What ``main(argv)`` prints, with ``pres`` as the presentation file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.bq")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_presentation(pres))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([argv[0], "--algebra", path, *argv[1:]]) == 0
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@example(THREE_VERTEX)
@given(presentations())
def test_walk_matches_the_replaced_listing(pres):
    """``strata`` text and csv and the identity rows, from the walk over
    the table's type records, equal those built from the listed
    ``assignments_for`` and one ``stratum_dim`` report per assignment, on
    one to three vertices, order-1 vertices and zero dimensions included;
    the identity check reads a count table with every other stratum
    empty, so each row's lookup and orbit counts are compared."""
    table, ref_table = PartPairTable(pres), PartPairTable(pres)
    n = len(pres.quiver.vertices)
    header = ["assignment", "orbit_dims", "N", "c", "dim", "maximal"]
    for dims in dim_vectors_up_to(n, (7, 5, 4)[n - 1]):
        want = walk_reference.stratum_rows(ref_table, dims)
        assert stratum_rows(table, dims) == want, dims
        listing = walk_reference.assignments_for(pres, dims)
        for q in (2, 3):
            counts = StratumCountTable(q, dims, {ja: k + 1 for k, ja in enumerate(listing)
                                                 if k % 2 == 0})
            assert (verify_count_identity(counts, table)
                    == walk_reference.verify_count_identity(counts, ref_table)), (dims, q)
    dims = max(dim_vectors_up_to(n, (4, 3, 2)[n - 1]), key=lambda d: (sum(d), d))
    csv_out, text_out = io.StringIO(), io.StringIO()
    rows = walk_reference.stratum_rows(ref_table, dims)
    with contextlib.redirect_stdout(csv_out):
        cli._emit_csv(header, rows)
    with contextlib.redirect_stdout(text_out):
        cli._emit_table(header, rows)
    dim_arg = ",".join(map(str, dims))
    assert _printed(["strata", "--dim", dim_arg, "--format", "csv"], pres) == csv_out.getvalue()
    text = _printed(["strata", "--dim", dim_arg], pres)
    assert text.split("\n", 2)[2] == text_out.getvalue()


# ---------------------------------------------------------------------------
# two symmetries as gates: free arrows and transpose duality
# ---------------------------------------------------------------------------

def _with_free_arrow(pres, source, target):
    """``pres`` with one more arrow ``source -> target`` that no relation reads."""
    q = pres.quiver
    quiver = Quiver(q.vertices, (*q.arrows, Arrow("free", source, target)))
    return BoundQuiverPresentation(quiver, pres.orders, pres.relations)


def _a_families(m_max, m0_le_m1=False):
    """The tags A(1,m0,m1,n) with 2 <= m0, m1 <= m_max and 1 <= n <= m0 + m1 - 2:
    past that n every relation term has a loop power at an order, so the
    relation is zero and the algebra is Aprime(1,m0,m1)."""
    return [FamilyTag("A", h=1, m0=m0, m1=m1, n=n)
            for m0, m1 in itertools.product(range(2, m_max + 1), repeat=2)
            if m0 <= m1 or not m0_le_m1 for n in range(1, m0 + m1 - 1)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(presentations().filter(lambda pres: len(pres.quiver.vertices) >= 2))
def test_strata_and_certificates_are_transpose_dual(pres):
    """Transposition carries the representations of A onto those of A^op and
    J^T is similar to J, so each stratum, types carried across, has the same
    dimension for both, on two and three vertices, and a vector has a
    certificate for A exactly when it has one for A^op, with the same
    maximal stratum."""
    table, dual = PartPairTable(pres), PartPairTable(opposite(pres))
    n = len(pres.quiver.vertices)
    for dims in dim_vectors_up_to(n, 6 if n == 2 else 4):
        for ja in walk_reference.assignments_for(pres, dims):
            assert stratum_dim(dual, ja) == stratum_dim(table, ja), ja.serialize()
        cert, cert_op = reducibility_scan(table, dims), reducibility_scan(dual, dims)
        assert (cert is None) == (cert_op is None), dims
        if cert is not None:
            assert cert_op.maximal == cert.maximal, dims


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(presentations().filter(lambda pres: len(pres.quiver.vertices) >= 2),
       st.data())
def test_free_arrow_changes_no_table_entry(pres, data):
    """An arrow that no relation reads, parallel to a related one or not,
    adds no row, so every r_ts(a, b) up to the orders stays as it was."""
    source, target = data.draw(st.lists(st.sampled_from(pres.quiver.vertices), min_size=2,
                                        max_size=2, unique=True))
    table, freed = PartPairTable(pres), PartPairTable(_with_free_arrow(pres, source, target))
    m = pres.orders
    for t, s in itertools.permutations(range(len(m)), 2):
        for a, b in itertools.product(range(1, m[t] + 1), range(1, m[s] + 1)):
            assert freed.entry(t, s, a, b) == table.entry(t, s, a, b), (t, s, a, b)


def test_free_arrow_and_transpose_keep_family_certificates():
    """A(2,m0,m1,n) adds the free arrow a2 to A(1,m0,m1,n): both have a
    certificate at the same vectors, with the same assignments and
    codimensions, and N and both dimensions larger by d0*d1.  A(1,m1,m0,n)
    is A(1,m0,m1,n)^op with the vertices swapped: it has a certificate at
    (d1, d0) exactly when A(1,m0,m1,n) has one at (d0, d1)."""
    certified = 0
    for tag in _a_families(4):
        one, two, swapped = (PartPairTable(build_family(t)) for t in (
            tag, FamilyTag("A", h=2, m0=tag.m0, m1=tag.m1, n=tag.n),
            FamilyTag("A", h=1, m0=tag.m1, m1=tag.m0, n=tag.n)))
        for d0, d1 in dim_vectors_up_to(2, 10):
            cert, cert2 = reducibility_scan(one, (d0, d1)), reducibility_scan(two, (d0, d1))
            assert (cert is None) == (cert2 is None) \
                == (reducibility_scan(swapped, (d1, d0)) is None), (tag, d0, d1)
            if cert is None:
                continue
            certified += 1
            for rep, rep2 in ((cert.maximal, cert2.maximal), (cert.witness, cert2.witness)):
                assert rep2.assignment.serialize() == rep.assignment.serialize()
                assert rep2.codim == rep.codim
                assert rep2.ambient_dim == rep.ambient_dim + d0 * d1
                assert rep2.dim == rep.dim + d0 * d1
    assert certified > 100


def _first_certified(tag):
    """The first vector, in ``dim_vectors_up_to`` order, at which the scan
    certifies the off-list family A(h,m0,m1,n) with m0 <= m1, by the closed
    form observed on the gates' ranges (not a theorem of the paper)."""
    m0, m1, n = tag.m0, tag.m1, tag.n
    if n == 1:
        return m0 + 1, m0 + 1
    if n <= m1 - 2:
        return 2, n + 2
    if n == m1 - 1:
        return m0 + 1, m1
    return n - m1 + 2, 2 * m1


def _predicted_strata(table, tag, dims):
    """The maximal assignment of ``dims`` and the witness observed for the
    off-list family A(h,m0,m1,n), m0 <= m1, on the gates' ranges (not a
    theorem of the paper): the maximal assignment with the second Jordan
    type in canonical order at vertex 1 when n < m1, at vertex 0 when
    n >= m1."""
    types = [list(jordan_types(d, m)) for d, m in zip(dims, table.pres.orders)]
    at = 1 if tag.n < tag.m1 else 0
    maximal = [t[0] for t in types]
    witness = [t[1] if v == at else t[0] for v, t in enumerate(types)]
    return [JordanAssignment.for_presentation(table.pres, map(
        Partition.from_pairs, pairs, table.pres.orders)) for pairs in (maximal, witness)]


def _classification_gate(m_max, total):
    """Each family A(1,m0,m1,n) with 2 <= m0 <= m1 <= m_max, scanned vector
    by vector to the first certificate: (family, first certified vector or
    None) per family, and (family, first, want) where the first vector is
    not the one wanted: None on the classified list, ``_first_certified``
    off it, or where the first certificate's witness is not the one of
    ``_predicted_strata``."""
    found, wrong = [], []
    for tag in _a_families(m_max, m0_le_m1=True):
        table = PartPairTable(build_family(tag))
        first, cert = next(((dims, cert) for dims in dim_vectors_up_to(2, total)
                            if (cert := reducibility_scan(table, dims, cap=10 ** 6))),
                           (None, None))
        found.append((tag.spec_string(), first))
        want = None if tag.in_classified_list else _first_certified(tag)
        if first != want:
            wrong.append((tag.spec_string(), first, want))
        elif cert is not None:
            witness = _predicted_strata(table, tag, first)[1]
            if cert.witness.assignment != witness:
                wrong.append((tag.spec_string(), cert.witness.assignment.serialize(),
                              witness.serialize()))
    return found, wrong


def test_classification_gate_to_total_16():
    """The paper's two-vertex classification: A(h,m0,m1,n) gets a
    certificate by total 16 if and only if it is off the classified list,
    for 2 <= m0 <= m1 <= 5 and every n that gives a nonzero relation, and
    each of the 43 off-list families first at the vector of
    ``_first_certified``, with the witness of ``_predicted_strata``.

    Scanning h = 1 and m0 <= m1 only rests on two gates above: the free
    arrows a2..ah change no certificate
    (``test_free_arrow_and_transpose_keep_family_certificates``,
    ``test_free_arrow_changes_no_table_entry``), and A(h,m1,m0,n) is the
    opposite of A(h,m0,m1,n), which has the same certificates
    (``test_strata_and_certificates_are_transpose_dual``)."""
    found, wrong = _classification_gate(5, 16)
    assert len(found) == 50 and wrong == []
    assert sum(first is not None for _, first in found) == 43


@pytest.mark.slow
def test_classification_gate_to_total_24():
    """As ``test_classification_gate_to_total_16`` for m1 <= 8 at total 24:
    224 families, each off-list one first certified at the vector of
    ``_first_certified`` with the witness of ``_predicted_strata``; the latest first certificate is A(1,8,8,14) at
    (8, 16)."""
    found, wrong = _classification_gate(8, 24)
    assert len(found) == 224 and wrong == []
    latest = max((first for _, first in found if first is not None), key=sum)
    assert ("A(1,8,8,14)", (8, 16)) in found and sum(latest) == 24


def _closed_form_margins(m_max):
    """The margin of the predicted witness over the maximal stratum at
    ``_first_certified``, from two ``stratum_dim`` calls, for each off-list
    family A(1,m0,m1,n) with 2 <= m0 <= m1 <= m_max: no scan runs."""
    margins = {}
    for tag in _a_families(m_max, m0_le_m1=True):
        if tag.in_classified_list:
            continue
        table = PartPairTable(build_family(tag))
        maximal, witness = _predicted_strata(table, tag, _first_certified(tag))
        margins[tag.spec_string()] = (stratum_dim(table, witness).dim
                                      - stratum_dim(table, maximal).dim)
    return margins


def test_closed_form_certificates_to_m1_12():
    """Every off-list A(1,m0,m1,n) with 2 <= m0 <= m1 <= 12 has a
    certificate of margin 0 at ``_first_certified``, the predicted witness
    against the maximal stratum: the "only if" half of the two-vertex
    classification checked without a scan.  Families with m0 > m1 are the
    opposites of these, with the same certificates
    (``test_strata_and_certificates_are_transpose_dual``,
    ``test_free_arrow_and_transpose_keep_family_certificates``)."""
    margins = _closed_form_margins(12)
    assert len(margins) == 771 and set(margins.values()) == {0}


@pytest.mark.slow
def test_closed_form_certificates_to_m1_20():
    """As ``test_closed_form_certificates_to_m1_12`` for m1 <= 20: 3,763
    families, m0 > m1 covered by the same transpose-duality gates."""
    margins = _closed_form_margins(20)
    assert len(margins) == 3763 and set(margins.values()) == {0}
