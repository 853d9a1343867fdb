"""Acceptance suite: one test per criterion, exact values, pinned budgets.

Each test prints a single PASS line on success so a verbose run reads as a
checklist; every numeric comparison is exact integer equality.
"""
import time

import formulas_reference
from block_pairs import block_systems
from jordan_reference import commutant_dim_oracle
from paper_checks import nooverlap_dims
from rank_reference import rank_mod
from quiverstrata.families import FamilyTag, build_family
from quiverstrata.fforacle import enumerate_and_classify, verify_count_identity
from quiverstrata.formulas import formula_sweep, single_case
from quiverstrata.linsys import PartPairTable, rank_exact
from quiverstrata.partitions import Partition, end_dim, orbit_dim
from quiverstrata.quiver import parse_presentation
from quiverstrata.strata import dim_vectors_up_to, reducibility_scan
from walk_reference import partitions_bounded


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_formula_suite():
    start = time.monotonic()
    rows = formula_sweep(p_max=6)
    assert rows
    for row in rows:
        case = formulas_reference.FormulaCase(*row[:6])
        pres, ja, expected = formulas_reference.build_case(case)
        [cs] = block_systems(pres, ja)  # single parts: one block pair
        computed = rank_exact(cs)
        assert computed == expected, case
        assert row == single_case(*row[:6]) and row[6:] == (expected, computed), case
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("1 formula suite", f"{len(rows)} cases exact, {elapsed:.1f}s")


def test_criterion_2_orbit_gap():
    for p in range(2, 9):
        gap = orbit_dim(Partition((p,), p)) - orbit_dim(Partition((p - 1, 1), p))
        assert gap == 2
    _report("2 orbit gap", "p = 2..8")


def test_criterion_3a_two_monomial_relations():
    checked = 0
    for a1 in range(1, 4):
        for a2 in range(a1, 4):
            text = (
                "vertex 0\nvertex 1\nloop e0 0 order 4\n"
                "arrow x1 1 -> 0\narrow x2 1 -> 0\n"
                f"relation e0^{a1}*x1\nrelation e0^{a2}*x2\n"
            )
            pres = parse_presentation(text)
            cert = reducibility_scan(PartPairTable(pres), (a2 + 1, 1))
            assert cert is not None, (a1, a2)
            assert cert.witness.assignment.partitions[0].parts == (a2, 1)
            assert cert.witness.assignment.partitions[1].parts == (1,)
            assert cert.witness.codim == a2 - a1
            assert cert.maximal.codim >= a2 + 2 - a1
            checked += 1
    _report("3a two monomial relations", f"{checked} (a1, a2) pairs")


def test_criterion_3b_chain_relation_certificates():
    for n in (2, 3):
        m = n + 2  # smallest order with m > n + 1
        pres = build_family(FamilyTag("A", h=1, m0=m, m1=m, n=n))
        cert = reducibility_scan(PartPairTable(pres), (n + 2, 2))
        assert cert is not None
        assert cert.maximal.codim == 4
        assert cert.witness.codim == 2
        assert cert.witness.assignment.partitions[0].parts == (n + 1, 1)
    _report("3b chain relation at (n+2, 2)", "n in {2, 3}, c 4 vs 2")


def test_criterion_3c_unequal_orders_certificate():
    n, m0, m1 = 2, 3, 2
    pres = build_family(FamilyTag("A", h=1, m0=m0, m1=m1, n=n))
    cert = reducibility_scan(PartPairTable(pres), (m0 - m1 + 1, 2 * m1))
    assert cert is not None
    assert cert.maximal.codim == 2
    assert cert.witness.codim == 0
    _report("3c unequal orders at (m0-m1+1, 2m1)", "c 2 vs 0")


def test_criterion_3d_two_term_relation_certificate():
    m0, m1 = 3, 2
    pres = build_family(FamilyTag("A", h=1, m0=m0, m1=m1, n=1))
    cert = reducibility_scan(PartPairTable(pres), (m0, 2 * m1))
    assert cert is not None
    assert cert.maximal.codim == 2 * m0 * m1 - 2 * m1
    assert cert.witness.codim == 2 * m0 * m1 - 2 * m1 - 2
    _report("3d two-term relation at (m0, 2m1)", "c 8 vs 6")


def test_criterion_4_no_certificate_regression():
    start = time.monotonic()
    specs = []
    for m in (2, 3, 4):
        specs.append(FamilyTag("A", h=1, m0=m, m1=m, n=1))
        if m >= 3:  # n = m - 1 coincides with n = 1 when m = 2
            specs.append(FamilyTag("A", h=1, m0=m, m1=m, n=m - 1))
    for h in (0, 1, 2):
        for m0 in (1, 2, 3):
            for m1 in (1, 2, 3):
                specs.append(FamilyTag("Aprime", h=h, m0=m0, m1=m1))
    scans = 0
    for tag in specs:
        table = PartPairTable(build_family(tag))
        for dims in dim_vectors_up_to(2, 6):
            cert = reducibility_scan(table, dims)
            assert cert is None, (tag.spec_string(), dims, cert and cert.to_text())
            scans += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("4 no-certificate regression",
            f"{len(specs)} algebras, {scans} scans, {elapsed:.1f}s")


def test_criterion_5_oracle_identity(a1221, aprime122):
    start = time.monotonic()
    strata_checked = 0
    for pres in (a1221, aprime122):
        codims = PartPairTable(pres)
        for dims in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for q in (2, 3):
                table = enumerate_and_classify(pres, dims, q)
                rows = verify_count_identity(table, codims)
                for row in rows:
                    assert row.ok, (dims, q, row.assignment.serialize())
                assert sum(r.count for r in rows) == table.total
                strata_checked += len(rows)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("5 oracle identity", f"{strata_checked} strata, {elapsed:.1f}s")


def test_criterion_6_chain_dimension_equality():
    checked = 0
    for h in (1, 2):
        for l in (1, 2):
            for n1 in (1, 2, 3):
                for n2 in range(n1, 4):
                    u, v = nooverlap_dims(h, l, n1, n2, 4, lam=(1,))
                    assert u == v, (h, l, n1, n2)
                    checked += 1
    _report("6 chain dimension equality", f"{checked} parameter tuples")


def test_criterion_7_cross_field_rank_stability():
    mismatches = 0
    total = 0
    for case in formulas_reference.formula_cases(p_max=6):
        pres, ja, _ = formulas_reference.build_case(case)
        [cs] = block_systems(pres, ja)  # single parts: one block pair
        mod = [rank_mod(cs, prime) for prime in (101, 997)]
        r = rank_exact(cs)  # last: ranking spends the rows
        total += len(mod)
        mismatches += sum(m != r for m in mod)
    assert mismatches == 0
    _report("7 cross-field rank stability", f"{total} modular ranks")


def test_criterion_8_commutant_oracle():
    checked = 0
    for d in range(0, 9):
        for p in partitions_bounded(d, max(d, 1)):
            assert end_dim(p) == commutant_dim_oracle(p), p
            checked += 1
    _report("8 commutant oracle", f"{checked} partitions of weight <= 8")
