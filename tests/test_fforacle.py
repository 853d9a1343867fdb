import itertools

import numpy as np
import pytest

from oracle_reference import reference_enumerate_and_classify
from quiverstrata.families import build_family, parse_family_spec
from quiverstrata.fforacle import (EnumerationCapExceeded, StratumCountTable,
                                   dimension_estimate, enumerate_and_classify,
                                   identity_csv, verify_count_identity)
from quiverstrata.linsys import BadPrimeError
from quiverstrata.partitions import JordanAssignment, Partition
from quiverstrata.quiver import parse_presentation


def _counts_by_key(table):
    return {ja.serialize(): n for ja, n in table.counts.items()}


def test_single_vertex_counts():
    pres = build_family(parse_family_spec("truncpoly(2)"))
    table = enumerate_and_classify(pres, (2,), 2)
    assert _counts_by_key(table) == {"2": 3, "1,1": 1}
    assert table.total == 4


def test_empty_dimension_vector(a1221):
    table = enumerate_and_classify(a1221, (0, 0), 2)
    assert table.total == 1
    (ja, count), = table.counts.items()
    assert count == 1 and ja.dims == (0, 0)
    assert all(p.parts == () for p in ja.partitions)


def test_scalar_case_total(a1221):
    # scalars force both loops to zero; the relation then vanishes
    table = enumerate_and_classify(a1221, (1, 1), 2)
    assert table.total == 2
    assert _counts_by_key(table) == {"1|1": 2}


def test_counts_match_hand_enumeration(a1221):
    table = enumerate_and_classify(a1221, (2, 2), 2)
    assert _counts_by_key(table) == {
        "2|2": 36, "2|1,1": 12, "1,1|2": 12, "1,1|1,1": 16}
    assert table.total == 76


def test_count_identity_rows(a1221, aprime122):
    for pres in (a1221, aprime122):
        for dims in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for q in (2, 3):
                table = enumerate_and_classify(pres, dims, q)
                rows = verify_count_identity(table, pres)
                assert all(r.ok for r in rows), (dims, q)
                assert sum(r.count for r in rows) == table.total


def test_no_relation_identity_is_pure_power(aprime122):
    table = enumerate_and_classify(aprime122, (1, 1), 3)
    rows = verify_count_identity(table, aprime122)
    (row,) = rows
    assert row.predicted == 3  # q^N with N = 1, loops forced to zero
    assert row.ok


def test_classification_invariant_under_conjugation():
    rng = np.random.default_rng(11)
    q = 3
    from quiverstrata._kernels import enumerate_nilpotent, rank_mod_p
    from quiverstrata.partitions import partition_from_ranks

    def jordan_type(X):
        d = X.shape[0]
        ranks = []
        P = X.copy() % q
        for _ in range(1, d):
            ranks.append(rank_mod_p(P, q))
            P = P @ X % q
        return partition_from_ranks(d, ranks, 3).parts

    mats, _ = enumerate_nilpotent(3, 3, q)
    for X in mats[rng.choice(len(mats), size=20, replace=False)]:
        while True:
            g = rng.integers(0, q, size=(3, 3))
            det = int(round(np.linalg.det(g.astype(float))))
            if det % q:
                break
        adj = np.round(np.linalg.inv(g.astype(float)) * det).astype(np.int64)
        det_inv = pow(det % q, q - 2, q)
        conj = (g @ X @ (adj * det_inv)) % q
        assert (np.linalg.matrix_power(conj, 3) % q == 0).all()
        assert jordan_type(conj) == jordan_type(X)


def test_enumeration_caps():
    pres = build_family(parse_family_spec("Aprime(1,2,2)"))
    with pytest.raises(EnumerationCapExceeded):
        enumerate_and_classify(pres, (2, 2), 3, max_points=100)
    with pytest.raises(ValueError):
        enumerate_and_classify(pres, (1, 1), 4)


def test_bad_prime_coefficient():
    text = """
vertex 0
vertex 1
loop e0 0 order 2
arrow a1 1 -> 0
relation 1/2*e0*a1
"""
    pres = parse_presentation(text)
    with pytest.raises(BadPrimeError):
        enumerate_and_classify(pres, (2, 1), 2)
    table = enumerate_and_classify(pres, (2, 1), 3)
    assert table.total > 0


def test_dimension_estimate_examples(a1221):
    pres = build_family(parse_family_spec("truncpoly(2)"))
    ja2 = JordanAssignment(("0",), (Partition((2,), 2),))
    ja11 = JordanAssignment(("0",), (Partition((1, 1), 2),))

    # exact powers of an affine space of dimension 3
    tables = [StratumCountTable(q, (3,), {ja2: q ** 3}) for q in (2, 3, 5)]
    rows = dimension_estimate(tables)
    assert rows[0].estimate == 3 and rows[0].consistent

    # a single nilpotent orbit of type (2): counts q^2 - 1
    tables = [StratumCountTable(q, (2,), {ja2: q * q - 1}) for q in (2, 3)]
    rows = dimension_estimate(tables)
    assert rows[0].estimate == 2 and rows[0].consistent

    # zero-count stratum reports no estimate
    tables = [StratumCountTable(q, (2,), {ja2: q * q - 1, ja11: 0}) for q in (2, 3)]
    rows = dimension_estimate(tables)
    by_key = {r.assignment.serialize(): r for r in rows}
    assert by_key["1,1"].estimate is None

    with pytest.raises(ValueError):
        dimension_estimate([tables[0], tables[0]])


def test_dimension_estimate_tracks_stratum_dim(a1221):
    from quiverstrata.strata import stratum_dim

    tables = [enumerate_and_classify(a1221, (2, 2), q) for q in (2, 3)]
    rows = dimension_estimate(tables)
    for row in rows:
        want = stratum_dim(a1221, row.assignment).dim
        assert row.estimate == want


def test_random_presentations_match_same_field_prediction():
    """Exhaustive counts against q^(N - rank over F_q) on random inputs.

    Using the rank over the same field removes the bad-prime caveat, so
    the identity must hold for every stratum of every presentation; this
    cross-validates the enumeration kernel against the linear engine on
    shapes beyond the named families.
    """
    import random

    from quiverstrata.linsys import assemble_system, rank_mod
    from quiverstrata.partitions import orbit_count
    from quiverstrata.quiver import (Arrow, BoundQuiverPresentation, Quiver,
                                     Relation)
    from quiverstrata.strata import ambient_arrow_dim, assignments_for

    rng = random.Random(42)
    checked = 0
    for _ in range(25):
        h = rng.randint(1, 2)
        m0, m1 = rng.randint(1, 3), rng.randint(1, 3)
        arrows = []
        if m0 >= 2:
            arrows.append(Arrow("e0", "0", "0"))
        if m1 >= 2:
            arrows.append(Arrow("e1", "1", "1"))
        names = [f"a{i + 1}" for i in range(h)]
        arrows += [Arrow(n, "1", "0") for n in names]
        quiver = Quiver(("0", "1"), tuple(arrows))
        rels = []
        for _ in range(rng.randint(0, 2)):
            terms = []
            for _ in range(rng.randint(1, 3)):
                a = rng.randint(0, m0 - 1)
                b = rng.randint(0, m1 - 1)
                if a + b == 0:
                    if m0 >= 2:
                        a = 1
                    elif m1 >= 2:
                        b = 1
                    else:
                        continue
                word = ["e0"] * a + [rng.choice(names)] + ["e1"] * b
                terms.append((rng.choice([1, -1]), quiver.path(word)))
            if terms:
                rel = Relation.make(terms, source="1", target="0")
                if not rel.is_zero:
                    rels.append(rel)
        pres = BoundQuiverPresentation(quiver, (m0, m1), tuple(rels))
        dims = (rng.randint(0, 2), rng.randint(0, 2))
        n = ambient_arrow_dim(pres, dims)
        for q in (2, 3):
            table = enumerate_and_classify(pres, dims, q, max_points=600_000)
            for ja in assignments_for(pres, dims):
                c_q = rank_mod(assemble_system(pres, ja), q)
                pred = q ** (n - c_q)
                for part in ja.partitions:
                    pred *= orbit_count(part, q)
                assert table.counts.get(ja, 0) == pred, (dims, q, ja.serialize())
                checked += 1
    assert checked > 50


def test_csv_export(a1221):
    table = enumerate_and_classify(a1221, (2, 2), 2)
    text = identity_csv(table.q, verify_count_identity(table, a1221))
    lines = text.strip().splitlines()
    assert lines[0] == "assignment,count,q,predicted,pass"
    assert len(lines) == 5
    assert all(line.endswith("pass") for line in lines[1:])
    assert any(line.startswith("2|2,36,2,36") for line in lines[1:])


THREE_VERTEX = """
vertex 0
vertex 1
vertex 2
loop e0 0 order 2
loop e2 2 order 2
arrow a 1 -> 0
arrow c 1 -> 0
arrow b 2 -> 1
relation 1/2*a*b + 2/3*c*b*e2 - e0*a*b
"""

# rescaling the arrows cannot absorb these coefficients: at dimension
# (1, 1, 1) the count depends on whether (1/2)(2/3) - 2 vanishes mod q
FOUR_TERM = """
vertex 0
vertex 1
vertex 2
arrow a 1 -> 0
arrow c 1 -> 0
arrow b 2 -> 1
arrow d 2 -> 1
relation 1/2*a*b + 2/3*c*d + a*d + 2*c*b
"""


SLOW_DIMS = ((1, 3), (2, 2), (3, 1))  # A(2,3,3,1) at q = 3, 531,441 points each


def _dim_vectors(n, total):
    return [d for d in itertools.product(range(total + 1), repeat=n)
            if sum(d) <= total]


def _differential_cases():
    # the reference tallies each point in Python and spends about 20 s on
    # each of these three; they run in the slow test below
    slow = {("A(2,3,3,1)", dims, 3) for dims in SLOW_DIMS}
    for spec in ("A(1,2,2,1)", "Aprime(1,2,2)", "A(2,3,3,1)"):
        pres = build_family(parse_family_spec(spec))
        for dims in _dim_vectors(2, 4):
            for q in (2, 3):
                if (spec, dims, q) not in slow:
                    yield spec, pres, dims, q
    pres = build_family(parse_family_spec("truncpoly(3)"))
    for d in range(4):
        for q in (2, 3):
            yield "truncpoly(3)", pres, (d,), q
    pres = parse_presentation(THREE_VERTEX)
    for dims in itertools.product(range(3), repeat=3):
        for q in (2, 3):
            if sum(dims) <= 4:
                yield "three-vertex", pres, dims, q
    for dims in ((1, 1, 1), (1, 1, 2), (1, 0, 1), (0, 1, 1)):
        yield "three-vertex", pres, dims, 5
    pres = parse_presentation(FOUR_TERM)
    for q in (2, 3, 5, 7):
        for dims in ((1, 1, 1), (1, 0, 1), (0, 1, 1)):
            yield "four-term", pres, dims, q
    pres = parse_presentation("vertex 0\n")
    for d in range(4):
        for q in (2, 3):
            yield "arrow-free", pres, (d,), q


def _outcome(fn, pres, dims, q):
    try:
        table = fn(pres, dims, q)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return table.q, table.dims, table.counts


def test_tally_matches_reference_odometer():
    """The chunked numpy tally against the per-point loop it replaced."""
    bad_prime = set()
    for name, pres, dims, q in _differential_cases():
        want = _outcome(reference_enumerate_and_classify, pres, dims, q)
        got = _outcome(enumerate_and_classify, pres, dims, q)
        assert got == want, (name, dims, q)
        if want[0] is BadPrimeError:
            bad_prime.add((name, q))
    assert bad_prime == {(name, q) for name in ("three-vertex", "four-term")
                         for q in (2, 3)}


@pytest.mark.slow
@pytest.mark.parametrize("dims", SLOW_DIMS)
def test_tally_matches_reference_odometer_slow(dims):
    pres = build_family(parse_family_spec("A(2,3,3,1)"))
    want = _outcome(reference_enumerate_and_classify, pres, dims, 3)
    assert _outcome(enumerate_and_classify, pres, dims, 3) == want
