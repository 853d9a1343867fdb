import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_reference
from nilpotent_reference import REFERENCE_CASES
from oracle_reference import reference_enumerate_and_classify
from paper_checks import opposite
from strategies import presentations
from quiverstrata import _kernels, fforacle
from quiverstrata.families import build_family, parse_family_spec
from quiverstrata.fforacle import (EnumerationCapExceeded, enumerate_and_classify,
                                   verify_count_identity)
from quiverstrata.fforacle import BadPrimeError
from quiverstrata.linsys import PartPairTable
from quiverstrata.partitions import jordan_types
from quiverstrata.quiver import PresentationError, parse_presentation
from quiverstrata.strata import dim_vectors_up_to


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
        codims = PartPairTable(pres)
        for dims in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for q in (2, 3):
                table = enumerate_and_classify(pres, dims, q)
                rows = verify_count_identity(table, codims)
                assert all(r.ok for r in rows), (dims, q)
                assert sum(r.count for r in rows) == table.total


def test_no_relation_identity_is_pure_power(aprime122):
    table = enumerate_and_classify(aprime122, (1, 1), 3)
    rows = verify_count_identity(table, PartPairTable(aprime122))
    (row,) = rows
    assert row.predicted == 3  # q^N with N = 1, loops forced to zero
    assert row.ok


@pytest.mark.parametrize("d,m,q", REFERENCE_CASES)
def test_type_match_matches_reference(d, m, q):
    """Matching rank codes gives every loop candidate the type index that
    ``np.unique`` plus ``partition_from_ranks`` gave it, and doctored
    rows raise the same ``ValueError`` in both."""
    _, ranks = _kernels.enumerate_nilpotent(d, m, q)
    types = list(jordan_types(d, m))
    got = fforacle._type_indices(ranks, d, types)
    assert got.dtype == np.int64
    assert got.tolist() == oracle_reference.type_indices(ranks, d, m, types).tolist()
    # rank(X) = d, or rank(X^2) = rank(X) > 0: no nilpotent type has either
    k = ranks.shape[1]
    rows = [[d] + [0] * (k - 1)] if k else []
    if k > 1:
        rows.append([1] * k)
    for row in rows:
        bad = ranks.copy()
        bad[len(bad) // 2] = row
        with pytest.raises(ValueError, match="not that of a nilpotent matrix"):
            fforacle._type_indices(bad, d, types)
        with pytest.raises(ValueError, match="not that of a nilpotent matrix"):
            oracle_reference.type_indices(bad, d, m, types)


def test_classification_invariant_under_conjugation():
    rng = np.random.default_rng(11)
    q = 3
    from quiverstrata._kernels import enumerate_nilpotent
    from jordan_reference import partition_from_ranks
    from rank_reference import rank_mod_p

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


def test_oracle_calls_no_rank_routine(monkeypatch):
    """The oracle stays independent ground truth: with every exact rank
    routine made to raise, its tables are those of an unpatched run."""
    import sys

    from quiverstrata import _kernels, linsys

    cases = [(build_family(parse_family_spec("A(2,3,3,1)")), (2, 2), 2),
             (build_family(parse_family_spec("truncpoly(3)")), (3,), 3)]
    want = [_counts_by_key(enumerate_and_classify(*case)) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a rank routine")

    originals = {linsys.rank_exact, _kernels.exact_rank_int}
    for name, module in list(sys.modules.items()):
        if name == "quiverstrata" or name.startswith("quiverstrata."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError, match="rank routine"):
        linsys.rank_exact(None)
    got = [_counts_by_key(enumerate_and_classify(*case)) for case in cases]
    assert got == want


def test_enumeration_caps():
    pres = build_family(parse_family_spec("Aprime(1,2,2)"))
    with pytest.raises(EnumerationCapExceeded):
        enumerate_and_classify(pres, (2, 2), 3, max_points=100)
    with pytest.raises(ValueError):
        enumerate_and_classify(pres, (1, 1), 4)


def test_per_arrow_cap_compares_exponents():
    """The cap admits q^e exactly up to itself; a refused count prints in
    full up to 10,000 bits (e * bit length of q) and as q^e past them."""
    pres = parse_presentation("vertex 0\nvertex 1\narrow a 1 -> 0\n")
    table = enumerate_and_classify(pres, (2, 2), 3, max_points=81)
    assert table.total == 81
    for dims, q, count in [((2, 2), 3, "81"), ((1, 5000), 2, str(2 ** 5000)),
                           ((1, 5001), 2, "2^5001"), ((1, 2500), 3, str(3 ** 2500)),
                           ((50, 101), 3, "3^5050")]:
        with pytest.raises(EnumerationCapExceeded) as exc:
            enumerate_and_classify(pres, dims, q, max_points=80)
        assert str(exc.value) == f"arrow 'a' needs {count} points, cap is 80", dims


def test_group_order_bits_are_bounded_at_every_vertex(monkeypatch):
    """|GL_d(F_q)| has about d * d * q.bit_length() bits; a vertex past the
    bound is refused before anything is enumerated, one at it is counted."""
    monkeypatch.setattr(fforacle, "_MAX_GL_BITS", 200)
    pres = parse_presentation("vertex 0\nvertex 1\narrow a 1 -> 0\n")
    assert enumerate_and_classify(pres, (0, 10), 3).total == 1
    assert enumerate_and_classify(pres, (10, 0), 2).total == 1
    monkeypatch.setattr(fforacle, "count_partitions_bounded", None)  # nothing is counted
    for dims, q, vertex in (((0, 10), 5, "1"), ((11, 0), 2, "0")):
        with pytest.raises(ValueError, match=rf"^\|GL_{max(dims)}\(F_{q}\)\| at vertex "
                                             rf"'{vertex}' has about \d+ bits, more than "
                                             r"the bound 200$"):
            enumerate_and_classify(pres, dims, q)


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


def test_random_presentations_match_same_field_prediction():
    """Exhaustive counts against q^(N - rank over F_q) on random inputs.

    Using the rank over the same field removes the bad-prime caveat, so
    the identity must hold for every stratum of every presentation; this
    cross-validates the enumeration kernel against the linear engine on
    shapes beyond the named families.
    """
    import random

    from block_pairs import block_systems
    from path_reference import path_of
    from rank_reference import rank_mod
    from quiverstrata.partitions import orbit_count
    from quiverstrata.quiver import (Arrow, BoundQuiverPresentation, Quiver,
                                     Relation)
    from quiverstrata.strata import ambient_arrow_dim
    from walk_reference import assignments_for

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
                terms.append((rng.choice([1, -1]), path_of(word)))
            if terms:
                rel = Relation.make(quiver, terms, source="1", target="0")
                if not rel.is_zero:
                    rels.append(rel)
        pres = BoundQuiverPresentation(quiver, (m0, m1), tuple(rels))
        dims = (rng.randint(0, 2), rng.randint(0, 2))
        n = ambient_arrow_dim(pres, dims)
        for q in (2, 3):
            table = enumerate_and_classify(pres, dims, q, max_points=600_000)
            for ja in assignments_for(pres, dims):
                c_q = sum(rank_mod(cs, q) for cs in block_systems(pres, ja))
                pred = q ** (n - c_q)
                for part in ja.partitions:
                    pred *= orbit_count(part, q)
                assert table.counts.get(ja, 0) == pred, (dims, q, ja.serialize())
                checked += 1
    assert checked > 50


# degree-2 terms, which the presentation refuses
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

# relations on two vertex pairs; at dimension 1 at vertex 0 every term of
# the first relation vanishes, and a and c go unread
THREE_VERTEX_LINEAR = """
vertex 0
vertex 1
vertex 2
loop e0 0 order 2
loop e2 2 order 2
arrow a 1 -> 0
arrow c 1 -> 0
arrow b 2 -> 1
relation 1/2*e0*a - 2/3*e0*c
relation 3/5*b*e2
"""

# four degree-1 terms with coefficients no rescaling of the arrows absorbs;
# the e0^2 term vanishes below dimension 3 at vertex 0
FOUR_TERM_LINEAR = """
vertex 0
vertex 1
loop e0 0 order 3
loop e1 1 order 2
arrow a 1 -> 0
arrow c 1 -> 0
relation 1/2*e0^2*a + 2/3*c*e1 - e0*c + 2*a*e1
"""


# no relation reads e1, so the tally folds its Jordan types in by histogram
UNREAD_LOOP = """
vertex 0
vertex 1
loop e0 0 order 3
loop e1 1 order 3
arrow a1 1 -> 0
relation e0*a1
"""


SLOW_DIMS = ((1, 3), (2, 2), (3, 1))  # A(2,3,3,1) at q = 3, 531,441 points each

# the reference's counts of FOUR_TERM_LINEAR at q = 7, by assignment; it
# takes seconds on each, so tier-1 checks the tally against these and the
# slow test checks them against the reference
FOUR_TERM_Q7 = {(2, 1): {"2|1": 16464, "1,1|1": 2401},
                (1, 2): {"1|2": 16464, "1|1,1": 2401}}


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
    pres = parse_presentation(UNREAD_LOOP)
    for dims in _dim_vectors(2, 4):
        for q in (2, 3):
            yield "unread-loop", pres, dims, q
    pres = parse_presentation(THREE_VERTEX_LINEAR)
    for dims in itertools.product(range(3), repeat=3):
        for q in (2, 3):
            if sum(dims) <= 4:
                yield "three-vertex", pres, dims, q
    for dims in ((1, 1, 1), (2, 1, 2), (1, 0, 1), (0, 1, 1)):
        yield "three-vertex", pres, dims, 5
    pres = parse_presentation(FOUR_TERM_LINEAR)
    for q in (2, 3, 5, 7):
        for dims in ((1, 1), (2, 1), (3, 1), (1, 2), (0, 1)):
            if q != 7 or dims not in FOUR_TERM_Q7:
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
                         for q in (2, 3)} | {("three-vertex", 5)}


def _serialized(table):
    return table.q, table.dims, {ja.serialize(): c for ja, c in table.counts.items()}


@pytest.mark.parametrize("dims", FOUR_TERM_Q7)
def test_tally_matches_recorded_reference_counts(dims):
    """The four-term cases at q = 7 that the reference takes seconds on,
    against its counts recorded in ``FOUR_TERM_Q7``."""
    table = enumerate_and_classify(parse_presentation(FOUR_TERM_LINEAR), dims, 7)
    assert _serialized(table) == (7, dims, FOUR_TERM_Q7[dims])


@pytest.mark.slow
@pytest.mark.parametrize("dims", FOUR_TERM_Q7)
def test_recorded_reference_counts_match_reference(dims):
    table = reference_enumerate_and_classify(parse_presentation(FOUR_TERM_LINEAR), dims, 7)
    assert _serialized(table) == (7, dims, FOUR_TERM_Q7[dims])


@pytest.mark.parametrize("text, line, path", [(THREE_VERTEX, 10, "a*b"),
                                              (FOUR_TERM, 9, "a*b")],
                         ids=["three-vertex", "four-term"])
def test_degree_two_terms_are_refused_when_built(text, line, path):
    """The degree-2 presentations the tally once counted are refused at
    their relation's line, before any count."""
    with pytest.raises(PresentationError) as exc:
        parse_presentation(text)
    assert str(exc.value) == (f"line {line}: path {path} has degree 2; the linear "
                              "engine supports exactly one non-loop arrow per term")


@pytest.mark.slow
@pytest.mark.parametrize("dims", SLOW_DIMS)
def test_tally_matches_reference_odometer_slow(dims):
    pres = build_family(parse_family_spec("A(2,3,3,1)"))
    want = _outcome(reference_enumerate_and_classify, pres, dims, 3)
    assert _outcome(enumerate_and_classify, pres, dims, 3) == want


def _integral(pres):
    """``pres`` with each relation times the lcm of its denominators, so
    that it reduces mod every prime."""
    relations = []
    for rel in pres.relations:
        scale = math.lcm(*(c.denominator for c, *_ in rel.terms))
        relations.append(dataclasses.replace(rel, terms=tuple(
            (c * scale, *rest) for c, *rest in rel.terms)))
    return dataclasses.replace(pres, relations=tuple(relations))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(presentations().filter(lambda pres: len(pres.quiver.vertices) >= 2 and pres.relations)
       .map(_integral), st.data())
def test_oracle_counts_are_transpose_dual(pres, data):
    """Transposing every matrix is a bijection between the F_q-points of A
    and of A^op, and J^T is similar to J, so each stratum, types carried
    across, has as many points for both, on two and three vertices, at
    q = 2 and 3.  Neither count reads the exact engine."""
    n = len(pres.quiver.vertices)
    dims = data.draw(st.sampled_from([d for d in dim_vectors_up_to(n, 4) if all(d)]))
    for q in (2, 3):
        try:
            counts = enumerate_and_classify(pres, dims, q, max_points=200_000).counts
        except EnumerationCapExceeded:
            continue
        assert enumerate_and_classify(opposite(pres), dims, q).counts == counts, (dims, q)
