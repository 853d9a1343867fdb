import itertools
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import assembly_reference
import dense_reference
import formulas_reference
import rank_reference
from block_pairs import block_systems
from paper_checks import opposite
from path_reference import path_of, word_path
from strategies import presentations
from walk_reference import assignments_for, partitions_bounded

from quiverstrata import _kernels, linsys
from quiverstrata.families import build_family, parse_family_spec
from quiverstrata.fforacle import BadPrimeError
from quiverstrata.linsys import (ConstraintSystem, PartPairTable, assemble_system,
                                 integer_terms, rank_exact, split_terms)
from quiverstrata.partitions import JordanAssignment, Partition, jordan_types, orbit_dim
from quiverstrata.quiver import (Arrow, BoundQuiverPresentation, PresentationError,
                                 Quiver, Relation, parse_presentation)
from quiverstrata.strata import (ReducibilityCertificate, StratumReport,
                                 ambient_arrow_dim, dim_vectors_up_to, reducibility_scan)


def _two_vertex(m0, m1, h, relation_words):
    """Presentation on 1 -> 0 with h arrows and the given relation terms."""
    arrows = []
    if m0 >= 2:
        arrows.append(Arrow("e0", "0", "0"))
    if m1 >= 2:
        arrows.append(Arrow("e1", "1", "1"))
    names = [f"a{i+1}" for i in range(h)]
    arrows.extend(Arrow(n, "1", "0") for n in names)
    q = Quiver(("0", "1"), tuple(arrows))
    rels = []
    for words in relation_words:
        rels.append(Relation.make(q, [(c, path_of(w)) for c, w in words]))
    return BoundQuiverPresentation(q, (m0, m1), tuple(rels))


def _ja(pres, p_parts, q_parts):
    return JordanAssignment.for_presentation(
        pres,
        [Partition(tuple(p_parts), pres.orders[0]),
         Partition(tuple(q_parts), pres.orders[1])],
    )


def _arrows(pres):
    """The non-loop arrows of a two-vertex presentation, all 1 -> 0."""
    return [x.name for x in pres.quiver.non_loop_arrows]


def _assembled(pres, relations, a, b):
    """The system of ``relations`` on the single blocks (a) at 0, (b) at 1,
    each relation split as the part-pair table splits it."""
    arrows = _arrows(pres)
    return assemble_system(len(arrows), [split_terms(rel, arrows) for rel in relations],
                           a, b)


def _system(pres, a, b):
    """The system of all relations on the single blocks (a) at 0, (b) at 1."""
    return _assembled(pres, pres.relations, a, b)


def _scale(rel):
    """The lcm of the relation's denominators: its integer terms, and so
    its assembled rows, are its rational ones times this."""
    return math.lcm(*(coeff.denominator for coeff, *_ in rel.terms))


def _grid(pres, rel, a, b):
    """The relation on the single blocks (a) at 0 and (b) at 1 as an a x b
    grid of linear forms {(arrow, row, col): rational coefficient}: the
    assembled integer rows over the lcm of the relation's denominators."""
    arrows = _arrows(pres)
    cs = _assembled(pres, (rel,), a, b)
    scale = _scale(rel)
    grid = [[{} for _ in range(b)] for _ in range(a)]
    for k, row in enumerate(cs.rows):
        i, j = divmod(k, b)
        grid[i][j] = {(arrows[col // (a * b)], *divmod(col % (a * b), b)):
                      Fraction(v, scale) for col, v in row.items()}
    return grid


def test_evaluate_shifted_copies():
    # e0^l * a on types (p), (1): row i is the entry (i + l) of a
    p, l = 4, 2
    pres = _two_vertex(p, 1, 1, [[(1, ["e0"] * l + ["a1"])]])
    grid = _grid(pres, pres.relations[0], p, 1)
    assert len(grid) == p and len(grid[0]) == 1
    nonzero_rows = [i for i in range(p) if grid[i][0]]
    assert nonzero_rows == list(range(p - l))
    for i in nonzero_rows:
        assert grid[i][0] == {("a1", i + l, 0): Fraction(1)}


def test_evaluate_zero_relation_and_truncation():
    pres = _two_vertex(3, 1, 1, [])
    q = pres.quiver
    zero = Relation.make(q, [], source="1", target="0")
    grid = _grid(pres, zero, 2, 1)
    assert all(form == {} for row in grid for form in row)
    # e0^2 * a evaluates to zero once the Jordan type is (2): J^2 = 0
    rel = Relation.make(q, [(1, path_of(["e0", "e0", "a1"]))])
    grid = _grid(pres, rel, 2, 1)
    assert all(form == {} for row in grid for form in row)


def test_evaluate_rejects_higher_degree():
    # no relation holds the term, so no table is ever built on it
    q = Quiver(("0", "1", "2"),
               (Arrow("a", "1", "0"), Arrow("b", "2", "1")))
    with pytest.raises(PresentationError, match="^path a\\*b has degree 2;"):
        Relation.make(q, [(1, path_of(["a", "b"]))])


def test_split_terms_index_the_arrows_and_refuse_other_degrees():
    pres = _two_vertex(3, 3, 2, [[(Fraction(1, 2), ["e0", "a2"]), (1, ["a1", "e1", "e1"])]])
    # 1/2 e0 a2 + a1 e1^2, times 2
    terms = split_terms(pres.relations[0], ["a1", "a2"])
    assert terms == [(1, 1, 1, 0), (2, 0, 0, 2)]
    assert all(type(c) is int for c, *_ in terms)
    # a path through a third vertex has no split; Relation.make, not
    # split_terms, refuses it, by its degree
    q = Quiver(("0", "1", "2"), (Arrow("a", "1", "0"), Arrow("b", "2", "1")))
    with pytest.raises(PresentationError, match="^path a\\*b has degree 2;"):
        Relation.make(q, [(1, path_of(["a", "b"]))])


def test_zero_coefficient_term_leaves_no_entry():
    with_zero = [(1, 1, 0, 0), (0, 0, 1, 1)]
    cs = assemble_system(2, [with_zero], 3, 2)
    assert cs.rows == assemble_system(2, [with_zero[:1]], 3, 2).rows
    assert all(col < 6 for row in cs.rows for col in row)


def test_assemble_known_small_system(a1221):
    cs = _system(a1221, 2, 2)
    assert cs.n_rows == 4 and cs.ambient_dim == 4
    assert rank_exact(cs) == 2


def test_assemble_empty_relation_list(a1221):
    cs = assemble_system(len(_arrows(a1221)), (), 2, 2)
    assert cs.n_rows == 0 and cs.ambient_dim == 4
    assert rank_exact(cs) == 0


def test_rank_exact_trivial_cases():
    identity = integer_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank_exact(identity) == 3
    zero = integer_system([[0, 0], [0, 0]])
    assert rank_exact(zero) == 0
    assert zero.matrix == [[0, 0], [0, 0]]


def integer_system(rows):
    """A system whose rows are the given integer rows."""
    return ConstraintSystem(
        [{j: v for j, v in enumerate(row) if v} for row in rows],
        len(rows[0]) if rows else 0,
    )


def test_rank_exact_matches_known_formula_instance():
    # eps0 a + a eps1 on types (3), (2) has rank q(p-1) = 4
    pres = _two_vertex(3, 2, 1, [[(1, ["e0", "a1"]), (1, ["a1", "e1"])]])
    assert rank_exact(_system(pres, 3, 2)) == 4


def test_codim_examples():
    for p in range(1, 6):
        for l in range(1, p + 1):
            pres = _two_vertex(max(p, l + 1), 1, 1, [[(1, ["e0"] * l + ["a1"])]])
            assert PartPairTable(pres).codim(_ja(pres, (p,), (1,))) == p - l
    for p in range(1, 6):
        for q in range(1, p + 1):
            pres = _two_vertex(max(p, 2), max(q, 2), 1,
                               [[(1, ["e0", "a1"]), (1, ["a1", "e1"])]])
            assert PartPairTable(pres).codim(_ja(pres, (p,), (q,))) == q * (p - 1)
    # three-term shape with a second arrow: rank 2 regardless of lambda
    p = q = 3
    lam = Fraction(1, 2)
    words = [(1, ["e0"] * (p - 1) + ["a1"] + ["e1"] * (q - 2)),
             (lam, ["e0"] * (p - 2) + ["a1"] + ["e1"] * (q - 1)),
             (1, ["e0"] * (p - 1) + ["a2"] + ["e1"] * (q - 1))]
    pres = _two_vertex(p, q, 2, [words])
    assert PartPairTable(pres).codim(_ja(pres, (p,), (q,))) == 2


def _part_pair_split(pres, ja):
    """{(i, j): table entry for part i at vertex 0 and part j at vertex 1}."""
    table = PartPairTable(pres)
    return {(i, j): table.entry(0, 1, a, b)
            for i, a in enumerate(ja.partitions[0].parts)
            for j, b in enumerate(ja.partitions[1].parts)}


def test_additivity_split_example():
    pres = _two_vertex(2, 1, 1, [[(1, ["e0", "a1"])]])
    ja = _ja(pres, (2, 1), (1,))
    table = _part_pair_split(pres, ja)
    assert table == {(0, 0): 1, (1, 0): 0}
    assert sum(table.values()) == dense_reference.codim(pres, ja)


def test_additivity_split_single_part_matches_codim(a1221):
    ja = _ja(a1221, (2,), (2,))
    table = _part_pair_split(a1221, ja)
    assert table == {(0, 0): dense_reference.codim(a1221, ja)}


def test_additivity_split_step_value():
    # eps0 a1 + a2 eps1 with independent arrows, types (m, m) and (2)
    for m in (2, 3, 4):
        pres = _two_vertex(m, 2, 2, [[(1, ["e0", "a1"]), (1, ["a2", "e1"])]])
        ja = _ja(pres, (m, m), (2,))
        table = _part_pair_split(pres, ja)
        assert sum(table.values()) == dense_reference.codim(pres, ja) == 2 * (2 * m - 1)


def test_additivity_over_parts_weight_bounded():
    shapes = {
        1: [[(1, ["e0", "e0", "a1"])]],
        2: [[(1, ["e0", "e0", "a1"]), (1, ["e0", "a1", "e1"])]],
        3: [[(1, ["e0", "a1"]), (1, ["a1", "e1"])]],
        4: [[(1, ["e0", "a1"]), (1, ["a2", "e1"])]],
        5: [[(1, ["e0", "a1"]), (1, ["a1", "e1"]), (1, ["a2", "e1", "e1"])]],
        6: [[(1, ["e0", "e0", "a1", "e1"]), (1, ["e0", "a1", "e1", "e1"])]],
    }
    for item, words in shapes.items():
        pres = _two_vertex(3, 3, 2, words)
        for wp in range(1, 7):
            for wq in range(1, 7 - wp + 1):
                for pp in partitions_bounded(wp, 3):
                    for qq in partitions_bounded(wq, 3):
                        ja = JordanAssignment.for_presentation(pres, [pp, qq])
                        table = _part_pair_split(pres, ja)
                        assert sum(table.values()) == dense_reference.codim(pres, ja), \
                            (item, pp, qq)


def test_disjoint_arrow_relations_add_up():
    rng = random.Random(20240817)
    for _ in range(25):
        h = rng.randint(2, 4)
        m0, m1 = rng.randint(2, 3), rng.randint(2, 3)
        split = rng.randint(1, h - 1)
        groups = [list(range(split)), list(range(split, h))]
        rel_words = []
        for grp in groups:
            words = []
            for j in grp:
                a = rng.randint(0, m0 - 1)
                b = rng.randint(0, m1 - 1)
                if a + b == 0:
                    a = 1
                words.append((rng.choice([1, 2, -1]),
                              ["e0"] * a + [f"a{j+1}"] + ["e1"] * b))
            rel_words.append(words)
        pres = _two_vertex(m0, m1, h, rel_words)
        d0, d1 = rng.randint(1, 4), rng.randint(1, 4)
        from jordan_reference import maximal_partition

        ja = JordanAssignment.for_presentation(
            pres, [maximal_partition(d0, m0), maximal_partition(d1, m1)]
        )
        total = PartPairTable(pres).codim(ja)
        parts = sum(PartPairTable(replace(pres, relations=(r,))).codim(ja)
                    for r in pres.relations)
        assert total == parts == dense_reference.codim(pres, ja)


def test_rank_bounds_and_monotonicity():
    pres = _two_vertex(3, 3, 2, [
        [(1, ["e0", "a1"]), (1, ["a1", "e1"])],
        [(1, ["e0", "e0", "a2"])],
    ])
    ja = _ja(pres, (3, 2), (3, 1))
    matrix = dense_reference.assemble(pres, ja)[0]
    c_all = PartPairTable(pres).codim(ja)
    assert 0 <= c_all <= min(len(matrix), len(matrix[0]))
    c_one = PartPairTable(replace(pres, relations=pres.relations[:1])).codim(ja)
    assert c_one <= c_all


def _frac_inverse(mat):
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] +
           [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _mat_mul_frac(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _conjugated_systems():
    """(pres, ja, loop_mats, dims): the Jordan data of ``ja`` conjugated by
    a random unipotent matrix at each vertex."""
    from jordan_reference import jordan_matrix

    rng = random.Random(7)
    pres = _two_vertex(2, 2, 1, [[(1, ["e0", "a1"]), (1, ["a1", "e1"])]])
    dims_pairs = [(2, 2), (2, 1), (1, 2), (2, 2)]
    for d0, d1 in dims_pairs:
        for p in partitions_bounded(d0, 2):
            for q in partitions_bounded(d1, 2):
                ja = JordanAssignment.for_presentation(pres, [p, q])
                loop_mats = {}
                for v, part in zip(("0", "1"), (p, q)):
                    d = part.weight
                    # unipotent lower triangular with random subdiagonal: invertible
                    g = [[Fraction(1) if i == j
                          else Fraction(rng.randint(-3, 3)) if i > j
                          else Fraction(0) for j in range(d)] for i in range(d)]
                    J = [[Fraction(int(x)) for x in row]
                         for row in jordan_matrix(part)]
                    conj = _mat_mul_frac(_mat_mul_frac(g, J), _frac_inverse(g))
                    loop_mats[v] = conj
                yield pres, ja, loop_mats, {"0": d0, "1": d1}


def test_conjugation_invariance():
    for pres, ja, loop_mats, dims in _conjugated_systems():
        matrix, _, _ = dense_reference.assemble_at(pres, pres.relations, loop_mats, dims)
        assert dense_reference.rank(matrix) == PartPairTable(pres).codim(ja)


def test_cross_field_rank_stability_sample():
    cases = [((3,), (2,)), ((4, 2), (3, 1)), ((2, 2, 1), (2,))]
    pres = _two_vertex(4, 3, 2, [
        [(1, ["e0", "a1"]), (1, ["a1", "e1"]), (Fraction(1, 2), ["a2", "e1", "e1"])],
    ])
    for pp, qq in cases:
        for cs in block_systems(pres, _ja(pres, pp, qq)):
            # ranked last: ranking spends the rows
            mod = [rank_reference.rank_mod(cs, 101), rank_reference.rank_mod(cs, 997)]
            assert mod == [rank_exact(cs)] * 2


def test_rank_mod_rejects_bad_prime():
    """The dense rational system refuses a prime that divides a
    denominator; the engine's rows are its entries times that denominator,
    so they agree with it mod every other prime."""
    pres = _two_vertex(2, 2, 1, [[(Fraction(1, 2), ["e0", "a1"]),
                                  (1, ["a1", "e1"])]])
    cs = _system(pres, 2, 2)
    matrix = dense_reference.assemble(pres, _ja(pres, (2,), (2,)))[0]
    assert cs.matrix == [[2 * x for x in row] for row in matrix]
    with pytest.raises(BadPrimeError):
        dense_reference.rank_mod(matrix, 2)
    assert (rank_reference.rank_mod(cs, 101) == dense_reference.rank_mod(matrix, 101)
            == rank_exact(cs))


# ---------------------------------------------------------------------------
# differential gate: the sparse integer engine against the dense Fraction path
# ---------------------------------------------------------------------------

DIFF_PRIMES = (2, 3, 101)


def _rank_mod_outcome(fn, system, p):
    try:
        return fn(system, p)
    except BadPrimeError:
        return "bad prime"


def _summed_rank_mod(systems, p):
    """The rank mod p of a direct sum of systems' integer rows."""
    return sum(rank_reference.rank_mod(cs, p) for cs in systems)


def _assert_same_ranks(systems, matrix) -> int:
    """Compare the block-pair systems of one assignment with the dense
    reference system of the whole assignment; the number of primes at
    which the reference raises BadPrimeError.  The engine's rows are
    compared mod p only at the other primes: mod a prime that divides a
    relation's lcm, its scaled rows are not the rational ones.  In the
    systems compared here every denominator reaches the dense matrix, so
    the reference refuses every such prime.  The engine ranks last, since
    ranking spends the rows: mod p they need not keep their rank."""
    bad = 0
    for p in DIFF_PRIMES:
        want = _rank_mod_outcome(dense_reference.rank_mod, matrix, p)
        if want == "bad prime":
            bad += 1
        else:
            assert _summed_rank_mod(systems, p) == want
    assert sum(rank_exact(cs) for cs in systems) == dense_reference.rank(matrix)
    return bad


def test_engine_matches_dense_reference_on_formula_cases():
    """A formula case has single parts at both vertices, so its system is
    one block pair, entry for entry the dense reference's times the lcm of
    the relation's denominators."""
    cases = formulas_reference.formula_cases(p_max=8)
    assert len(cases) == 1205
    bad = 0
    for case in cases:
        pres, ja, _ = formulas_reference.build_case(case)
        cs = _system(pres, case.p, case.q)
        matrix = dense_reference.assemble(pres, ja)[0]
        [rel] = pres.relations
        scale = _scale(rel)
        assert cs.n_rows == len(matrix) and cs.ambient_dim == len(matrix[0])
        assert cs.rows == [{c: scale * x for c, x in enumerate(row) if x} for row in matrix]
        bad += _assert_same_ranks([cs], matrix)
    assert bad > 0  # lambda = 1/2 cases cannot reduce mod 2


@pytest.mark.parametrize("spec", ["A(1,4,4,2)", "A(2,3,3,1)", "Aprime(1,2,2)"])
def test_engine_matches_dense_reference_on_families(spec):
    pres = build_family(parse_family_spec(spec))
    for dims in dim_vectors_up_to(2, 6):
        for ja in assignments_for(pres, dims):
            _assert_same_ranks(list(block_systems(pres, ja)),
                               dense_reference.assemble(pres, ja)[0])


# ---------------------------------------------------------------------------
# differential gate: the part-pair table against the dense reference
# ---------------------------------------------------------------------------

TABLE_SPECS = [
    "A(1,3,3,2)", "A(1,4,4,1)", "A(1,4,4,3)", "A(1,5,5,4)",
    "A(1,4,4,2)", "A(1,5,5,3)", "A(1,6,6,4)",
    "A(2,3,3,1)", "Aprime(1,2,2)",
]


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_table_matches_codim_c_on_families(spec):
    """The codimension c of every assignment up to total 9, against the
    rank of the dense reference system."""
    pres = build_family(parse_family_spec(spec))
    table = PartPairTable(pres)
    for dims in dim_vectors_up_to(2, 9):
        for ja in assignments_for(pres, dims):
            assert table.codim(ja) == dense_reference.codim(pres, ja), \
                (spec, ja.serialize())


# ---------------------------------------------------------------------------
# differential gate: the sparse elimination against the component-wise
# Bareiss rank it replaced
# ---------------------------------------------------------------------------

def _assert_same_as_replaced(cs):
    want = rank_reference.rank_exact(cs)  # first: ranking spends the rows
    assert rank_exact(cs) == want


def test_sparse_rank_matches_replaced_on_formula_cases():
    for case in formulas_reference.formula_cases(p_max=8):
        pres, _, _ = formulas_reference.build_case(case)
        _assert_same_as_replaced(_system(pres, case.p, case.q))


@st.composite
def sparse_systems(draw):
    """Sparse integer rows with entries up to 10^40, some of them integer
    combinations of earlier rows so that ranks fall short."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-9, 9), st.integers(-10 ** 40, 10 ** 40))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            row = {}
            for earlier in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                f = draw(entry)
                for c, v in earlier.items():
                    row[c] = row.get(c, 0) + f * v
        else:
            row = draw(st.dictionaries(st.integers(0, n - 1), entry, max_size=n))
        rows.append({c: v for c, v in row.items() if v})
    return ConstraintSystem(rows, n)


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_sparse_rank_matches_replaced_on_random_rows(cs):
    _assert_same_as_replaced(cs)


# ---------------------------------------------------------------------------
# differential gate: the one-pass assembly and the in-place elimination
# against the versions they replaced
# ---------------------------------------------------------------------------

def _assert_same_as_last(args, rational) -> ConstraintSystem:
    """The system of ``args``, whose relations are integer terms, equals
    the one that the replaced assembly builds on ``rational``, the same
    relations with their rational coefficients, and its rank the replaced
    sparse elimination's."""
    n_arrows, _, a, b = args
    cs = assemble_system(*args)
    ref = assembly_reference.assemble_system(n_arrows, rational, a, b)
    assert (cs.rows, cs.ambient_dim) == (ref.rows, ref.ambient_dim)
    assert rank_exact(cs) == rank_reference.sparse_rank_int(ref.rows)
    return cs


def test_assembly_and_rank_match_last_on_formula_cases():
    """Every case of the sweep to p = 8, and its lambda cases at lambda = 0,
    whose zero term puts no entry into the system (item 11 refuses it)."""
    from quiverstrata.formulas import build_case

    cases = formulas_reference.formula_cases(p_max=8)
    zero = list(dict.fromkeys(replace(c, lam=Fraction(0)) for c in cases
                              if c.lam is not None and c.item != 11))
    assert len(cases) == 1205 and zero
    for case in cases + zero:
        _, terms = build_case(case.item, case.p, case.q, case.l, case.lam)
        rational = formulas_reference._term_shapes(case.item, case.p, case.q,
                                                   case.l, case.lam)
        _assert_same_as_last((case.h, [terms], case.p, case.q), [rational])


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_sparse_rank_matches_replaced_on_table_entries(spec, monkeypatch):
    """Every entry the table ranks for the assignments up to total 9,
    against the Bareiss rank and against the assembly and sparse rank that
    the current ones replaced, the assembly on the rational split terms."""
    calls = []
    assemble = linsys.assemble_system

    def recorded(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(linsys, "assemble_system", recorded)
    table = PartPairTable(build_family(parse_family_spec(spec)))
    for dims in dim_vectors_up_to(2, 9):
        for ja in assignments_for(table.pres, dims):
            table.codim(ja)
    assert calls or not table.pres.relations  # Aprime has no relations
    # the families' relations all run 1 -> 0, along every non-loop arrow
    arrows = _arrows(table.pres)
    rational = [assembly_reference.split_terms(rel, arrows) for rel in table.pres.relations]
    for args in calls:
        _assert_same_as_replaced(_assert_same_as_last(args, rational))


@st.composite
def split_relations(draw):
    """(n_arrows, relations, a, b) with rational split terms that may have
    zero coefficients, mixed denominators, loop powers past the blocks, and
    repeated terms whose coefficients cancel."""
    n_arrows, a, b = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    term = st.tuples(coeff, st.integers(0, a), st.integers(0, n_arrows - 1), st.integers(0, b))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        terms = draw(st.lists(term, max_size=4))
        for c, pre, k, post in draw(st.lists(st.sampled_from(terms), max_size=2)) if terms else ():
            terms.append((-c, pre, k, post))
        relations.append(draw(st.permutations(terms)))
    return n_arrows, relations, a, b


@settings(max_examples=300, deadline=None)
@given(split_relations())
@example((1, [[(Fraction(1), 0, 0, 0), (Fraction(-1), 0, 0, 0), (Fraction(1), 0, 0, 0)]], 2, 2))
@example((2, [[(Fraction(1), 1, 0, 0), (Fraction(0), 0, 1, 1)]], 3, 2))
@example((2, [[(Fraction(1, 2), 1, 0, 0), (Fraction(2, 3), 0, 1, 1)], [(Fraction(-1, 3), 0, 0, 0)]], 2, 2))
def test_assembly_matches_last_and_keeps_every_row_on_random_terms(args):
    """Every relation gives a*b rows, empty or not, and no row stores a
    zero; the integer terms are the rational ones times the lcm of their
    denominators."""
    n_arrows, relations, a, b = args
    integer = [integer_terms(terms) for terms in relations]
    for terms, scaled in zip(relations, integer):
        scale = math.lcm(*(c.denominator for c, *_ in terms))
        assert scaled == [(c * scale, pre, k, post) for c, pre, k, post in terms]
        assert all(type(c) is int for c, *_ in scaled)
    cs = _assert_same_as_last((n_arrows, integer, a, b), relations)
    assert cs.n_rows == len(relations) * a * b
    assert cs.ambient_dim == n_arrows * a * b
    assert all(v for row in cs.rows for v in row.values())


def test_rank_exact_calls_the_kernel_once_per_system(monkeypatch):
    calls = []
    kernel = _kernels.exact_rank_int

    def counted(rows):
        calls.append(rows)
        return kernel(rows)

    monkeypatch.setattr(_kernels, "exact_rank_int", counted)
    all_empty = assemble_system(1, [[(0, 0, 0, 0)], []], 2, 2)
    assert all_empty.n_rows == 8 and not any(all_empty.rows)
    systems = [all_empty, assemble_system(1, [], 2, 2),
               assemble_system(2, [[(1, 1, 0, 0), (6, 0, 1, 1)]], 3, 2)]
    assert [rank_exact(cs) for cs in systems] == [0, 0, 5]
    assert calls == [cs.rows for cs in systems]


def test_ranking_allocates_little_beside_its_assembly():
    """The kernel reduces the assembled rows in place: ranking item 3's
    system at p = q = 60 (3,600 rows) allocates at most 30 % of what
    assembling it did, by tracemalloc's peak.  A kernel that copied each
    nonempty row allocated 90 %, and the in-place one 18 %."""
    from quiverstrata.formulas import _ITEMS, build_case

    expected, terms = build_case(3, 60, 60, None, None)
    tracemalloc.start()
    try:
        cs = assemble_system(_ITEMS[3].symbols, [terms], 60, 60)
        assembled, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        rank = rank_exact(cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cs.n_rows == 3600 and rank == expected
    assert peak - assembled <= 0.3 * assembled


# parallel arrows, relations in both directions, rational coefficients
BOTH_WAYS = """
vertex 0
vertex 1
loop e0 0 order 3
loop e1 1 order 2
arrow a 1 -> 0
arrow b 1 -> 0
arrow c 0 -> 1
relation e0*a + 2/3*a*e1 - e0^2*b
relation 1/2*e0*b*e1 + a*e1
relation e1*c - 5/4*c*e0^2
"""


@settings(max_examples=150, deadline=None, derandomize=True)
@given(presentations(), st.lists(st.integers(0, 3), min_size=3, max_size=3))
@example(parse_presentation(BOTH_WAYS), [3, 2, 0])
@example(parse_presentation(BOTH_WAYS), [2, 2, 0])
def test_table_and_rank_mod_on_random_presentations(pres, dims):
    dims = dims[:len(pres.quiver.vertices)]
    table = PartPairTable(pres)
    for ja in assignments_for(pres, dims):
        systems = list(block_systems(pres, ja))
        rank = dense_reference.codim(pres, ja)
        for p in (2, 3, 5, 7):
            assert _summed_rank_mod(systems, p) <= rank
        # 101 is prime to every coefficient of the strategy, and no drawn
        # system has a minor divisible by it
        assert _summed_rank_mod(systems, 101) == rank
        # last: ranking spends the rows
        assert table.codim(ja) == rank == sum(rank_exact(cs) for cs in systems)


def _brute_force_scan(pres, dims):
    """Every certificate of ``dims``, from the table entry sum of each
    assignment."""
    n = ambient_arrow_dim(pres, dims)
    table = PartPairTable(pres)
    reports = [StratumReport(ja, tuple(orbit_dim(p) for p in ja.partitions), n,
                             table.codim(ja),
                             all(p.is_maximal for p in ja.partitions))
               for ja in assignments_for(pres, dims)]
    return [ReducibilityCertificate(tuple(dims), reports[0], r)
            for r in reports[1:] if r.dim >= reports[0].dim]


@pytest.mark.parametrize("spec", ["A(1,4,4,2)", "A(1,5,5,3)", "A(1,6,6,4)",
                                  "A(2,3,3,1)", "A(1,3,3,2)", "Aprime(1,2,2)"])
def test_scan_matches_brute_force(spec):
    pres = build_family(parse_family_spec(spec))
    table = PartPairTable(pres)
    certified = 0
    for dims in dim_vectors_up_to(2, 8):
        want = _brute_force_scan(pres, dims)
        assert reducibility_scan(table, dims) == (want[0] if want else None)
        certified += bool(want)
    if spec in ("A(1,4,4,2)", "A(1,5,5,3)"):
        assert certified > 0  # the reducible families are not vacuous


def test_table_raises_where_assembly_raises():
    """Relation.make refuses a degree-2 term with the message the dense
    reference assembly gives for it, so no table or scan ever reads it."""
    q = Quiver(("0", "1", "2"), (Arrow("a", "1", "0"), Arrow("b", "2", "1")))
    with pytest.raises(ValueError) as want:
        dense_reference._decompose_term(SimpleNamespace(quiver=q), word_path(q, ["a", "b"]))
    with pytest.raises(PresentationError) as got:
        Relation.make(q, [(1, path_of(["a", "b"]))])
    assert str(got.value) == str(want.value)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(presentations().filter(lambda pres: len(pres.quiver.vertices) == 2))
def test_part_pair_table_is_transpose_dual(pres):
    """r^op_st(b, a) = r_ts(a, b) for both vertex pairs and all part sizes
    up to the orders, and the codimensions of all Jordan types up to
    dimension 3 agree: transposition is an isomorphism of the module
    varieties of A and of its opposite, and J^T is similar to J."""
    table, dual = PartPairTable(pres), PartPairTable(opposite(pres))
    m = pres.orders
    for t, s in ((0, 1), (1, 0)):
        for a, b in itertools.product(range(1, m[t] + 1), range(1, m[s] + 1)):
            assert dual.entry(s, t, b, a) == table.entry(t, s, a, b), (t, s, a, b)
    for d0, d1 in itertools.product(range(4), repeat=2):
        for types in itertools.product(jordan_types(d0, m[0]), jordan_types(d1, m[1])):
            records = [(pairs,) for pairs in types]
            assert dual.codim_of_types(records) == table.codim_of_types(records), types
