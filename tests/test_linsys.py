import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference
from strategies import presentations

from quiverstrata.families import build_family, parse_family_spec
from quiverstrata.linsys import (BadPrimeError, ConstraintSystem,
                                 SymbolicArrowEntry,
                                 UnsupportedDegreeError, _components, assemble_system,
                                 assemble_system_at, codim_c, codim_table,
                                 rank_exact, rank_mod)
from quiverstrata.partitions import JordanAssignment, Partition, orbit_dim
from quiverstrata.quiver import (Arrow, BoundQuiverPresentation, Quiver,
                                 Relation, parse_presentation)
from quiverstrata.strata import (ReducibilityCertificate, StratumReport,
                                 ambient_arrow_dim, assignments_for,
                                 dim_vectors_up_to, reducibility_scan)


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
        rels.append(Relation.make([(c, q.path(w)) for c, w in words]))
    return BoundQuiverPresentation(q, (m0, m1), tuple(rels))


def _ja(pres, p_parts, q_parts):
    return JordanAssignment.for_presentation(
        pres,
        [Partition(tuple(p_parts), pres.orders[0]),
         Partition(tuple(q_parts), pres.orders[1])],
    )


def _grid(pres, rel, ja):
    """The relation on the Jordan matrices of ``ja`` as a d_target x d_source
    grid of linear forms {arrow entry: rational coefficient}."""
    cs = assemble_system(pres, ja, (rel,))
    dims = dict(zip(ja.vertices, ja.dims))
    grid = [[{} for _ in range(dims[rel.source])] for _ in range(dims[rel.target])]
    for (_, i, j), row, scale in zip(cs.row_labels, cs.rows, cs.scales):
        grid[i][j] = {cs.columns[col]: Fraction(v, scale) for col, v in row.items()}
    return grid


def test_evaluate_shifted_copies():
    # e0^l * a on types (p), (1): row i is the entry (i + l) of a
    p, l = 4, 2
    pres = _two_vertex(p, 1, 1, [[(1, ["e0"] * l + ["a1"])]])
    ja = _ja(pres, (p,), (1,))
    grid = _grid(pres, pres.relations[0], ja)
    assert len(grid) == p and len(grid[0]) == 1
    nonzero_rows = [i for i in range(p) if grid[i][0]]
    assert nonzero_rows == list(range(p - l))
    for i in nonzero_rows:
        assert grid[i][0] == {SymbolicArrowEntry("a1", i + l, 0): Fraction(1)}


def test_evaluate_zero_relation_and_truncation():
    pres = _two_vertex(3, 1, 1, [])
    q = pres.quiver
    zero = Relation.make([], source="1", target="0")
    ja = _ja(pres, (2,), (1,))
    grid = _grid(pres, zero, ja)
    assert all(form == {} for row in grid for form in row)
    # e0^2 * a evaluates to zero once the Jordan type is (2): J^2 = 0
    rel = Relation.make([(1, q.path(["e0", "e0", "a1"]))])
    grid = _grid(pres, rel, ja)
    assert all(form == {} for row in grid for form in row)


def test_evaluate_rejects_higher_degree():
    q = Quiver(("0", "1", "2"),
               (Arrow("a", "1", "0"), Arrow("b", "2", "1")))
    pres = BoundQuiverPresentation(q, (1, 1, 1),
                                   (Relation.make([(1, q.path(["a", "b"]))]),))
    ja = JordanAssignment.for_presentation(
        pres, [Partition((1,), 1), Partition((1,), 1), Partition((1,), 1)]
    )
    with pytest.raises(UnsupportedDegreeError):
        codim_c(pres, ja)


def test_assemble_known_small_system(a1221):
    ja = _ja(a1221, (2,), (2,))
    cs = assemble_system(a1221, ja)
    assert cs.n_rows == 4 and cs.ambient_dim == 4
    assert rank_exact(cs) == 2


def test_assemble_empty_relation_list(a1221):
    ja = _ja(a1221, (2,), (2,))
    cs = assemble_system(a1221, ja, relations=())
    assert cs.n_rows == 0 and cs.ambient_dim == 4
    assert rank_exact(cs) == 0


def test_rank_exact_trivial_cases():
    identity = integer_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank_exact(identity) == 3
    zero = integer_system([[0, 0], [0, 0]])
    assert rank_exact(zero) == 0
    assert zero.matrix == [[Fraction(0)] * 2] * 2


def integer_system(rows):
    """A one-relation system whose rows are the given integer rows."""
    n = len(rows[0]) if rows else 0
    return ConstraintSystem(
        [{j: v for j, v in enumerate(row) if v} for row in rows],
        [1] * len(rows),
        [(0, i, 0) for i in range(len(rows))],
        [SymbolicArrowEntry("a1", 0, j) for j in range(n)],
    )


def test_rank_exact_matches_known_formula_instance():
    # eps0 a + a eps1 on types (3), (2) has rank q(p-1) = 4
    pres = _two_vertex(3, 2, 1, [[(1, ["e0", "a1"]), (1, ["a1", "e1"])]])
    cs = assemble_system(pres, _ja(pres, (3,), (2,)))
    assert rank_exact(cs) == 4


def test_codim_examples():
    for p in range(1, 6):
        for l in range(1, p + 1):
            pres = _two_vertex(max(p, l + 1), 1, 1, [[(1, ["e0"] * l + ["a1"])]])
            assert codim_c(pres, _ja(pres, (p,), (1,))) == p - l
    for p in range(1, 6):
        for q in range(1, p + 1):
            pres = _two_vertex(max(p, 2), max(q, 2), 1,
                               [[(1, ["e0", "a1"]), (1, ["a1", "e1"])]])
            assert codim_c(pres, _ja(pres, (p,), (q,))) == q * (p - 1)
    # three-term shape with a second arrow: rank 2 regardless of lambda
    p = q = 3
    lam = Fraction(1, 2)
    words = [(1, ["e0"] * (p - 1) + ["a1"] + ["e1"] * (q - 2)),
             (lam, ["e0"] * (p - 2) + ["a1"] + ["e1"] * (q - 1)),
             (1, ["e0"] * (p - 1) + ["a2"] + ["e1"] * (q - 1))]
    pres = _two_vertex(p, q, 2, [words])
    assert codim_c(pres, _ja(pres, (p,), (q,))) == 2


def _part_pair_split(pres, ja):
    """{(i, j): table entry for part i at vertex 0 and part j at vertex 1}."""
    table = codim_table(pres)
    return {(i, j): table.entry(0, 1, a, b)
            for i, a in enumerate(ja.partitions[0].parts)
            for j, b in enumerate(ja.partitions[1].parts)}


def test_additivity_split_example():
    pres = _two_vertex(2, 1, 1, [[(1, ["e0", "a1"])]])
    ja = _ja(pres, (2, 1), (1,))
    table = _part_pair_split(pres, ja)
    assert table == {(0, 0): 1, (1, 0): 0}
    assert sum(table.values()) == codim_c(pres, ja)


def test_additivity_split_single_part_matches_codim(a1221):
    ja = _ja(a1221, (2,), (2,))
    table = _part_pair_split(a1221, ja)
    assert table == {(0, 0): codim_c(a1221, ja)}


def test_additivity_split_step_value():
    # eps0 a1 + a2 eps1 with independent arrows, types (m, m) and (2)
    for m in (2, 3, 4):
        pres = _two_vertex(m, 2, 2, [[(1, ["e0", "a1"]), (1, ["a2", "e1"])]])
        ja = _ja(pres, (m, m), (2,))
        table = _part_pair_split(pres, ja)
        assert sum(table.values()) == codim_c(pres, ja) == 2 * (2 * m - 1)


def test_additivity_over_parts_weight_bounded():
    shapes = {
        1: [[(1, ["e0", "e0", "a1"])]],
        2: [[(1, ["e0", "e0", "a1"]), (1, ["e0", "a1", "e1"])]],
        3: [[(1, ["e0", "a1"]), (1, ["a1", "e1"])]],
        4: [[(1, ["e0", "a1"]), (1, ["a2", "e1"])]],
        5: [[(1, ["e0", "a1"]), (1, ["a1", "e1"]), (1, ["a2", "e1", "e1"])]],
        6: [[(1, ["e0", "e0", "a1", "e1"]), (1, ["e0", "a1", "e1", "e1"])]],
    }
    from quiverstrata.partitions import partitions_bounded

    for item, words in shapes.items():
        pres = _two_vertex(3, 3, 2, words)
        for wp in range(1, 7):
            for wq in range(1, 7 - wp + 1):
                for pp in partitions_bounded(wp, 3):
                    for qq in partitions_bounded(wq, 3):
                        ja = JordanAssignment.for_presentation(pres, [pp, qq])
                        table = _part_pair_split(pres, ja)
                        assert sum(table.values()) == codim_c(pres, ja), (item, pp, qq)


def _block_of(partition):
    """Jordan block index of each basis position of the partition."""
    return [b for b, part in enumerate(partition.parts) for _ in range(part)]


@pytest.mark.parametrize("spec", ["A(1,4,4,2)", "A(2,3,3,1)"])
def test_components_follow_part_pairs(spec):
    pres = build_family(parse_family_spec(spec))
    checked = 0
    for dims in dim_vectors_up_to(2, 6):
        for ja in assignments_for(pres, dims):
            tgt_block = _block_of(ja.partition("0"))
            src_block = _block_of(ja.partition("1"))
            cs = assemble_system(pres, ja)
            for cols, _, _ in _components(cs):
                pairs = {(tgt_block[cs.columns[c].row], src_block[cs.columns[c].col])
                         for c in cols}
                assert len(pairs) == 1, (spec, ja.serialize(), pairs)
                checked += 1
            table = _part_pair_split(pres, ja)
            assert sum(table.values()) == codim_c(pres, ja), (spec, ja.serialize())
    assert checked >= 50  # the blocks are not vacuous


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
        from quiverstrata.partitions import maximal_partition

        ja = JordanAssignment.for_presentation(
            pres, [maximal_partition(d0, m0), maximal_partition(d1, m1)]
        )
        total = codim_c(pres, ja)
        parts = sum(codim_c(pres, ja, relations=(r,)) for r in pres.relations)
        assert total == parts


def test_rank_bounds_and_monotonicity():
    pres = _two_vertex(3, 3, 2, [
        [(1, ["e0", "a1"]), (1, ["a1", "e1"])],
        [(1, ["e0", "e0", "a2"])],
    ])
    ja = _ja(pres, (3, 2), (3, 1))
    cs = assemble_system(pres, ja)
    c_all = rank_exact(cs)
    assert 0 <= c_all <= min(cs.n_rows, cs.ambient_dim)
    c_one = codim_c(pres, ja, relations=pres.relations[:1])
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
    from quiverstrata.partitions import partitions_bounded

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
        cs = assemble_system_at(pres, pres.relations, loop_mats, dims)
        assert rank_exact(cs) == codim_c(pres, ja)


def test_cross_field_rank_stability_sample():
    cases = [((3,), (2,)), ((4, 2), (3, 1)), ((2, 2, 1), (2,))]
    pres = _two_vertex(4, 3, 2, [
        [(1, ["e0", "a1"]), (1, ["a1", "e1"]), (Fraction(1, 2), ["a2", "e1", "e1"])],
    ])
    for pp, qq in cases:
        ja = _ja(pres, pp, qq)
        cs = assemble_system(pres, ja)
        r = rank_exact(cs)
        assert rank_mod(cs, 101) == r
        assert rank_mod(cs, 997) == r


def test_rank_mod_rejects_bad_prime():
    pres = _two_vertex(2, 2, 1, [[(Fraction(1, 2), ["e0", "a1"]),
                                  (1, ["a1", "e1"])]])
    cs = assemble_system(pres, _ja(pres, (2,), (2,)))
    with pytest.raises(BadPrimeError):
        rank_mod(cs, 2)
    assert rank_mod(cs, 101) == rank_exact(cs)


def test_export_text_format(a1221):
    cs = assemble_system(a1221, _ja(a1221, (2,), (2,)))
    text = cs.export_text()
    lines = text.strip().splitlines()
    assert lines[0] == "4 4"
    assert len(lines) == 5
    for line in lines[1:]:
        entries = line.split()
        assert len(entries) == 4
        for ent in entries:
            num, den = ent.split("/")
            int(num), int(den)
    parsed = [[Fraction(x) for x in line.split()] for line in lines[1:]]
    assert parsed == cs.matrix


# ---------------------------------------------------------------------------
# differential gate: the sparse integer engine against the dense Fraction path
# ---------------------------------------------------------------------------

DIFF_PRIMES = (2, 3, 101)


def _rank_mod_outcome(fn, system, p):
    try:
        return fn(system, p)
    except BadPrimeError:
        return "bad prime"


def _assert_same_system(cs, ref) -> int:
    """Compare one system with its reference; the number of primes at which
    both raise BadPrimeError."""
    matrix, row_labels, columns = ref
    assert cs.columns == columns
    assert cs.row_labels == row_labels
    assert cs.matrix == matrix
    assert rank_exact(cs) == dense_reference.rank(matrix)
    bad = 0
    for p in DIFF_PRIMES:
        want = _rank_mod_outcome(dense_reference.rank_mod, matrix, p)
        assert _rank_mod_outcome(rank_mod, cs, p) == want
        bad += want == "bad prime"
    return bad


def test_engine_matches_dense_reference_on_formula_cases():
    from quiverstrata.formulas import build_case, formula_cases

    cases = formula_cases(p_max=8)
    assert len(cases) == 1205
    bad = 0
    for case in cases:
        pres, ja, _ = build_case(case)
        bad += _assert_same_system(assemble_system(pres, ja),
                                   dense_reference.assemble(pres, ja))
    assert bad > 0  # lambda = 1/2 cases cannot reduce mod 2


@pytest.mark.parametrize("spec", ["A(1,4,4,2)", "A(2,3,3,1)", "Aprime(1,2,2)"])
def test_engine_matches_dense_reference_on_families(spec):
    pres = build_family(parse_family_spec(spec))
    for dims in dim_vectors_up_to(2, 6):
        for ja in assignments_for(pres, dims):
            _assert_same_system(assemble_system(pres, ja),
                                dense_reference.assemble(pres, ja))


def test_engine_matches_dense_reference_on_conjugated_loops():
    for pres, _, loop_mats, dims in _conjugated_systems():
        _assert_same_system(
            assemble_system_at(pres, pres.relations, loop_mats, dims),
            dense_reference.assemble_at(pres, pres.relations, loop_mats, dims))


# ---------------------------------------------------------------------------
# differential gate: the part-pair table against assembly and rank
# ---------------------------------------------------------------------------

TABLE_SPECS = [
    "A(1,3,3,2)", "A(1,4,4,1)", "A(1,4,4,3)", "A(1,5,5,4)",
    "A(1,4,4,2)", "A(1,5,5,3)", "A(1,6,6,4)",
    "A(2,3,3,1)", "Aprime(1,2,2)",
]


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_table_matches_codim_c_on_families(spec):
    pres = build_family(parse_family_spec(spec))
    table = codim_table(pres)
    for dims in dim_vectors_up_to(2, 9):
        for ja in assignments_for(pres, dims):
            assert table.codim(ja) == codim_c(pres, ja), (spec, ja.serialize())


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
    table = codim_table(pres)
    for ja in assignments_for(pres, dims):
        cs = assemble_system(pres, ja)
        rank = rank_exact(cs)
        assert table.codim(ja) == rank == codim_c(pres, ja)
        for p in (2, 3, 5, 7):
            assert _rank_mod_outcome(rank_mod, cs, p) in ("bad prime", *range(rank + 1))
        # 101 is prime to every coefficient of the strategy, and no drawn
        # system has a minor divisible by it
        assert rank_mod(cs, 101) == rank


def _brute_force_scan(pres, dims):
    """Every certificate of ``dims``, from codim_c on each assignment."""
    n = ambient_arrow_dim(pres, dims)
    reports = [StratumReport(ja, tuple(orbit_dim(p) for p in ja.partitions), n,
                             codim_c(pres, ja), all(p.is_maximal for p in ja.partitions))
               for ja in assignments_for(pres, dims)]
    return [ReducibilityCertificate(tuple(dims), reports[0], r)
            for r in reports[1:] if r.dim >= reports[0].dim]


@pytest.mark.parametrize("spec", ["A(1,4,4,2)", "A(1,5,5,3)", "A(1,6,6,4)",
                                  "A(2,3,3,1)", "A(1,3,3,2)", "Aprime(1,2,2)"])
def test_scan_matches_brute_force(spec):
    pres = build_family(parse_family_spec(spec))
    certified = 0
    for dims in dim_vectors_up_to(2, 8):
        want = _brute_force_scan(pres, dims)
        assert reducibility_scan(pres, dims, find_all=True) == want, (spec, dims)
        assert reducibility_scan(pres, dims) == (want[0] if want else None)
        certified += bool(want)
    if spec in ("A(1,4,4,2)", "A(1,5,5,3)"):
        assert certified > 0  # the reducible families are not vacuous


def test_table_raises_where_assembly_raises():
    q = Quiver(("0", "1", "2"), (Arrow("a", "1", "0"), Arrow("b", "2", "1")))
    pres = BoundQuiverPresentation(q, (1, 1, 1),
                                   (Relation.make([(1, q.path(["a", "b"]))]),))
    empty = JordanAssignment.for_presentation(pres, [Partition((), 1)] * 3)
    with pytest.raises(UnsupportedDegreeError) as want:
        assemble_system(pres, empty)
    with pytest.raises(UnsupportedDegreeError) as got:
        codim_table(pres)
    assert str(got.value) == str(want.value)
    # a dimension vector with a zero entry reads no entry, and still raises
    with pytest.raises(UnsupportedDegreeError):
        reducibility_scan(pres, (1, 0, 1))
