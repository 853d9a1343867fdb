import itertools

import numpy as np
import pytest

from jordan_reference import commutant_dim_oracle, hom_dim, jordan_matrix
from quiverstrata.partitions import (JordanAssignment, Partition, end_dim,
                                     maximal_partition, orbit_count,
                                     orbit_count_ff, orbit_dim,
                                     partition_from_ranks, partitions_bounded,
                                     rank_sequence)


def brute_partitions(d, m):
    """Independent oracle: filter all weakly decreasing tuples."""
    if d == 0:
        return [()]
    found = set()
    for k in range(1, d + 1):
        for combo in itertools.product(range(1, m + 1), repeat=k):
            if sum(combo) == d and all(a >= b for a, b in zip(combo, combo[1:])):
                found.add(combo)
    return sorted(found, reverse=True)


def test_partitions_bounded_examples():
    assert [p.parts for p in partitions_bounded(3, 2)] == [(2, 1), (1, 1, 1)]
    assert [p.parts for p in partitions_bounded(0, 5)] == [()]
    assert len(partitions_bounded(4, 4)) == 5


@pytest.mark.parametrize("d,m", [(d, m) for d in range(0, 9) for m in (1, 2, 3, 4, 8)])
def test_partitions_bounded_against_brute_force(d, m):
    assert [p.parts for p in partitions_bounded(d, m)] == brute_partitions(d, m)


def test_maximal_partition_examples():
    assert maximal_partition(5, 2).parts == (2, 2, 1)
    assert maximal_partition(4, 2).parts == (2, 2)
    assert maximal_partition(3, 5).parts == (3,)
    assert maximal_partition(0, 3).parts == ()
    assert maximal_partition(0, 3).is_maximal


def test_maximal_is_first_in_canonical_order():
    for d in range(0, 8):
        for m in (1, 2, 3):
            plist = partitions_bounded(d, m)
            assert plist[0] == maximal_partition(d, m)
            assert plist[0].is_maximal
            assert sum(1 for p in plist if p.is_maximal) == 1


def _dominates(p, q):
    pa = list(p) + [0] * len(q)
    qa = list(q) + [0] * len(p)
    run_p = run_q = 0
    for a, b in zip(pa, qa):
        run_p += a
        run_q += b
        if run_p < run_q:
            return False
    return True


def test_maximal_dominates_all_bounded_partitions():
    for d in range(0, 9):
        for m in (1, 2, 3, 4):
            top = maximal_partition(d, m)
            for p in partitions_bounded(d, m):
                assert _dominates(top.parts, p.parts)


def test_jordan_matrix_examples():
    assert jordan_matrix(Partition((1,), 1)).tolist() == [[0]]
    assert jordan_matrix(Partition((2,), 2)).tolist() == [[0, 1], [0, 0]]
    j21 = jordan_matrix(Partition((2, 1), 2))
    assert j21.shape == (3, 3)
    assert j21[0, 1] == 1 and j21.sum() == 1


def test_jordan_matrix_rank_sequence():
    for parts in [(3, 1), (2, 2), (4, 2, 1), (5,), (1, 1, 1)]:
        p = Partition(parts, parts[0])
        J = jordan_matrix(p)
        for k in range(parts[0] + 2):
            expected = sum(max(x - k, 0) for x in parts)
            assert np.linalg.matrix_rank(np.linalg.matrix_power(J, k)) == expected
        assert not np.linalg.matrix_power(J, parts[0]).any()


def test_hom_end_orbit_dims():
    assert hom_dim(3, 2) == 2
    assert hom_dim(1, 1) == 1
    assert hom_dim(4, 4) == 4
    for p in range(1, 6):
        assert end_dim(Partition((p,), p)) == p
        if p >= 2:
            assert end_dim(Partition((p - 1, 1), p)) == p + 2
    assert end_dim(Partition((2, 2), 2)) == 8
    assert orbit_dim(Partition((2,), 2)) == 2
    assert orbit_dim(Partition((1, 1), 2)) == 0


def test_orbit_gap_is_two():
    for p in range(2, 9):
        gap = orbit_dim(Partition((p,), p)) - orbit_dim(Partition((p - 1, 1), p))
        assert gap == 2


def test_commutant_oracle_examples():
    assert commutant_dim_oracle(Partition((2, 1), 2)) == 5
    assert commutant_dim_oracle(Partition((1,), 1)) == 1
    assert commutant_dim_oracle(Partition((3,), 3)) == 3
    with pytest.raises(ValueError):
        commutant_dim_oracle(Partition((7, 6), 7))


def test_commutant_oracle_matches_end_dim_up_to_weight_8():
    for d in range(0, 9):
        for p in partitions_bounded(d, max(d, 1)):
            assert commutant_dim_oracle(p) == end_dim(p)


def test_orbit_count_ff_examples():
    assert orbit_count_ff(Partition((1, 1), 2), 2) == 1
    # 2x2 nilpotent of rank 1 over F_q: q^2 - 1
    assert orbit_count_ff(Partition((2,), 2), 2) == 3
    assert orbit_count_ff(Partition((2,), 2), 3) == 8
    with pytest.raises(ValueError):
        orbit_count_ff(Partition((5,), 5), 2)
    with pytest.raises(ValueError):
        orbit_count_ff(Partition((2,), 2), 7)
    with pytest.raises(ValueError):
        orbit_count_ff(Partition((2,), 2), 4)


def test_orbit_count_closed_form_matches_exhaustive():
    # every bounded partition of weight <= 4 and q in {2, 3, 5} that the
    # exhaustive count can enumerate within its point cap
    exhaustive = {}
    checked = 0
    for q in (2, 3, 5):
        for d in range(0, 5):
            if q ** (d * d) > 1 << 24:
                continue
            for m in range(1, max(d, 1) + 1):
                for p in partitions_bounded(d, m):
                    if (p.parts, q) not in exhaustive:
                        exhaustive[p.parts, q] = orbit_count_ff(p, q)
                    assert orbit_count(p, q) == exhaustive[p.parts, q], (p, q)
                    checked += 1
    assert checked == 46
    with pytest.raises(ValueError):
        orbit_count(Partition((2,), 2), 4)


def test_orbit_counts_sum_to_nilpotent_count():
    # Fine-Herstein: there are q^(d^2 - d) nilpotent d x d matrices over F_q
    for q in (2, 3, 5, 7, 11):
        for d in range(0, 7):
            total = sum(orbit_count(p, q) for p in partitions_bounded(d, max(d, 1)))
            assert total == q ** (d * d - d), (d, q)


def test_orbit_counts_cover_all_nilpotents():
    # the orbit counts over all types of weight d must sum to q^(d^2 - d)
    for d, q in [(2, 2), (2, 3), (3, 2)]:
        total = sum(orbit_count_ff(p, q) for p in partitions_bounded(d, d))
        assert total == q ** (d * d - d)


def test_rank_sequence_classification_is_bijective():
    for d in range(0, 7):
        for m in (1, 2, 3, 6):
            seen = {}
            for p in partitions_bounded(d, m):
                ranks = rank_sequence(p)[1:]
                key = tuple(ranks)
                assert key not in seen
                seen[key] = p
                assert partition_from_ranks(d, ranks, m) == p


def test_jordan_assignment_bounds_checked(a1221):
    with pytest.raises(Exception):
        JordanAssignment.for_presentation(
            a1221, [Partition((2,), 3), Partition((2,), 2)]
        )
    ja = JordanAssignment.for_presentation(
        a1221, [Partition((2,), 2), Partition((1, 1), 2)]
    )
    assert ja.dims == (2, 2)
    assert ja.serialize() == "2|1,1"
