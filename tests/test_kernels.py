"""Kernel checks: exact integer rank against an independent fraction-based
elimination, and backend parity of the finite-field kernels (the njit
kernels and the numpy fallbacks must agree)."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverstrata import _kernels
from quiverstrata._kernels import (_enumerate_nilpotent_loops,
                                   _enumerate_nilpotent_numpy, _rank_mod_p_loops,
                                   _rank_mod_p_numpy, enumerate_nilpotent,
                                   exact_rank_int, rank_mod_p)


def fraction_rank(rows):
    """Plain Gaussian elimination over Fraction; the reference answer."""
    rows = [[Fraction(v) for v in row] for row in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(m):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_exact_rank_matches_fraction_elimination(rows):
    assert exact_rank_int(rows) == fraction_rank(rows)


def test_bigint_path_handles_huge_entries():
    big = 10 ** 40
    rows = [[big, 1], [0, big], [big, big + 1]]
    assert exact_rank_int(rows) == 2


@settings(max_examples=100, deadline=None)
@given(matrices, st.sampled_from([2, 3, 101, 997]))
def test_rank_mod_p_variants_agree(rows, p):
    a = np.array(rows, dtype=np.int64) % p
    got_loops = _rank_mod_p_loops(a.copy(), p)
    got_numpy = _rank_mod_p_numpy(a.copy(), p)
    assert got_loops == got_numpy == rank_mod_p(rows, p)


def test_rank_mod_p_known_values():
    assert rank_mod_p([[1, 0], [0, 1]], 2) == 2
    assert rank_mod_p([[2, 4], [1, 2]], 2) == 1  # reduces to a single row
    assert rank_mod_p([[2, 4], [1, 2]], 3) == 1  # proportional rows
    assert rank_mod_p([[2, 4], [1, 3]], 3) == 2


@pytest.mark.parametrize("d,m,q", [(1, 1, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 3, 2)])
def test_nilpotent_enumeration_variants_agree(d, m, q):
    cap = q ** (d * d)
    out1 = np.zeros((cap, d, d), np.int64)
    sig1 = np.zeros(cap, np.int64)
    n1 = _enumerate_nilpotent_loops(d, m, q, out1, sig1)
    out2 = np.zeros((cap, d, d), np.int64)
    sig2 = np.zeros(cap, np.int64)
    n2 = _enumerate_nilpotent_numpy(d, m, q, out2, sig2)
    assert n1 == n2
    assert np.array_equal(out1[:n1], out2[:n2])
    assert np.array_equal(sig1[:n1], sig2[:n2])


def test_nilpotent_counts_match_theory():
    # nilpotent d x d matrices over F_q number q^(d^2 - d)
    for d, q in [(2, 2), (2, 3), (3, 2), (2, 5)]:
        mats, _ = enumerate_nilpotent(d, d, q)
        assert mats.shape[0] == q ** (d * d - d)
    # with the stricter bound X^2 = 0 on 3x3 over F_2: zero plus rank-1
    mats, sigs = enumerate_nilpotent(3, 2, 2)
    ranks = [int(np.linalg.matrix_rank(x)) for x in mats]
    assert all((x @ x % 2 == 0).all() for x in mats)
    assert sorted(set(ranks)) == [0, 1]


def test_backend_reports_name():
    assert _kernels.backend_name() in ("numba", "numpy")
