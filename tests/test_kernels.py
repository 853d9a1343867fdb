"""Kernel checks: exact sparse rank against an independent fraction-based
elimination over Q and against the sparse elimination it replaced, and the
finite-field kernels against plain-python
elimination over F_p, a brute-force nilpotency filter, the enumeration
that the trace-zero kernel replaced, the batch-first kernels that the
batch-last ones replaced, the full-power enumeration that the column
screen replaced, and the transpose symmetry of the nilpotent set."""
import copy
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilpotent_reference
import rank_reference
from quiverstrata._kernels import enumerate_nilpotent, exact_rank_int, ranks_mod_p


def sparse(rows):
    """Dense integer rows as ``{column: value}`` rows."""
    return [{j: int(v) for j, v in enumerate(row) if v} for row in rows]


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


def python_rank_mod_p(rows, p):
    """Plain Gaussian elimination over F_p on python lists."""
    rows = [[v % p for v in row] for row in rows]
    n = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        pivot_row = [v * inv % p for v in rows[rank]]
        rows[rank] = pivot_row
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pivot_row)]
        rank += 1
    return rank


def python_mat_mul(x, y, q):
    return [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*y)] for row in x]


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
    assert exact_rank_int(sparse(rows)) == fraction_rank(rows)


def test_bigint_path_handles_huge_entries():
    big = 10 ** 40
    rows = [{0: big, 1: 1}, {1: big}, {0: big, 1: big + 1}]
    assert exact_rank_int(rows) == 2


def test_rows_are_divided_by_their_gcd():
    """Each row is divided by the gcd of its entries, as the replaced
    elimination's rows were, which keeps the integers small: without it
    their bit lengths double with each pivot, and this dense 22 x 22 rank
    takes seconds instead of milliseconds."""
    assert rank_reference._reduced({0: 6, 1: -4, 2: 0}) == {0: 3, 1: -2}
    rng = random.Random(5)
    rows = [[rng.randint(-9, 9) for _ in range(22)] for _ in range(22)]
    start = time.perf_counter()
    rank = exact_rank_int(sparse(rows))
    assert time.perf_counter() - start < 0.5
    assert rank == fraction_rank(rows) == rank_reference.sparse_rank_int(sparse(rows))


@st.composite
def sparse_rows(draw):
    """Sparse integer rows with empty rows, explicit zero values and
    entries up to 10^40, some rows integer combinations of earlier ones
    (zeros kept) so that ranks fall short."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-9, 9), st.just(0), st.integers(-10 ** 40, 10 ** 40))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        if rows and draw(st.booleans()):
            row = {}
            for earlier in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                f = draw(entry)
                for c, v in earlier.items():
                    row[c] = row.get(c, 0) + f * v
        else:
            row = draw(st.dictionaries(st.integers(0, n - 1), entry, max_size=n))
        rows.append(row)
    return rows


@settings(max_examples=400, deadline=None)
@given(sparse_rows())
@example([])
@example([{}, {0: 0, 3: 0}, {}])
@example([{}, {2: 0, 5: 4}, {5: -8, 2: 0}, {}])
@example([{0: 3, 2: 0}, {0: 1}])
def test_exact_rank_matches_replaced_sparse_rank(rows):
    """Same rank as the two replaced eliminations, each on its own copy of
    the rows.  The kernel spends its rows: each ends a pivot or empty, one
    pivot per leading column, and they keep their rank."""
    want = rank_reference.sparse_rank_int(copy.deepcopy(rows))
    assert rank_reference.copying_rank_int(copy.deepcopy(rows)) == want
    assert exact_rank_int(rows) == want
    leads = [min(row) for row in rows if row]
    assert len(set(leads)) == len(leads) == want
    assert rank_reference.copying_rank_int(rows) == want


@settings(max_examples=100, deadline=None)
@given(matrices, st.sampled_from([2, 3, 101, 997]))
def test_rank_mod_p_variants_agree(rows, p):
    want = python_rank_mod_p(rows, p)
    # a stack whose members pivot on different rows, the batch axis last
    stack = np.array([rows, rows[::-1], [[0] * len(rows[0])] * len(rows)]) % p
    assert ranks_mod_p(np.moveaxis(stack, 0, 2), p).tolist() == [want, want, 0]


@st.composite
def rank_stacks(draw):
    """A prime p and a (count, m, n) stack over F_p: all-zero and
    single-member stacks, sparse members, and members whose last row is a
    combination of the rows above it, so that ranks fall short."""
    p = draw(st.sampled_from([2, 3, 101, 181, 251, 997]))
    count, m, n = draw(st.integers(1, 9)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    stack = np.array(draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n),
                                            min_size=m, max_size=m),
                                   min_size=count, max_size=count)), np.int64)
    if m > 1:
        for member in stack:
            if draw(st.booleans()):
                f = np.array(draw(st.lists(entry, min_size=m - 1, max_size=m - 1)))
                member[-1] = f @ member[:-1] % p
    return stack, p


@settings(max_examples=150, deadline=None)
@given(rank_stacks())
@example((np.zeros((1, 1, 1), np.int64), 2))
@example((np.zeros((4, 3, 5), np.int64), 997))
@example((np.array([[[0, 2, 1], [0, 1, 2]]]), 3))
def test_ranks_mod_p_matches_batch_first_reference(case):
    """The batch-last row reduction gives every member the rank that the
    replaced (count, m, n) reduction gives it; the input stays as it was."""
    stack, p = case
    batch_last = np.ascontiguousarray(np.moveaxis(stack, 0, 2))
    before = batch_last.copy()
    assert ranks_mod_p(batch_last, p).tolist() == rank_reference.ranks_mod_p(stack, p).tolist()
    assert (batch_last == before).all()


@pytest.mark.parametrize("d,m,q", [(1, 1, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 3, 2),
                                   (2, 5, 2)])
def test_nilpotent_enumeration_variants_agree(d, m, q):
    """Same matrices, in row-major code order, as a brute-force filter of
    all q^(d^2) matrices; each rank row holds rank(X^k), 0 < k < min(m, d)."""
    want_mats, want_ranks = [], []
    for entries in itertools.product(range(q), repeat=d * d):
        x = [list(entries[i * d:(i + 1) * d]) for i in range(d)]
        powers = [x]
        for _ in range(m - 1):
            powers.append(python_mat_mul(powers[-1], x, q))
        if any(any(row) for row in powers[-1]):
            continue
        want_mats.append(x)
        want_ranks.append([python_rank_mod_p(powers[k - 1], q)
                           for k in range(1, min(m, d))])
    mats, ranks = enumerate_nilpotent(d, m, q)
    assert mats.tolist() == want_mats
    assert ranks.tolist() == want_ranks


def test_nilpotent_counts_match_theory():
    # nilpotent d x d matrices over F_q number q^(d^2 - d); at q = 131 a
    # chunk packs many rows of high digits
    for d, q in [(2, 2), (2, 3), (3, 2), (2, 5), (2, 131)]:
        mats, _ = enumerate_nilpotent(d, d, q)
        assert mats.shape[0] == q ** (d * d - d)
    # with the stricter bound X^2 = 0 on 3x3 over F_2: zero plus rank-1
    mats, _ = enumerate_nilpotent(3, 2, 2)
    ranks = [int(np.linalg.matrix_rank(x)) for x in mats]
    assert all((x @ x % 2 == 0).all() for x in mats)
    assert sorted(set(ranks)) == [0, 1]


# every (d, m, q) with q^(d^2) <= 2^16 and 1 <= m <= d + 1, d = 0 included
REFERENCE_CASES = [(d, m, q) for q in (2, 3, 5, 7, 11, 13) for d in range(5)
                   if q ** (d * d) <= 1 << 16 for m in range(1, d + 2)]


@pytest.mark.parametrize("d,m,q", REFERENCE_CASES)
def test_nilpotent_enumeration_matches_reference(d, m, q):
    """The kernel returns exactly what the full enumeration, the
    batch-first trace-zero kernel and the full-power batch-last kernel did."""
    got = enumerate_nilpotent(d, m, q)
    for reference in (nilpotent_reference.enumerate_nilpotent,
                      nilpotent_reference.enumerate_nilpotent_batch_first,
                      nilpotent_reference.enumerate_nilpotent_full_powers):
        for g, w in zip(got, reference(d, m, q)):
            assert g.dtype == w.dtype == np.int64
            assert g.shape == w.shape
            assert (g == w).all()


@pytest.mark.parametrize("d,m,q", [(2, 2, 127), (2, 2, 131), (2, 2, 151), (3, 2, 5), (3, 3, 5),
                                   (4, 4, 2)])
def test_nilpotent_enumeration_matches_batch_first_reference(d, m, q):
    """Past the full enumeration's reach, on both sides of the int16 bound,
    the column-screen kernel returns exactly what the (count, d, d) kernel
    with batched matmul products and the full-power batch-last kernel did."""
    got = enumerate_nilpotent(d, m, q)
    for reference in (nilpotent_reference.enumerate_nilpotent_batch_first,
                      nilpotent_reference.enumerate_nilpotent_full_powers):
        for g, w in zip(got, reference(d, m, q)):
            assert g.dtype == w.dtype == np.int64
            assert g.shape == w.shape
            assert (g == w).all()


@pytest.mark.parametrize("d,m,q", REFERENCE_CASES + [(3, 3, 5), (4, 4, 2)])
def test_nilpotent_set_closed_under_transpose(d, m, q):
    """With no reference: (X^T)^m = (X^m)^T, so X^m = 0 iff (X^T)^m = 0,
    and rank((X^T)^k) = rank(X^k).  So the matrices are closed under
    transpose, and X and X^T have equal rank rows."""
    mats, ranks = enumerate_nilpotent(d, m, q)
    if d == 0:
        assert mats.shape == (1, 0, 0) and ranks.shape == (1, 0)
        return
    codes, flipped = _codes(mats, q), _codes(mats.transpose(0, 2, 1), q)
    assert (np.diff(codes) > 0).all() and np.isin(flipped, codes).all()
    assert (ranks[np.searchsorted(codes, flipped)] == ranks).all()


def _codes(mats, q):
    """The row-major base-q codes of a stack of square matrices."""
    n = mats.shape[1] * mats.shape[2]
    return mats.reshape(-1, n) @ q ** np.arange(n - 1, -1, -1)


@pytest.mark.parametrize("q", [127, 131])
def test_nilpotent_enumeration_at_int16_boundary(q):
    """2 x 2 with X^2 = 0: unreduced powers reach 2 (q - 1)^2, which fits
    int16 at q = 127 and not at q = 131."""
    mats, ranks = enumerate_nilpotent(2, 2, q)
    assert mats.dtype == np.int64 and mats.shape == (q * q, 2, 2)
    assert not (np.matmul(mats, mats) % q).any()
    assert (np.diff(_codes(mats, q)) > 0).all()
    assert ranks.tolist() == [[python_rank_mod_p(x.tolist(), q)] for x in mats]


def test_nilpotent_enumeration_past_int16_overflow():
    """At q = 151 unreduced 2 x 2 squares reach 2 * 150^2 = 45000, and some
    trace-zero X with X^2 = 0 mod q, such as [[150, 141], [136, 1]], have
    an entry of X^2 above 2^15: a too loose int16 bound loses them.  (At
    q = 131 no such X overflows, so the boundary pair cannot show it.)"""
    q = 151
    mats, _ = enumerate_nilpotent(2, 2, q)
    assert mats.shape == (q * q, 2, 2)
    assert not (np.matmul(mats, mats) % q).any()
    assert (np.diff(_codes(mats, q)) > 0).all()
