"""Checks of the CLI outputs that share no code with quiverstrata.

Every expected value here is computed from the mathematics alone: the
closed forms copied from the ``formulas`` module docstring, the relation
systems of the families ``A(h,m0,m1,n)`` and ``truncpoly(m)`` built from
their definitions, ranks over Q (sympy) and over F_q (elimination below),
orbit sizes |GL_d(F_q)| / |C(J_lambda)| from the centralizer order in
Macdonald, *Symmetric Functions and Hall Polynomials*, Ch. II (1.6), and
the count q^(d(d-1)) of nilpotent d x d matrices (Fine and Herstein 1958).

Each ``check_*`` function returns a list of error strings, empty when the
output is right.  ``self_test`` feeds every check one wrong value and
returns the checks that failed to notice it.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

# ---------------------------------------------------------------------------
# closed-form codimensions (formulas module docstring, items 1..11)
# ---------------------------------------------------------------------------

CLOSED_FORMS = {
    1: lambda p, q, l: p - l,
    2: lambda p, q, l: 2 * (p - l),
    3: lambda p, q, l: q * (p - 1),
    4: lambda p, q, l: p * q - 1,
    5: lambda p, q, l: q * (p - 1) + 1,
    6: lambda p, q, l: l,
    7: lambda p, q, l: 2,
    8: lambda p, q, l: 3,
    9: lambda p, q, l: 4,
    10: lambda p, q, l: l + 1,
    11: lambda p, q, l: l + 1,
}


@dataclass(frozen=True)
class FormulaRow:
    item: int
    p: int
    q: int
    l: Optional[int]
    lam: Optional[Fraction]
    h: int
    closed_form: int
    computed: int
    match: str


def parse_formula_csv(text: str) -> list[FormulaRow]:
    lines = text.splitlines()
    if not lines or lines[0] != "item,p,q,l,lambda,h,closed_form,computed,match":
        raise ValueError("verify-formulas csv header missing")
    rows = []
    for line in lines[1:]:
        item, p, q, l, lam, h, cf, comp, match = line.split(",")
        rows.append(FormulaRow(int(item), int(p), int(q), int(l) if l else None,
                               Fraction(lam) if lam else None, int(h),
                               int(cf), int(comp), match))
    return rows


def check_formula_rows(rows: list[FormulaRow], item: int) -> list[str]:
    errors = []
    if not rows:
        errors.append(f"item {item}: no cases")
    if len(set(rows)) != len(rows):
        errors.append(f"item {item}: repeated cases")
    for r in rows:
        want = CLOSED_FORMS[item](r.p, r.q, r.l)
        if r.item != item or r.computed != want or r.closed_form != want \
                or r.match != "ok":
            errors.append(f"item {item}: {r} should have codimension {want}")
    return errors


# ---------------------------------------------------------------------------
# partitions, Jordan matrices, orbit sizes
# ---------------------------------------------------------------------------

def bounded_partitions(d: int, m: int) -> list[tuple[int, ...]]:
    """Partitions of d with parts <= m, as decreasing tuples."""
    if d == 0:
        return [()]
    return [(first,) + rest
            for first in range(min(d, m), 0, -1)
            for rest in bounded_partitions(d - first, first)]


def maximal_parts(d: int, m: int) -> tuple[int, ...]:
    full, r = divmod(d, m)
    return (m,) * full + ((r,) if r else ())


def parse_parts(text: str) -> tuple[int, ...]:
    return () if text == "-" else tuple(int(x) for x in text.split(","))


def jordan(parts: tuple[int, ...]) -> np.ndarray:
    d = sum(parts)
    out = np.zeros((d, d), dtype=np.int64)
    off = 0
    for size in parts:
        for i in range(size - 1):
            out[off + i, off + i + 1] = 1
        off += size
    return out


def orbit_dim(parts: tuple[int, ...]) -> int:
    d = sum(parts)
    return d * d - sum(min(a, b) for a in parts for b in parts)


def gl_order(d: int, q: int) -> int:
    out = 1
    for k in range(d):
        out *= q ** d - q ** k
    return out


def centralizer_order(parts: tuple[int, ...], q: int) -> int:
    """|C_GL(J_lambda)| = q^(sum lambda'_i^2) prod_i prod_{k<=m_i} (1 - q^-k)."""
    conj = [sum(1 for p in parts if p > i) for i in range(max(parts, default=0))]
    mults = Counter(parts).values()
    out = q ** (sum(c * c for c in conj) - sum(m * (m + 1) // 2 for m in mults))
    for m in mults:
        for k in range(1, m + 1):
            out *= q ** k - 1
    return out


def orbit_size(parts: tuple[int, ...], q: int) -> int:
    return gl_order(sum(parts), q) // centralizer_order(parts, q)


# ---------------------------------------------------------------------------
# family relation systems and their ranks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """A(h, m0, m1, n): loops of orders m0, m1, arrows a1..ah from 1 to 0,
    one relation sum_i e0^(n-i) a1 e1^i (terms with a loop power at or above
    its order dropped).  truncpoly(m): one vertex, one loop of order m."""

    spec: str
    kind: str
    orders: tuple[int, ...]
    h: int = 0
    n: int = 0

    @property
    def irreducible(self) -> bool:
        """On the paper's list: A(h,m,m,n) with n in {1, m-1}, truncpoly."""
        if self.kind == "truncpoly":
            return True
        m0, m1 = self.orders
        return m0 == m1 and self.n in (1, m0 - 1)


def family(spec: str) -> Family:
    kind, args = spec.rstrip(")").split("(")
    nums = tuple(int(x) for x in args.split(","))
    if kind == "A":
        h, m0, m1, n = nums
        return Family(spec, kind, (m0, m1), h, n)
    return Family(spec, kind, nums)


def ambient_dim(fam: Family, dims: tuple[int, ...]) -> int:
    return fam.h * dims[0] * dims[1] if fam.kind == "A" else 0


def relation_matrix(fam: Family, loops: tuple[np.ndarray, ...]) -> np.ndarray:
    """Matrix of X -> sum_i X0^(n-i) X X1^i on row-major entries of X (d0 x d1)."""
    x0, x1 = loops
    d0, d1 = x0.shape[0], x1.shape[0]
    m0, m1 = fam.orders
    out = np.zeros((d0 * d1, d0 * d1), dtype=np.int64)
    for i in range(fam.n + 1):
        if fam.n - i < m0 and i < m1:
            left = np.linalg.matrix_power(x0, fam.n - i)
            right = np.linalg.matrix_power(x1, i)
            out += np.kron(left, right.T)
    return out


def rank_rational(mat: np.ndarray) -> int:
    """Rank over the rationals."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if mat.size == 0:
        return 0
    rows = [[QQ(int(x)) for x in row] for row in mat]
    return DomainMatrix(rows, mat.shape, QQ).rank()


def rank_mod(mat: np.ndarray, q: int) -> int:
    """Rank over F_q by Gaussian elimination on Python ints."""
    rows = [[int(x) % q for x in row] for row in mat]
    rank = 0
    for col in range(mat.shape[1]):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        prow = [x * inv % q for x in rows[rank]]
        rows[rank] = prow
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % q for x, y in zip(rows[r], prow)]
        rank += 1
    return rank


def codim(fam: Family, assignment: tuple[tuple[int, ...], ...]) -> int:
    if fam.kind != "A":
        return 0
    return rank_rational(relation_matrix(fam, tuple(jordan(p) for p in assignment)))


def nilpotent_matrices(d: int, m: int, q: int) -> list[np.ndarray]:
    """Every d x d matrix X over F_q with X^m = 0, by exhaustion."""
    if d == 0:
        return [np.zeros((0, 0), np.int64)]
    codes = np.arange(q ** (d * d), dtype=np.int64)
    mats = np.stack([(codes // q ** k) % q for k in range(d * d)], axis=1)
    mats = mats.reshape(-1, d, d)
    power = mats.copy()
    for _ in range(m - 1):
        power = power @ mats % q
    return list(mats[~power.reshape(len(mats), -1).any(axis=1)])


def total_points(fam: Family, dims: tuple[int, ...], q: int) -> int:
    """Points of the representation scheme over F_q: for truncpoly(m) with
    m >= d every nilpotent matrix (Fine-Herstein), for A(...) the sum of
    q^(N - rank) over every pair of nilpotent loop matrices."""
    if fam.kind != "A":
        (d,), (m,) = dims, fam.orders
        return q ** (d * (d - 1)) if m >= d else len(nilpotent_matrices(d, m, q))
    loops = [nilpotent_matrices(d, m, q) for d, m in zip(dims, fam.orders)]
    n = ambient_dim(fam, dims)
    return sum(q ** (n - rank_mod(relation_matrix(fam, pair), q))
               for pair in itertools.product(*loops))


# ---------------------------------------------------------------------------
# reduce-scan output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    dims: tuple[int, ...]
    maximal: tuple[tuple[int, ...], ...]
    witness: tuple[tuple[int, ...], ...]
    n: int
    c_max: int
    c_wit: int
    dim_max: int
    dim_wit: int
    margin: int
    codim_gap: int
    orbit_gaps: tuple[int, ...]


def _dims_of(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.strip("()").split(","))


def _assignment(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(parse_parts(p) for p in text.split("|"))


def parse_scan(text: str) -> tuple[list[tuple[tuple[int, ...], str]], list[Certificate]]:
    """(dimension vector, outcome) per line, and the certificates."""
    outcomes, certs = [], []
    lines = text.splitlines()
    k = 0
    while k < len(lines):
        head, _, outcome = lines[k].partition(": ")
        dims = _dims_of(head[2:])
        outcomes.append((dims, outcome))
        k += 1
        if outcome != "REDUCIBLE":
            continue
        block = {}
        while k < len(lines) and lines[k].startswith("  "):
            key, _, val = lines[k].strip().partition(": ")
            block[key] = val
            k += 1
        decomp = block["margin decomposition"]
        gaps = decomp[decomp.index("(") + 1:decomp.index(")")]
        certs.append(Certificate(
            _dims_of(block["dimension vector"]),
            _assignment(block["maximal assignment"]),
            _assignment(block["witness assignment"]),
            int(block["ambient arrow dim N"]),
            int(block["c (maximal)"]), int(block["c (witness)"]),
            int(block["dim (maximal)"]), int(block["dim (witness)"]),
            int(block["margin"]),
            int(decomp.split()[2]),
            tuple(int(g) for g in gaps.split(",")),
        ))
    return outcomes, certs


def check_scan_outcomes(fam: Family, total: int,
                        outcomes: list[tuple[tuple[int, ...], str]]) -> list[str]:
    """Every vector up to ``total`` appears in order; an irreducible family
    has no certificate."""
    errors = []
    want = [d for d in itertools.product(range(total + 1), repeat=2) if sum(d) <= total]
    if [d for d, _ in outcomes] != want:
        errors.append(f"{fam.spec}: scanned vectors differ from all d with |d| <= {total}")
    for dims, outcome in outcomes:
        if outcome not in ("REDUCIBLE", "no certificate"):
            errors.append(f"{fam.spec} d={dims}: unexpected outcome {outcome!r}")
        elif fam.irreducible and outcome == "REDUCIBLE":
            errors.append(f"{fam.spec} d={dims}: certificate on an irreducible family")
    return errors


def check_known_certificate(fam: Family, certs: list[Certificate]) -> list[str]:
    """A(1, n+2, n+2, n) has a certificate at (n+2, 2) with c = 4 at the
    maximal stratum and c = 2 at the witness."""
    at = (fam.n + 2, 2)
    hits = [c for c in certs if c.dims == at]
    if len(hits) != 1 or (hits[0].c_max, hits[0].c_wit) != (4, 2):
        return [f"{fam.spec}: no certificate at d={at} with c = 4 and 2"]
    return []


def check_certificate(fam: Family, cert: Certificate) -> list[str]:
    """Margin = codimension gap + orbit gaps, with every term recomputed;
    both codimensions re-ranked over Q."""
    errors = []
    dims = cert.dims
    where = f"{fam.spec} d={dims}"
    want_max = tuple(maximal_parts(d, m) for d, m in zip(dims, fam.orders))
    if cert.maximal != want_max:
        errors.append(f"{where}: maximal assignment {cert.maximal}, want {want_max}")
    valid = all(parts in bounded_partitions(d, m)
                for parts, d, m in zip(cert.witness, dims, fam.orders))
    if not valid or cert.witness == want_max:
        errors.append(f"{where}: witness {cert.witness} is not a non-maximal type")
        return errors
    n = ambient_dim(fam, dims)
    c_max, c_wit = codim(fam, cert.maximal), codim(fam, cert.witness)
    orb_max = [orbit_dim(p) for p in cert.maximal]
    orb_wit = [orbit_dim(p) for p in cert.witness]
    dim_max = sum(orb_max) + n - c_max
    dim_wit = sum(orb_wit) + n - c_wit
    gaps = tuple(w - m for w, m in zip(orb_wit, orb_max))
    margin = dim_wit - dim_max
    got = (cert.n, cert.c_max, cert.c_wit, cert.dim_max, cert.dim_wit,
           cert.margin, cert.codim_gap, cert.orbit_gaps)
    want = (n, c_max, c_wit, dim_max, dim_wit, margin, c_max - c_wit, gaps)
    if got != want:
        errors.append(f"{where}: (N, c, c, dim, dim, margin, gap, orbit gaps) "
                      f"= {got}, want {want}")
    if margin < 0 or margin != (c_max - c_wit) + sum(gaps):
        errors.append(f"{where}: margin {margin} is not a certificate")
    return errors


# ---------------------------------------------------------------------------
# oracle-count output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountRow:
    assignment: tuple[tuple[int, ...], ...]
    count: int
    q: int
    predicted: int
    verdict: str


def parse_counts(text: str) -> list[CountRow]:
    import csv
    rows = []
    for rec in csv.reader(text.splitlines()):
        if rec == ["assignment", "count", "q", "predicted", "pass"]:
            continue
        rows.append(CountRow(_assignment(rec[0]), int(rec[1]), int(rec[2]),
                             int(rec[3]), rec[4]))
    return rows


def check_stratum_counts(fam: Family, dims: tuple[int, ...], q: int,
                         rows: list[CountRow]) -> list[str]:
    """One row per Jordan type; count = prod orbit sizes * q^(N - c)."""
    errors = []
    want_types = list(itertools.product(
        *(bounded_partitions(d, m) for d, m in zip(dims, fam.orders))))
    if sorted(r.assignment for r in rows) != sorted(want_types) \
            or any(r.q != q for r in rows):
        errors.append(f"{fam.spec} d={dims} q={q}: rows do not cover the Jordan types")
    n = ambient_dim(fam, dims)
    for r in rows:
        want = q ** n
        for parts in r.assignment:
            want *= orbit_size(parts, q)
        if fam.kind == "A":
            mat = relation_matrix(fam, tuple(jordan(p) for p in r.assignment))
            want //= q ** rank_mod(mat, q)
        if (r.count, r.predicted, r.verdict) != (want, want, "pass"):
            errors.append(f"{fam.spec} d={dims} q={q}: {r} should count {want}")
    return errors


def check_points_total(fam: Family, dims: tuple[int, ...], q: int,
                       counted: int, points: int) -> list[str]:
    """The stratum counts add up to the points of the scheme."""
    if counted != points:
        return [f"{fam.spec} d={dims} q={q}: strata cover {counted} points, "
                f"the scheme has {points}"]
    return []


def check_nilpotent_count(d: int, q: int, count: int) -> list[str]:
    """There are q^(d(d-1)) nilpotent d x d matrices over F_q."""
    if count != q ** (d * (d - 1)):
        return [f"{count} nilpotent {d}x{d} matrices over F_{q}, "
                f"want {q ** (d * (d - 1))}"]
    return []


# ---------------------------------------------------------------------------
# self-test: every check must reject one wrong value
# ---------------------------------------------------------------------------

def self_test() -> list[str]:
    """Names of the checks that accepted a wrong value (empty when all bite)."""
    missed = []

    def expect_error(name, errors):
        if not errors:
            missed.append(name)

    row = FormulaRow(3, 4, 2, None, None, 1, 6, 6, "ok")
    if check_formula_rows([row], 3):
        missed.append("formula check rejects a right row")
    expect_error("formula value", check_formula_rows([replace(row, computed=7)], 3))

    fam_irr, fam_red = family("A(1,3,3,1)"), family("A(1,4,4,2)")
    expect_error("irreducible family",
                 check_scan_outcomes(fam_irr, 1, [((0, 0), "no certificate"),
                                                  ((0, 1), "no certificate"),
                                                  ((1, 0), "REDUCIBLE")]))
    good = Certificate((4, 2), ((4,), (2,)), ((3, 1), (2,)), 8, 4, 2,
                       18, 18, 0, 2, (-2, 0))
    # the right certificate is recomputed first, so a check that always
    # fails cannot pass this test
    if check_certificate(fam_red, good) or check_known_certificate(fam_red, [good]):
        missed.append("certificate checks reject a right certificate")
    expect_error("known certificate", check_known_certificate(fam_red, []))
    expect_error("margin decomposition",
                 check_certificate(fam_red, replace(good, margin=1)))
    # a witness codimension of 3 with every printed figure consistent with it
    expect_error("codimension re-rank",
                 check_certificate(fam_red, replace(good, c_wit=3, dim_wit=17,
                                                    margin=-1, codim_gap=1)))

    fam = family("A(1,2,2,1)")
    rows = [CountRow(a, 0, 2, 0, "pass") for a in
            itertools.product(bounded_partitions(1, 2), bounded_partitions(1, 2))]
    rows = [replace(r, count=2, predicted=2) for r in rows]  # N = 1, c = 0
    if check_stratum_counts(fam, (1, 1), 2, rows):
        missed.append("stratum check rejects a right count")
    expect_error("stratum count", check_stratum_counts(
        fam, (1, 1), 2, [replace(rows[0], count=3, predicted=3)]))
    expect_error("points total", check_points_total(
        fam, (1, 1), 2, 3, total_points(fam, (1, 1), 2)))
    expect_error("nilpotent count", check_nilpotent_count(
        2, 3, len(nilpotent_matrices(2, 2, 3)) + 1))
    return missed
