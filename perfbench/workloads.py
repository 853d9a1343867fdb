"""The four workloads: their CLI operations, inputs and output checks.

An operation is one ``quiverstrata`` command line.  A workload's pass runs
every operation once, in an order drawn from the seed; the seed also
renames the vertices and arrows of each presentation file.  Neither
changes the mathematics, so every seed gives the same outputs (the stdout
digest is seed-independent) and the same amount of work.

Import this module only after ``src`` is on ``sys.path``: it imports the
package, which is part of the measured set-up.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

import quiverstrata.cli  # noqa: F401  (the set-up imports what a CLI run imports)
from quiverstrata import families, quiver

import checks


@dataclass(frozen=True)
class Op:
    key: str                      # seed-independent name, orders the digest
    argv: tuple[str, ...]         # "{file}" stands for the presentation path
    check: Callable[[str], list[str]]
    text: str = ""                # presentation file contents, if any


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # a check over the outputs of all operations, keyed by Op.key
    check_all: Callable[[dict[str, str]], list[str]] = lambda outputs: []


def _renamed(spec: str, rng: random.Random) -> str:
    """The family's presentation with every vertex and arrow renamed."""
    text = quiver.serialize_presentation(
        families.build_family(families.parse_family_spec(spec)))
    names = re.findall(r"^(?:vertex|loop|arrow) (\S+)", text, flags=re.M)
    fresh = rng.sample(range(100, 1000), len(names))
    new = {old: f"{'v' if old.isdigit() else 'x'}{k}" for old, k in zip(names, fresh)}
    lines = [f"# {spec}, seed-renamed"]
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "relation":
            rest = re.sub(r"[A-Za-z_]\w*", lambda m: new[m.group(0)], rest)
        else:
            rest = " ".join(new.get(tok, tok) for tok in rest.split(" "))
        lines.append(f"{head} {rest}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# formulas: the closed-form sweep, one operation per item
# ---------------------------------------------------------------------------

FORMULA_P_MAX = 6
FORMULA_CASES = 593          # cases of the sweep at p <= 6, h <= 3, three lambdas


def _formula_check(item: int):
    return lambda out: checks.check_formula_rows(checks.parse_formula_csv(out), item)


def _formulas_total(outputs: dict[str, str]) -> list[str]:
    n = sum(len(out.splitlines()) - 1 for out in outputs.values())
    return [] if n == FORMULA_CASES else [f"sweep has {n} cases, want {FORMULA_CASES}"]


def formulas(rng: random.Random) -> Workload:
    items = rng.sample(range(1, 12), 11)
    return Workload("formulas", [
        Op(f"verify-formulas item {k}",
           ("verify-formulas", "--p-max", str(FORMULA_P_MAX), "--item", str(k),
            "--format", "csv"),
           _formula_check(k))
        for k in items], _formulas_total)


# ---------------------------------------------------------------------------
# scan: reduce-scan over irreducible and reducible A families
# ---------------------------------------------------------------------------

SCAN_TOTAL = 9
SCAN_FAMILIES = [
    # A(1,m,m,1) and A(1,m,m,m-1), on the paper's list: full scans, no certificate
    "A(1,3,3,2)", "A(1,4,4,1)", "A(1,4,4,3)", "A(1,5,5,4)",
    # A(1,n+2,n+2,n), reducible: each vector stops at its first certificate
    "A(1,4,4,2)", "A(1,5,5,3)", "A(1,6,6,4)",
]


def _scan_check(spec: str, total: int):
    fam = checks.family(spec)

    def check(out: str) -> list[str]:
        outcomes, certs = checks.parse_scan(out)
        errors = checks.check_scan_outcomes(fam, total, outcomes)
        if not fam.irreducible:
            errors += checks.check_known_certificate(fam, certs)
        for cert in certs:
            errors += checks.check_certificate(fam, cert)
        return errors
    return check


def scan(rng: random.Random) -> Workload:
    specs = rng.sample(SCAN_FAMILIES, len(SCAN_FAMILIES))
    return Workload("scan", [
        Op(f"reduce-scan {spec} --max-total {SCAN_TOTAL}",
           ("reduce-scan", "--algebra", "{file}", "--max-total", str(SCAN_TOTAL)),
           _scan_check(spec, SCAN_TOTAL), _renamed(spec, rng))
        for spec in specs])


# ---------------------------------------------------------------------------
# oracle workloads: exhaustive finite-field counts
# ---------------------------------------------------------------------------

TALLY_FAMILY = "A(2,3,3,1)"
TALLY_CASES = [("2,2", "2"), ("3,1", "2"), ("1,3", "2"), ("2,1", "3,5"), ("1,2", "3,5")]
LOOPS_FAMILY = "truncpoly(3)"
# q = 7 exits 2 until partitions.orbit_count_ff accepts q > 5
LOOPS_CASES = [("3", "3"), ("4", "2"), ("2", "7")]


def _oracle_check(spec: str, dim: str):
    fam = checks.family(spec)
    dims = tuple(int(x) for x in dim.split(","))

    def check(out: str) -> list[str]:
        rows = checks.parse_counts(out)
        errors = []
        for q in sorted({r.q for r in rows}):
            mine = [r for r in rows if r.q == q]
            errors += checks.check_stratum_counts(fam, dims, q, mine)
            errors += checks.check_points_total(
                fam, dims, q, sum(r.count for r in mine),
                checks.total_points(fam, dims, q))
        return errors
    return check


def _oracle(name: str, spec: str, cases, rng: random.Random) -> Workload:
    text = _renamed(spec, rng)
    cases = rng.sample(cases, len(cases))
    return Workload(name, [
        Op(f"oracle-count {spec} --dim {dim} --q {qs}",
           ("oracle-count", "--algebra", "{file}", "--dim", dim, "--q", qs),
           _oracle_check(spec, dim), text)
        for dim, qs in cases])


def oracle_tally(rng: random.Random) -> Workload:
    return _oracle("oracle-tally", TALLY_FAMILY, TALLY_CASES, rng)


def oracle_loops(rng: random.Random) -> Workload:
    return _oracle("oracle-loops", LOOPS_FAMILY, LOOPS_CASES, rng)


BUILDERS = {
    "formulas": formulas,
    "scan": scan,
    "oracle-tally": oracle_tally,
    "oracle-loops": oracle_loops,
}
