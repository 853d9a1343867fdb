"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch or certificate policy
failure, 2 input errors.
"""
from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path as FsPath
from typing import Optional, Sequence

from .families import build_family, parse_family_spec
from .fforacle import (EnumerationCapExceeded, enumerate_and_classify,
                       identity_csv, verify_count_identity)
from .formulas import (FormulaCase, SideConditionError, evaluate_case,
                       formula_cases)
from .linsys import BadPrimeError, UnsupportedDegreeError
from .quiver import PresentationError, parse_presentation, serialize_presentation
from .strata import (ScanCapExceeded, assignments_for, dim_vectors_up_to,
                     reducibility_scan, stratum_dim)

__all__ = ["main"]


def _read_presentation(path: str):
    try:
        text = FsPath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PresentationError(f"cannot read {path}: {exc}") from None
    return parse_presentation(text)


def _parse_dim(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise PresentationError(f"bad dimension vector {text!r}") from None


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise PresentationError(f"bad field size list {text!r}") from None


def _dims_for(args, n_vertices: int) -> list[tuple[int, ...]]:
    if args.dim is not None:
        return [_parse_dim(args.dim)]
    if args.max_total is not None:
        return dim_vectors_up_to(n_vertices, args.max_total)
    raise PresentationError("specify --dim or --max-total")


def _map(fn, items: Sequence, jobs: int) -> list:
    """``fn`` over ``items`` in order, in worker processes when more than one
    would run: never more than asked, than there are CPUs, or than there
    are items."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def cmd_strata(args) -> int:
    pres = _read_presentation(args.algebra)
    dims = _parse_dim(args.dim)
    reports = [stratum_dim(pres, ja) for ja in assignments_for(pres, dims)]
    header = ["assignment", "orbit_dims", "N", "c", "dim", "maximal"]
    rows = [[r.assignment.serialize(),
             "|".join(str(o) for o in r.orbit_dims),
             r.ambient_dim, r.codim, r.dim, "*" if r.is_maximal else ""]
            for r in reports]
    if args.format == "csv":
        _emit_csv(header, rows)
    else:
        print(f"algebra: {args.algebra}")
        print(f"d = ({', '.join(str(d) for d in dims)})")
        _emit_table(header, rows)
    return 0


def cmd_reduce_scan(args) -> int:
    pres = _read_presentation(args.algebra)
    dim_list = _dims_for(args, len(pres.quiver.vertices))
    results = _map(_scan_one, [(pres, d, args.cap) for d in dim_list], args.jobs)
    for dims, outcome, text in results:
        label = f"d=({', '.join(str(x) for x in dims)})"
        if outcome == "cert":
            print(f"{label}: REDUCIBLE")
            for line in text.splitlines():
                print(f"  {line}")
        elif outcome == "cap":
            print(f"{label}: scan cap exceeded ({text})")
        else:
            print(f"{label}: no certificate")
    return 0


def _scan_one(work):
    pres, dims, cap = work
    try:
        cert = reducibility_scan(pres, dims, cap=cap)
    except ScanCapExceeded as exc:
        return dims, "cap", f"{exc.count} assignments > cap {exc.cap}"
    if cert is None:
        return dims, "none", ""
    return dims, "cert", cert.to_text()


def cmd_verify_formulas(args) -> int:
    if args.item is not None and (args.p is not None or args.q is not None
                                  or args.l is not None or args.lam is not None):
        lam: Optional[Fraction] = None
        if args.item in (7, 9, 11):
            lam = Fraction(args.lam) if args.lam is not None else Fraction(2)
        elif args.lam is not None:
            raise SideConditionError(f"item {args.item} takes no lambda")
        q_default = 1 if args.item == 1 else 2 if args.item == 2 else None
        q = args.q if args.q is not None else q_default
        if q is None:
            raise SideConditionError("this item needs an explicit --q")
        case = FormulaCase(args.item, args.p or 1, q, args.l, lam, args.h or 3)
        cases = [case]
    else:
        items = [args.item] if args.item is not None else None
        cases = formula_cases(p_max=args.p_max, items=items)
    outcomes = _map(evaluate_case, cases, args.jobs)
    header = ["item", "p", "q", "l", "lambda", "h", "closed_form", "computed", "match"]
    rows = []
    mismatches = 0
    for case, (expected, computed) in zip(cases, outcomes):
        match = expected == computed
        if not match:
            mismatches += 1
        rows.append([case.item, case.p, case.q,
                     case.l if case.l is not None else "",
                     str(case.lam) if case.lam is not None else "",
                     case.h, expected, computed, "ok" if match else "MISMATCH"])
    if args.format == "csv":
        _emit_csv(header, rows)
    else:
        _emit_table(header, rows)
        print(f"{len(rows)} cases, {mismatches} mismatches")
    return 1 if mismatches else 0


def cmd_oracle_count(args) -> int:
    pres = _read_presentation(args.algebra)
    dims = _parse_dim(args.dim)
    failures = 0
    for q in _parse_primes(args.q):
        table = enumerate_and_classify(pres, dims, q, max_points=args.cap)
        rows = verify_count_identity(table, pres)
        sys.stdout.write(identity_csv(q, rows))
        bad = [r for r in rows if not r.ok]
        failures += len(bad)
        covered = sum(r.count for r in rows)
        if covered != table.total:
            failures += 1
            print(f"# q={q}: stratum counts cover {covered} of {table.total} points")
    return 1 if failures else 0


def cmd_family(args) -> int:
    tag = parse_family_spec(args.spec)
    pres = build_family(tag)
    text = f"# {tag.spec_string()}\n" + serialize_presentation(pres)
    if args.output:
        FsPath(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _emit_table(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    cells = [[str(x) for x in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in cells:
        print("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverstrata",
        description="Stratification toolkit for bound quiver algebras with loops",
    )
    parser.add_argument("--timing", action="store_true",
                        help="print the elapsed time to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("strata", help="stratum table for one dimension vector")
    p.add_argument("--algebra", required=True, help="presentation file")
    p.add_argument("--dim", required=True, help="dimension vector, e.g. 2,2")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("reduce-scan", help="reducibility certificates over dimension vectors")
    p.add_argument("--algebra", required=True)
    p.add_argument("--dim", help="single dimension vector")
    p.add_argument("--max-total", type=int,
                   help="scan all vectors with entry sum up to this bound")
    p.add_argument("--cap", type=int, default=100_000,
                   help="assignments per vector before giving up")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_reduce_scan)

    p = sub.add_parser("verify-formulas", help="closed-form codimension sweep")
    p.add_argument("--p-max", type=int, default=6)
    p.add_argument("--item", type=int, choices=range(1, 12))
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--lambda", dest="lam", help="rational, e.g. 1/2")
    p.add_argument("--h", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_verify_formulas)

    p = sub.add_parser("oracle-count", help="exhaustive finite-field count identity")
    p.add_argument("--algebra", required=True)
    p.add_argument("--dim", required=True)
    p.add_argument("--q", required=True, help="prime field sizes, e.g. 2,3")
    p.add_argument("--cap", type=int, default=2_000_000,
                   help="enumeration point budget")
    p.set_defaults(func=cmd_oracle_count)

    p = sub.add_parser("family", help="emit the presentation file for a family tag")
    p.add_argument("spec", help="A(h,m0,m1,n) | Aprime(h,m0,m1) | truncpoly(m)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_family)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except (PresentationError, SideConditionError, EnumerationCapExceeded,
            BadPrimeError, UnsupportedDegreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
