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
from pathlib import Path as FsPath
from typing import Iterable, Optional, Sequence

from .families import build_family, parse_family_spec
from .fforacle import enumerate_and_classify, verify_count_identity
from .formulas import evaluate_case, formula_sweep, single_case
from .linsys import PartPairTable
from .quiver import parse_presentation, serialize_presentation
from .strata import ScanCapExceeded, dim_vectors_up_to, reducibility_scan, stratum_rows

__all__ = ["main"]


def _read_presentation(path: str):
    try:
        text = FsPath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_presentation(text)


def _parse_dim(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad dimension vector {text!r}") from None


def _parse_primes(text: str) -> list[int]:
    try:
        primes = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"bad field size list {text!r}") from None
    if len(set(primes)) < len(primes):
        raise ValueError(f"repeated field size in {text!r}")
    return primes


def _dims_for(args, n_vertices: int) -> Iterable[tuple[int, ...]]:
    if args.dim is not None:
        return [_parse_dim(args.dim)]
    if args.max_total < 0:
        raise ValueError(f"--max-total must be at least 0, got {args.max_total}")
    return dim_vectors_up_to(n_vertices, args.max_total)


def cmd_strata(args) -> int:
    pres = _read_presentation(args.algebra)
    dims = _parse_dim(args.dim)
    rows = stratum_rows(PartPairTable(pres), dims, args.cap)
    header = ["assignment", "orbit_dims", "N", "c", "dim", "maximal"]
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
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    n = min(args.jobs, os.cpu_count() or 1)
    if n > 1:  # only a pooled run lists the vectors
        dim_list = list(dim_list)
        n = min(n, len(dim_list))
    if n == 1:  # each report is printed as soon as it is scanned
        table = PartPairTable(pres)
        for dims in dim_list:
            print(_scan_one(table, dims, args.cap))
        return 0
    # one task per worker process, never more than asked, than CPUs or than
    # vectors; task k scans every n-th vector from the k-th, so tasks cost alike
    tasks = [(pres, dim_list[k::n], args.cap) for k in range(n)]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run loads it
    with ProcessPoolExecutor(max_workers=n) as pool:
        slices = list(pool.map(_scan_slice, tasks))
    for i in range(len(dim_list)):
        print(slices[i % n][i // n])
    return 0


def _scan_slice(task) -> list[str]:
    """The reports that ``reduce-scan`` prints for some dimension vectors,
    all from one part-pair table."""
    pres, dim_list, cap = task
    table = PartPairTable(pres)
    return [_scan_one(table, dims, cap) for dims in dim_list]


def _scan_one(table: PartPairTable, dims: tuple[int, ...], cap: int) -> str:
    """The report that ``reduce-scan`` prints for one dimension vector."""
    label = f"d=({', '.join(str(x) for x in dims)})"
    try:
        cert = reducibility_scan(table, dims, cap=cap)
    except ScanCapExceeded as exc:
        return f"{label}: scan cap exceeded ({exc.count} assignments > cap {exc.cap})"
    if cert is None:
        return f"{label}: no certificate"
    return "\n".join([f"{label}: REDUCIBLE",
                      *(f"  {line}" for line in cert.to_text().splitlines())])


def cmd_verify_formulas(args) -> int:
    single = (args.p, args.q, args.l, args.lam, args.h)
    if any(x is not None for x in single):
        if args.item is None:
            raise ValueError("--p, --q, --l, --lambda and --h need --item")
        if args.p_max is not None:
            raise ValueError("--p-max is for the sweep, not a single case")
        case = single_case(args.item, *single)
        swept = [(case.item, case.p, case.q, case.l, case.lam, case.h, *evaluate_case(case))]
    else:
        if args.p_max is not None and args.p_max < 1:
            raise ValueError(f"--p-max must be at least 1, got {args.p_max}")
        swept = formula_sweep(6 if args.p_max is None else args.p_max,
                              None if args.item is None else [args.item])
    header = ["item", "p", "q", "l", "lambda", "h", "closed_form", "computed", "match"]
    rows = [[item, p, q, "" if l is None else l, "" if lam is None else str(lam), h,
             expected, computed, "ok" if expected == computed else "MISMATCH"]
            for item, p, q, l, lam, h, expected, computed in swept]
    mismatches = sum(row[-1] != "ok" for row in rows)
    if args.format == "csv":
        _emit_csv(header, rows)
    else:
        _emit_table(header, rows)
        print(f"{len(rows)} cases, {mismatches} mismatches")
    return 1 if mismatches else 0


def cmd_oracle_count(args) -> int:
    pres = _read_presentation(args.algebra)
    dims = _parse_dim(args.dim)
    table = PartPairTable(pres)
    # every prime's counts and identity rows first: an error prints nothing
    results = []
    for q in _parse_primes(args.q):
        counts = enumerate_and_classify(pres, dims, q, max_points=args.cap)
        results.append((q, counts, verify_count_identity(counts, table)))
    failures = 0
    for q, counts, rows in results:
        _emit_csv(["assignment", "count", "q", "predicted", "pass"],
                  [[r.assignment.serialize(), r.count, q, r.predicted,
                    "pass" if r.ok else "fail"] for r in rows])
        bad = [r for r in rows if not r.ok]
        failures += len(bad)
        covered = sum(r.count for r in rows)
        if covered != counts.total:
            failures += 1
            print(f"# q={q}: stratum counts cover {covered} of {counts.total} points")
    return 1 if failures else 0


def cmd_family(args) -> int:
    tag = parse_family_spec(args.spec)
    pres = build_family(tag)
    text = f"# {tag.spec_string()}\n" + serialize_presentation(pres)
    if args.output:
        try:
            FsPath(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from None
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
    p.add_argument("--cap", type=int, default=100_000,
                   help="assignments before giving up")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("reduce-scan", help="reducibility certificates over dimension vectors")
    p.add_argument("--algebra", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--dim", help="single dimension vector")
    which.add_argument("--max-total", type=int,
                       help="scan all vectors with entry sum up to this bound")
    p.add_argument("--cap", type=int, default=100_000,
                   help="assignments per vector before giving up")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_reduce_scan)

    p = sub.add_parser("verify-formulas", help="closed-form codimension sweep")
    p.add_argument("--p-max", type=int, help="sweep bound on p (default 6)")
    p.add_argument("--item", type=int, choices=range(1, 12))
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--lambda", dest="lam", help="rational, e.g. 1/2")
    p.add_argument("--h", type=int)
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
        if getattr(args, "cap", 1) < 1:
            raise ValueError(f"--cap must be at least 1, got {args.cap}")
        code = args.func(args)
    except ValueError as exc:  # every error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
