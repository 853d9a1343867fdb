import argparse
import bisect
import csv
import importlib
import inspect
import io
import itertools
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import walk_reference

import quiverstrata
from quiverstrata import strata
from quiverstrata.cli import build_parser, main
from quiverstrata.quiver import parse_presentation

A1332 = """vertex 0
vertex 1
loop e0 0 order 3
loop e1 1 order 3
arrow a1 1 -> 0
relation a1*e1^2 + e0*a1*e1 + e0^2*a1
"""


@pytest.fixture
def algebra_file(tmp_path):
    path = tmp_path / "a1332.bq"
    path.write_text(A1332)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_strata_table(algebra_file, capsys):
    code, out, _ = run_cli(["strata", "--algebra", algebra_file, "--dim", "3,2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "d = (3, 2)"
    # maximal pair row comes first and is flagged
    first_row = lines[3].split()
    assert first_row[0] == "3|2" and first_row[-1] == "*"
    assert len(lines) == 3 + 6


def test_strata_csv(algebra_file, capsys):
    code, out, _ = run_cli(["strata", "--algebra", algebra_file,
                            "--dim", "2,2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "assignment,orbit_dims,N,c,dim,maximal"
    assert lines[1].startswith("2|2,")


def test_strata_cap(algebra_file, capsys):
    # 3 types at vertex 0 times 2 at vertex 1
    args = ["strata", "--algebra", algebra_file, "--dim", "3,2"]
    code, out, err = run_cli(args + ["--cap", "5"], capsys)
    assert code == 2 and out == ""
    assert err == "error: 6 Jordan assignments exceed the cap 5\n"
    _, want, _ = run_cli(args, capsys)
    code, out, _ = run_cli(args + ["--cap", "6"], capsys)
    assert code == 0 and out == want


def test_strata_cap_checked_before_listing_types(tmp_path, capsys):
    path = str(tmp_path / "a140401.bq")
    run_cli(["family", "A(1,40,40,1)", "-o", path], capsys)
    _clear_package_caches()  # a listing cached by an earlier test would hide the cost
    start = time.monotonic()
    code, out, err = run_cli(["strata", "--algebra", path, "--dim", "60,60"], capsys)
    assert time.monotonic() - start < 2.0
    assert code == 2 and out == ""
    assert err == "error: 930028784400 Jordan assignments exceed the cap 100000\n"


def test_output_deterministic(algebra_file, capsys):
    _, out1, _ = run_cli(["strata", "--algebra", algebra_file, "--dim", "3,3"], capsys)
    _, out2, _ = run_cli(["strata", "--algebra", algebra_file, "--dim", "3,3"], capsys)
    assert out1 == out2


def test_timing_footer_is_optional(algebra_file, capsys):
    _, _, err = run_cli(["strata", "--algebra", algebra_file, "--dim", "1,1"], capsys)
    assert "elapsed" not in err
    _, out, err = run_cli(["--timing", "strata", "--algebra", algebra_file,
                           "--dim", "1,1"], capsys)
    assert "elapsed" in err and "elapsed" not in out


def test_timing_leaves_csv_stdout_unchanged(capsys):
    args = ["verify-formulas", "--item", "1", "--p-max", "3", "--format", "csv"]
    _, plain, _ = run_cli(args, capsys)
    _, timed, err = run_cli(["--timing"] + args, capsys)
    assert timed == plain
    assert err.startswith("elapsed: ")


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["reduce-scan"])
def test_jobs_below_one_exits_2(algebra_file, capsys, command, jobs):
    args = [command, "--jobs", jobs, "--algebra", algebra_file, "--max-total", "2"]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--jobs" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", ["reduce-scan", "oracle-count", "strata"])
def test_cap_below_one_exits_2(algebra_file, capsys, command, cap):
    args = [command, "--algebra", algebra_file, "--cap", cap]
    if command == "reduce-scan":
        args += ["--max-total", "3"]
    elif command == "oracle-count":
        args += ["--dim", "1,1", "--q", "2"]
    else:
        args += ["--dim", "1,1"]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--cap" in err


@pytest.mark.parametrize("args", [
    ["reduce-scan", "--max-total", "-1"],
    ["verify-formulas", "--p-max", "0"],
    ["verify-formulas", "--p-max", "-2", "--item", "3"],
], ids=["max-total", "p-max", "p-max-item"])
def test_empty_sweep_exits_2(algebra_file, capsys, args):
    if args[0] == "reduce-scan":
        args = args + ["--algebra", algebra_file]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and args[1] in err


def test_oracle_count_repeated_prime_exits_2(algebra_file, capsys):
    code, out, err = run_cli(["oracle-count", "--algebra", algebra_file,
                              "--dim", "1,1", "--q", "2,3,2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "repeated" in err


@pytest.mark.parametrize("qs, message", [("2,3", "error: coefficient 1/3 cannot reduce mod 3"),
                                         ("2,4", "error: q must be prime")],
                         ids=["bad-prime", "not-prime"])
def test_oracle_count_error_at_a_later_prime_prints_nothing(tmp_path, capsys, qs, message):
    # q = 2 alone prints its table (and a fail row: 2 divides the numerator
    # 2/5, so the rank drops mod 2); the error at the second q prints nothing
    path = tmp_path / "thirds.bq"
    path.write_text("vertex 0\nvertex 1\nloop e 0 order 2\nloop f 1 order 2\n"
                    "arrow a 1 -> 0\nrelation 1/3*e*a + 2/5*a*f\n")
    argv = ["oracle-count", "--algebra", str(path), "--dim", "2,2"]
    code, out, _ = run_cli([*argv, "--q", "2"], capsys)
    assert code == 1 and len(out.splitlines()) == 5
    code, out, err = run_cli([*argv, "--q", qs], capsys)
    assert code == 2 and out == ""
    assert err.startswith(message) and "Traceback" not in err


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.bq"
    bad.write_text("vertex 0\narrow a 0 -> 9\n")
    code, _, err = run_cli(["strata", "--algebra", str(bad), "--dim", "1"], capsys)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("coeff", ["1/0", "1/00"])
def test_zero_denominator_exits_2(tmp_path, capsys, coeff):
    bad = tmp_path / "bad.bq"
    bad.write_text("vertex 0\nvertex 1\nloop e 0 order 2\narrow a 1 -> 0\n"
                   f"relation {coeff}*e*a\n")
    code, _, err = run_cli(["strata", "--algebra", str(bad), "--dim", "1,1"], capsys)
    assert code == 2
    assert err.startswith("error: line 5:")
    assert "Traceback" not in err


BIG = "9" * 5000  # over Python's 4,300-digit limit on integer string conversion


@pytest.mark.parametrize("lineno, text", [(3, f"loop e 0 order {BIG}"),
                                          (5, f"relation e^{BIG}*a"),
                                          (5, f"relation {BIG}*e*a"),
                                          (5, f"relation 1/{BIG}*e*a")],
                         ids=["loop-order", "factor-power", "coefficient", "denominator"])
def test_oversized_integer_names_its_line(tmp_path, capsys, lineno, text):
    lines = ["vertex 0", "vertex 1", "loop e 0 order 2", "arrow a 1 -> 0", "relation e*a"]
    lines[lineno - 1] = text
    bad = tmp_path / "bad.bq"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["strata", "--algebra", str(bad), "--dim", "1,1"], capsys)
    assert code == 2
    assert err == f"error: line {lineno}: 5000-digit integer is too long\n"
    assert "Traceback" not in err


def test_cancelling_relation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.bq"
    bad.write_text("vertex 0\nvertex 1\nloop e1 1 order 2\narrow a 1 -> 0\n"
                   "relation a*e1 - a*e1\n")
    code, _, err = run_cli(["strata", "--algebra", str(bad), "--dim", "1,1"], capsys)
    assert code == 2
    assert err == "error: line 5: relation cancels to zero\n"


DEGREE_TWO = """vertex 0
vertex 1
vertex 2
arrow a 1 -> 0
arrow b 2 -> 1
relation a*b
"""


@pytest.mark.parametrize("argv", [["strata", "--dim", "1,1,1"],
                                  ["strata", "--dim", "0,1,0"],
                                  ["reduce-scan", "--dim", "1,1,1"],
                                  ["reduce-scan", "--dim", "0,1,0"],
                                  ["reduce-scan", "--max-total", "2"]])
def test_degree_two_relation_exits_2(tmp_path, capsys, argv):
    # the parser refuses the term at its line, whatever the dimension vector
    path = tmp_path / "deg2.bq"
    path.write_text(DEGREE_TWO)
    code, _, err = run_cli([argv[0], "--algebra", str(path), *argv[1:]], capsys)
    assert code == 2
    assert err == ("error: line 6: path a*b has degree 2; the linear engine supports "
                   "exactly one non-loop arrow per term\n")


def _measured(args, tmp_path):
    """Run the CLI on ``args`` in a fresh interpreter: exit code, stdout,
    stderr, the command's own seconds and the process's peak RSS in MB.
    The interpreter's address space is capped at 2 GiB, so a command that
    outgrows its bounds ends in a ``MemoryError`` instead of filling the
    host's memory."""
    script = ("import resource, sys, time\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
              "from quiverstrata.cli import main\n"
              "start = time.monotonic()\n"
              "code = main(sys.argv[1:])\n"
              "print(code, time.monotonic() - start,\n"
              "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    *err, last = done.stderr.splitlines()
    code, seconds, kilobytes = last.split()
    return int(code), done.stdout, "".join(f"{line}\n" for line in err), \
        float(seconds), int(kilobytes) / 1024


def test_single_case_entry_bound_exits_2_at_once(tmp_path):
    """Item 6 with l = p = q = 1000 would assemble 167,167,000 entries
    within the 10^6 unknowns bound (it ended in a MemoryError after more
    than 3.7 GB): it exits 2 with one error line before anything is built."""
    argv = ["verify-formulas", "--item", "6", "--p", "1000", "--q", "1000", "--l", "1000",
            "--h", "1"]
    code, out, err, seconds, megabytes = _measured(argv, tmp_path)
    assert (code, out) == (2, "")
    assert err == ("error: the case assembles 167167000 entries, more than the "
                   "single-case bound 2000000\n")
    assert seconds < 1 and megabytes < 150


@pytest.mark.parametrize("lam", ["1e10000000", "-1e-100000000", "1e4300", "1e-4300"])
def test_huge_lambda_exits_2_at_once(tmp_path, lam):
    """A lambda whose numerator or denominator would have more digits than
    Python prints is refused from its text: ``Fraction`` built 10^(10^7)
    for 1e10000000 and failed to print it after 7.9-8.6 s, and 1e100000000 ran
    for more than 60 s."""
    argv = ["verify-formulas", "--item", "7", "--p", "2", "--q", "2", f"--lambda={lam}"]
    code, out, err, seconds, megabytes = _measured(argv, tmp_path)
    assert (code, out) == (2, "")
    assert err == f"error: bad lambda {lam!r}: more than 4300 digits\n"
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


@pytest.mark.parametrize("lam, printed", [("1e4000", "1" + "0" * 4000),
                                          ("1e-4299", "1/1" + "0" * 4299),
                                          ("0.5e4300", "5" + "0" * 4299),
                                          ("0e100000000", "0")])
def test_lambda_within_the_digit_bound_is_read(capsys, lam, printed):
    code, out, _ = run_cli(["verify-formulas", "--item", "7", "--p", "3", "--q", "2",
                            f"--lambda={lam}", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1] == f"7,3,2,,{printed},3,2,2,ok"


def _family_file(tmp_path, spec):
    path = tmp_path / f"{spec}.bq"
    assert main(["family", spec, "-o", str(path)]) == 0
    return path.name


@pytest.mark.parametrize("argv, lines", [
    (["reduce-scan", "--dim", "1200,1"], ["d=(1200, 1): no certificate"]),
    (["strata", "--dim", "990,1", "--format", "csv"], None)])
def test_more_parts_than_the_recursion_limit(tmp_path, argv, lines):
    """Jordan types of 990 and 1200 parts: listing them recursively ended
    in a RecursionError."""
    algebra = ["--algebra", _family_file(tmp_path, "A(1,2,2,1)")]
    code, out, err, _, _ = _measured(argv[:1] + algebra + argv[1:], tmp_path)
    assert (code, err) == (0, "")
    if lines is not None:
        assert out.splitlines() == lines
    else:  # the partitions of 990 into parts <= 2, times the one of 1
        rows = out.splitlines()
        assert len(rows) == 1 + 496 and rows[-1].startswith('"' + "1," * 989 + '1|1"')


def test_oracle_count_huge_loop_exits_2_at_once(tmp_path):
    """2^(10^10) loop candidates at (100000, 1): the cap compares exponents,
    so the count is never formed (it ended in a MemoryError)."""
    argv = ["oracle-count", "--algebra", _family_file(tmp_path, "A(1,4,4,2)"),
            "--dim", "100000,1", "--q", "2"]
    code, out, err, seconds, megabytes = _measured(argv, tmp_path)
    assert (code, out) == (2, "")
    assert err == "error: loop enumeration at '0' needs 2^10000000000 points, cap is 2000000\n"
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


def test_reduce_scan_max_total_bound_exits_2_at_once(tmp_path):
    """5,000,150,001 vectors to total 100000 are counted, not listed (the
    listing ended in a MemoryError)."""
    argv = ["reduce-scan", "--algebra", _family_file(tmp_path, "A(1,4,4,2)"),
            "--max-total", "100000"]
    code, out, err, seconds, megabytes = _measured(argv, tmp_path)
    assert (code, out) == (2, "")
    assert err == ("error: 5000150001 dimension vectors with entry sum <= 100000 "
                   "exceed the bound 1000000\n")
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


@pytest.mark.parametrize("spec, command, dim", [
    ("A(1,2,2,1)", "strata", "10000000000,1"),
    ("A(1,2,2,1)", "reduce-scan", "10000000000,1"),
    ("A(1,2,2,1)", "strata", "100000000,1"),
    ("Aprime(1,1,1)", "strata", "100000000,1"),
    ("Aprime(1,1,1)", "reduce-scan", "100000000,0"),
])
def test_huge_dimension_exits_2_at_once(tmp_path, spec, command, dim):
    """A dimension above the bound is refused before the Jordan types are
    counted (the count's table of d + 1 integers ended in a MemoryError) or
    listed (the one type of 10^8 parts at order 1 did too)."""
    argv = [command, "--algebra", _family_file(tmp_path, spec), "--dim", dim]
    code, out, err, seconds, megabytes = _measured(argv, tmp_path)
    assert (code, out) == (2, "")
    assert err == f"error: dimension {max(map(int, dim.split(',')))} exceeds the bound 10000000\n"
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


@pytest.mark.parametrize("command, dim, parts", [("strata", "100000,1", 5000100001)])
def test_jordan_type_parts_bound_exits_2_at_once(tmp_path, command, dim, parts):
    """50,001 types of up to 10^5 parts at (100000, 1), over the default
    bound: strata prints every part, so the parts are bounded before any
    type is listed (listing them ended in a MemoryError after 15.9 s)."""
    assert parts > strata._MAX_PARTS
    argv = [command, "--algebra", _family_file(tmp_path, "A(1,2,2,1)"), "--dim", dim]
    code, out, err, seconds, megabytes = _measured(argv, tmp_path)
    dims = dim.replace(",", ", ")
    assert (code, out) == (2, "")
    assert err == (f"error: the Jordan types at d = ({dims}) may hold "
                   f"{parts} parts, more than the bound 20000000\n")
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


@pytest.mark.parametrize("dim, parts", [("100000,1", 5000100001), ("20000,1", 200020001)])
def test_reduce_scan_exits_0_past_the_parts_bound(tmp_path, dim, parts):
    """The parts bound covers only the types strata prints: reduce-scan
    walks each type as its (part, count) pairs and finishes at once past
    it (at (20000, 1) it took 52 s and 1.4 GB when it listed every part)."""
    assert parts > strata._MAX_PARTS
    argv = ["reduce-scan", "--algebra", _family_file(tmp_path, "A(1,2,2,1)"), "--dim", dim]
    code, out, err, seconds, megabytes = _measured(argv, tmp_path)
    dims = dim.replace(",", ", ")
    assert (code, out, err) == (0, f"d=({dims}): no certificate\n", "")
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


def test_reduce_scan_lists_jordan_types_as_pairs(tmp_path):
    """The scan lists each Jordan type as its (part, count) pairs: at
    (5000, 1) it took 1.3-2.2 s when it listed every part."""
    argv = ["reduce-scan", "--algebra", _family_file(tmp_path, "A(1,2,2,1)"),
            "--dim", "5000,1"]
    code, out, err, seconds, _ = _measured(argv, tmp_path)
    assert (code, out, err) == (0, "d=(5000, 1): no certificate\n", "")
    assert seconds < 1, seconds


def test_reduce_scan_reports_every_vector_past_the_parts_bound(tmp_path, capsys,
                                                                monkeypatch):
    """The parts bound covers the full types that strata lists, not the
    scan: with it at 400 parts, far below the types at total 40, the scan
    still reports each of the 861 vectors (it printed one error line)."""
    monkeypatch.setattr(strata, "_MAX_PARTS", 400)
    argv = ["reduce-scan", "--algebra", str(tmp_path / _family_file(tmp_path, "A(1,2,2,1)")),
            "--max-total", "40"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert sum(line.startswith("d=(") for line in out.splitlines()) == 861


@pytest.mark.parametrize("spec", ["truncpoly(3)", "A(1,4,4,2)"])
def test_reduce_scan_type_records_budget(tmp_path, capsys, monkeypatch, spec):
    """With the records budget at 40, far below the listings to total 30,
    the table drops its listings again and again and the scan prints what
    it prints unbounded; it never holds more than the budget plus the
    listing it just stored."""
    from quiverstrata import linsys

    argv = ["reduce-scan", "--algebra", str(tmp_path / _family_file(tmp_path, spec)),
            "--max-total", "30"]
    code, want, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    held, drops = [], []
    original = linsys.PartPairTable.types

    def types(table, d, m):
        before = sum(map(len, table._types.values()))
        records = original(table, d, m)
        held.append((sum(map(len, table._types.values())), len(records)))
        drops.append(held[-1][0] < before)
        return records

    monkeypatch.setattr(linsys, "_MAX_RECORDS", 40)
    monkeypatch.setattr(linsys.PartPairTable, "types", types)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (0, want, "")
    assert all(total <= 40 + last for total, last in held)
    assert sum(drops) > 1


def test_oracle_count_identity_rows_match_reference_without_listing(algebra_file, capsys,
                                                                    monkeypatch):
    """The identity rows equal those of the replaced check
    (tests/walk_reference.py), which lists every assignment, and
    oracle-count builds no such listing: the count table carries none, the
    count builds one ``JordanAssignment`` per stratum it found and the
    check one per row, and ``orbit_count`` runs once per Jordan type at
    each vertex."""
    import dataclasses

    from quiverstrata import fforacle
    from quiverstrata.linsys import PartPairTable

    built, orbits = [], []
    assignment, orbit_count = fforacle.JordanAssignment, fforacle.orbit_count
    monkeypatch.setattr(fforacle, "JordanAssignment",
                        lambda *args: built.append(args) or assignment(*args))
    monkeypatch.setattr(fforacle, "orbit_count",
                        lambda p, q: orbits.append(q) or orbit_count(p, q))
    code, out, _ = run_cli(["oracle-count", "--algebra", algebra_file,
                            "--dim", "2,2", "--q", "2,3"], capsys)
    assert code == 0
    rows = [r for r in csv.DictReader(io.StringIO(out)) if r["q"] != "q"]  # one header a prime
    assert [r["q"] for r in rows] == ["2"] * 4 + ["3"] * 4
    assert all(r["pass"] == "pass" for r in rows)
    # per prime: 4 strata counted and 4 rows; 2 types at each of 2 vertices
    assert len(built) == 2 * (4 + 4) and orbits == [2] * 4 + [3] * 4
    assert [f.name for f in dataclasses.fields(fforacle.StratumCountTable)] == [
        "q", "dims", "counts"]
    monkeypatch.undo()
    pres = parse_presentation(A1332)
    for q in (2, 3):
        counts = fforacle.enumerate_and_classify(pres, (2, 2), q)
        want = walk_reference.verify_count_identity(counts, PartPairTable(pres))
        assert fforacle.verify_count_identity(counts, PartPairTable(pres)) == want
        assert [[r.assignment.serialize(), str(r.count), str(r.predicted)] for r in want] == [
            [r["assignment"], r["count"], r["predicted"]] for r in rows if r["q"] == str(q)]


@pytest.mark.slow
def test_reduce_scan_long_run_memory(tmp_path):
    """No Jordan-type listing outlives its table: to total 100 on
    A(1,4,4,2) the scan peaked at 220 MB when module caches kept every
    listing of the run."""
    argv = ["reduce-scan", "--algebra", _family_file(tmp_path, "A(1,4,4,2)"),
            "--max-total", "100"]
    code, out, err, _, megabytes = _measured(argv, tmp_path)
    assert (code, err) == (0, "")
    assert sum(line.startswith("d=(") for line in out.splitlines()) == 5151
    assert megabytes < 160, megabytes


def test_family_huge_h_exits_2_at_once(tmp_path):
    """10^7 arrows are refused before any is built (building them ended in a
    MemoryError)."""
    code, out, err, seconds, megabytes = _measured(["family", "A(10000000,2,2,1)"], tmp_path)
    assert (code, out) == (2, "")
    assert err == "error: h = 10000000 arrows exceed the bound 1000000\n"
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


def test_family_term_bound_exits_2_at_once(tmp_path):
    """The 10^6 terms of this relation are counted, not built (building
    them took 32 s and 1.2 GB)."""
    code, out, err, seconds, megabytes = _measured(["family", "A(1,2000000,2000000,1000000)"],
                                                   tmp_path)
    assert (code, out) == (2, "")
    assert err == ("error: the relation of A(1,2000000,2000000,1000000) has 1000001 terms, "
                   "more than the bound 100000\n")
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


@pytest.mark.parametrize("spec, dim, q, message", [
    ("truncpoly(1)", "1000000", "2", "|GL_1000000(F_2)| at vertex '0' has about "
                                     "2000000000000 bits"),
    ("truncpoly(1)", "2000", "2", "|GL_2000(F_2)| at vertex '0' has about 8000000 bits"),
    ("Aprime(1,1,1)", "0,1500", "2", "|GL_1500(F_2)| at vertex '1' has about 4500000 bits"),
    ("Aprime(1,1,1)", "0,300", "1999993", "|GL_300(F_1999993)| at vertex '1' has about "
                                          "1890000 bits"),
])
def test_oracle_count_group_order_bound_exits_2_at_once(tmp_path, spec, dim, q, message):
    """No point cap reaches a vertex without a loop whose arrows meet only
    dimension 0, so the group order of the identity check is bounded by its
    bits (forming it took 14.8 s at (2000, 2), cubic in d)."""
    argv = ["oracle-count", "--algebra", _family_file(tmp_path, spec), "--dim", dim, "--q", q]
    code, out, err, seconds, megabytes = _measured(argv, tmp_path)
    assert (code, out) == (2, "")
    assert err == f"error: {message}, more than the bound 1000000\n"
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


def test_verify_formulas_sweep_bound_exits_2_at_once(tmp_path):
    """The shapes of the sweep to p = 100000 are counted, not tried (trying
    them ran past 30 s)."""
    code, out, err, seconds, megabytes = _measured(["verify-formulas", "--p-max", "100000"],
                                                   tmp_path)
    assert (code, out) == (2, "")
    assert err == ("error: the sweep to p = 100000 tries 1666751667350000 relation shapes, "
                   "more than the bound 50000\n")
    assert seconds < 1 and megabytes < 150, (seconds, megabytes)


LOOP_POWER = "vertex 0\nvertex 1\nloop e 0 order {m}\narrow a 1 -> 0\nrelation e^{k}*a\n"


@pytest.mark.parametrize("text, argv", [
    (LOOP_POWER.format(m=10000001, k=10000000), ["strata", "--dim", "2,1"]),
    (None, ["family", "A(1,10000000,3,5000000)"]),
    (LOOP_POWER.format(m=3000001, k=3000000), ["oracle-count", "--dim", "2,1", "--q", "2"]),
], ids=["parse-power", "family-power", "oracle-power"])
def test_loop_powers_cost_nothing(tmp_path, text, argv):
    """A path is its arrow runs, so a power costs what its digits cost:
    each command finishes in under 1 s and 100 MB (6.9 s and 257 MB, 13.1 s
    and 21.8 s when paths were written out as arrow words)."""
    if text is not None:
        (tmp_path / "alg.bq").write_text(text)
        argv = [argv[0], "--algebra", "alg.bq", *argv[1:]]
    code, out, err, seconds, megabytes = _measured(argv, tmp_path)
    assert (code, err) == (0, "")
    assert seconds < 1.0 and megabytes < 100, (seconds, megabytes)
    if argv[0] == "family":
        assert out.splitlines()[-1] == ("relation e0^4999998*a1*e1^2 + e0^4999999*a1*e1"
                                        " + e0^5000000*a1")
    if argv[0] == "oracle-count":
        assert "pass" in out and "fail" not in out


def test_degree_two_oracle_count_exits_2_at_once(tmp_path):
    """A degree-2 term is refused when the file is parsed, with its line,
    before the oracle enumerates anything."""
    (tmp_path / "deg2.bq").write_text("vertex 0\nvertex 1\nvertex 2\nloop e 2 order 3\n"
                                      "arrow a 1 -> 0\narrow b 2 -> 1\nrelation a*b*e\n")
    code, out, err, seconds, megabytes = _measured(
        ["oracle-count", "--algebra", "deg2.bq", "--dim", "2,2,3", "--q", "3",
         "--cap", "100000000"], tmp_path)
    assert (code, out) == (2, "")
    assert err == ("error: line 7: path a*b*e has degree 2; the linear engine "
                   "supports exactly one non-loop arrow per term\n")
    assert seconds < 1.0 and megabytes < 100, (seconds, megabytes)


def test_oracle_count_builds_no_matrices_for_an_unread_arrow(tmp_path):
    """No relation reads the arrow of Aprime(1,1,1), so its 2^20 candidate
    matrices at (4, 5), q = 2, are counted but never built (189 MB when
    they were)."""
    (tmp_path / "alg.bq").write_text("vertex 0\nvertex 1\narrow a1 1 -> 0\n")
    code, out, err, _, megabytes = _measured(
        ["oracle-count", "--algebra", "alg.bq", "--dim", "4,5", "--q", "2"], tmp_path)
    assert (code, err) == (0, "")
    assert out == ('assignment,count,q,predicted,pass\n'
                   '"1,1,1,1|1,1,1,1,1",1048576,2,1048576,pass\n')
    assert megabytes < 100, megabytes


def test_huge_loop_exponent_exits_2_at_once(tmp_path, capsys):
    path = tmp_path / "big.bq"
    path.write_text("vertex 0\nvertex 1\nloop e 0 order 2\narrow a 1 -> 0\n"
                    "relation e^1000000000*a\n")
    start = time.monotonic()
    code, _, err = run_cli(["strata", "--algebra", str(path), "--dim", "1,1"], capsys)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert err == ("error: line 5: path e^1000000000*a contains the forbidden "
                   "power e^1000000000\n")


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(["strata", "--algebra", "/nonexistent.bq",
                            "--dim", "1,1"], capsys)
    assert code == 2 and "error" in err


def test_reduce_scan_finds_known_certificate(tmp_path, capsys):
    # family with n = 2 and larger loop orders: reducible at (4, 2)
    code, out, _ = run_cli(["family", "A(1,4,4,2)",
                            "-o", str(tmp_path / "alg.bq")], capsys)
    assert code == 0
    code, out, _ = run_cli(["reduce-scan", "--algebra", str(tmp_path / "alg.bq"),
                            "--max-total", "6"], capsys)
    assert code == 0
    assert "d=(4, 2): REDUCIBLE" in out
    assert "witness assignment: 3,1|2" in out
    assert out.count("no certificate") > 10


def test_reduce_scan_no_certificates(algebra_file, capsys):
    code, out, _ = run_cli(["reduce-scan", "--algebra", algebra_file,
                            "--max-total", "5"], capsys)
    assert code == 0
    assert "REDUCIBLE" not in out


def test_reduce_scan_cap_reported(algebra_file, capsys):
    code, out, _ = run_cli(["reduce-scan", "--algebra", algebra_file,
                            "--dim", "6,6", "--cap", "2"], capsys)
    assert code == 0
    assert "scan cap exceeded" in out


def test_reduce_scan_cap_checked_before_listing_types(tmp_path, capsys):
    # 930,028,784,400 assignments: counted, never listed
    path = str(tmp_path / "a140401.bq")
    run_cli(["family", "A(1,40,40,1)", "-o", path], capsys)
    _clear_package_caches()  # a listing cached by an earlier test would hide the cost
    start = time.monotonic()
    code, out, err = run_cli(["reduce-scan", "--algebra", path, "--dim", "60,60",
                              "--cap", "10"], capsys)
    assert time.monotonic() - start < 2.0
    assert code == 0 and err == ""
    assert out == "d=(60, 60): scan cap exceeded (930028784400 assignments > cap 10)\n"


def test_reduce_scan_jobs_match_sequential(algebra_file, capsys, monkeypatch):
    """Each worker scans every n-th of the 15 vectors, and the blocks print
    in the order of the vectors.  With four CPUs reported, --jobs 3 runs
    three workers; one vector runs in this process whatever --jobs is."""
    import concurrent.futures

    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ["reduce-scan", "--algebra", algebra_file, "--max-total", "4"]
    _, seq, _ = run_cli(argv, capsys)
    assert len(seq.splitlines()) == 15
    for jobs in ("2", "3"):
        _, par, _ = run_cli(argv + ["--jobs", jobs], capsys)
        assert seq == par
    single = ["reduce-scan", "--algebra", algebra_file, "--dim", "3,2"]
    _, one, _ = run_cli(single, capsys)
    _, par, _ = run_cli(single + ["--jobs", "2"], capsys)
    assert one == par == "d=(3, 2): no certificate\n"
    assert pools == [2, 3]


def test_reduce_scan_prints_each_report_as_it_is_scanned(algebra_file, capsys, monkeypatch):
    """Without --jobs, each report is on stdout before the next vector is
    scanned: when ``_scan_one`` sees the k-th of the 15 vectors, the k - 1
    reports before it are printed (none was until the last was scanned)."""
    from quiverstrata import cli

    argv = ["reduce-scan", "--algebra", algebra_file, "--max-total", "4"]
    _, want, _ = run_cli(argv, capsys)
    printed, scan_one = [], cli._scan_one

    def spy(table, dims, cap):
        printed.append(capsys.readouterr().out)
        return scan_one(table, dims, cap)

    monkeypatch.setattr(cli, "_scan_one", spy)
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert "".join(printed) + out == want
    assert len(printed) == len(want.splitlines()) == 15
    seen = list(itertools.accumulate(printed))
    assert [len(text.splitlines()) for text in seen] == list(range(15))
    assert all(want.startswith(text) for text in seen)


def test_reduce_scan_draws_each_vector_as_it_is_scanned(algebra_file, capsys, monkeypatch):
    """Without --jobs, the dimension vectors are not listed: when
    ``_scan_one`` sees the k-th of the 15 vectors, k have been drawn."""
    from quiverstrata import cli

    drawn, seen = [], []
    vectors, scan_one = cli.dim_vectors_up_to, cli._scan_one

    def counted(n_vertices, total):
        for dims in vectors(n_vertices, total):
            drawn.append(dims)
            yield dims

    def spy(table, dims, cap):
        seen.append(len(drawn))
        return scan_one(table, dims, cap)

    monkeypatch.setattr(cli, "dim_vectors_up_to", counted)
    monkeypatch.setattr(cli, "_scan_one", spy)
    code, _, err = run_cli(["reduce-scan", "--algebra", algebra_file, "--max-total", "4"], capsys)
    assert (code, err) == (0, "")
    assert seen == list(range(1, 16))


@pytest.mark.parametrize("spec, total", [("truncpoly(3)", 300), ("A(1,4,4,2)", 20)])
def test_reduce_scan_cap_is_the_only_per_vector_refusal(tmp_path, capsys, spec, total):
    """A --max-total run prints each report as it is scanned, so a vector
    refused part-way would leave stdout half-written.  None is: over the
    cap, a vector prints its own line; the parts bound covers only the
    types strata lists; and every vector that ``dim_vectors_up_to`` admits
    has entries at most its total, below the dimension bound."""
    from quiverstrata.strata import _MAX_DIM, _MAX_VECTORS

    for n in range(1, 5):
        top = bisect.bisect(range(_MAX_VECTORS + 1), _MAX_VECTORS,
                            key=lambda t: math.comb(t + n, n)) - 1
        assert top < _MAX_DIM, n
    argv = ["reduce-scan", "--algebra", str(tmp_path / _family_file(tmp_path, spec)),
            "--max-total", str(total), "--cap", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    reports = [line for line in out.splitlines() if line.startswith("d=(")]
    vertices = 1 if spec.startswith("truncpoly") else 2
    assert len(reports) == math.comb(total + vertices, vertices)
    assert sum("scan cap exceeded" in line for line in reports) > len(reports) // 2


def test_commands_keep_no_presentation(tmp_path):
    """Each command builds its part-pair table and drops it with its
    presentation and its Jordan-type records: after strata, reduce-scan and
    oracle-count in one process, the garbage collector finds no
    presentation and no Jordan type."""
    script = ("import contextlib, gc, io, sys\n"
              "from quiverstrata.cli import main\n"
              "from quiverstrata.partitions import Partition\n"
              "from quiverstrata.quiver import BoundQuiverPresentation\n"
              "alg = ['--algebra', sys.argv[1]]\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [main(['strata', *alg, '--dim', '2,2']),\n"
              "             main(['reduce-scan', *alg, '--max-total', '4']),\n"
              "             main(['oracle-count', *alg, '--dim', '2,1', '--q', '2,3'])]\n"
              "gc.collect()\n"
              "print(codes, sum(isinstance(x, BoundQuiverPresentation)\n"
              "                 for x in gc.get_objects()),\n"
              "      sum(isinstance(x, Partition) for x in gc.get_objects()))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, _family_file(tmp_path, "A(1,4,4,2)")],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0] 0 0\n"


def test_verify_formulas_single_instance(capsys):
    code, out, _ = run_cli(["verify-formulas", "--item", "7",
                            "--p", "2", "--q", "2", "--h", "2"], capsys)
    assert code == 0
    assert "0 mismatches" in out


def test_verify_formulas_side_condition_rejected(capsys):
    code, _, err = run_cli(["verify-formulas", "--item", "9", "--p", "3",
                            "--q", "3", "--lambda", "1"], capsys)
    assert code == 2
    assert "lambda != 1" in err


@pytest.mark.parametrize("flags, message", [
    (["--item", "7", "--p", "2", "--q", "2", "--lambda", "1/0"], "bad lambda '1/0'"),
    (["--item", "3", "--p", "0", "--q", "1"], "p >= 1 required"),
    (["--item", "3", "--p", "2", "--q", "1", "--h", "0"], "h=0"),
])
def test_verify_formulas_bad_single_case_exits_2(capsys, flags, message):
    # a given zero is checked, not replaced by the default
    code, out, err = run_cli(["verify-formulas", *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_verify_formulas_small_sweep(capsys):
    code, out, _ = run_cli(["verify-formulas", "--p-max", "3",
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("item,")
    assert all(line.endswith("ok") for line in lines[1:])


def _argparse_exit(args, capsys):
    """Exit code and stderr of a command line that argparse rejects."""
    with pytest.raises(SystemExit) as done:
        main(args)
    out = capsys.readouterr()
    assert out.out == ""
    return done.value.code, out.err


def test_verify_formulas_has_no_jobs(capsys):
    code, err = _argparse_exit(["verify-formulas", "--p-max", "2", "--jobs", "2"], capsys)
    assert code == 2 and "unrecognized arguments: --jobs 2" in err


@pytest.mark.parametrize("flag, value", [("--p", "3"), ("--q", "2"), ("--l", "1"),
                                         ("--lambda", "1/2"), ("--h", "2")])
def test_verify_formulas_single_case_flag_needs_item(capsys, flag, value):
    code, out, err = run_cli(["verify-formulas", flag, value], capsys)
    assert code == 2 and out == ""
    assert err == "error: --p, --q, --l, --lambda and --h need --item\n"


def test_verify_formulas_h_selects_the_single_case(capsys):
    # --h alone picks the single case, which for item 7 needs a q
    code, out, err = run_cli(["verify-formulas", "--item", "7", "--h", "2"], capsys)
    assert code == 2 and out == ""
    assert err == "error: this item needs an explicit --q\n"
    code, out, _ = run_cli(["verify-formulas", "--item", "7", "--p", "2", "--q", "2",
                            "--h", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["7,2,2,,2,2,2,2,ok"]


def test_verify_formulas_l_only_where_the_item_takes_it(capsys):
    code, out, err = run_cli(["verify-formulas", "--item", "3", "--p", "2",
                              "--q", "1", "--l", "5"], capsys)
    assert code == 2 and out == ""
    assert err == "error: item 3 takes no l\n"


def test_verify_formulas_p_max_is_for_the_sweep(capsys):
    code, out, err = run_cli(["verify-formulas", "--item", "7", "--p", "2",
                              "--q", "2", "--p-max", "9"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --p-max is for the sweep, not a single case\n"
    _, default, _ = run_cli(["verify-formulas", "--item", "3"], capsys)
    _, six, _ = run_cli(["verify-formulas", "--item", "3", "--p-max", "6"], capsys)
    assert default == six and default.endswith("63 cases, 0 mismatches\n")


@pytest.mark.parametrize("flags, unknowns", [
    (["--item", "1", "--p", "100000000", "--l", "1"], 100000000),
    (["--item", "8", "--p", "578", "--q", "578", "--h", "100000000"], 1002252)],
    ids=["p", "h"])
def test_verify_formulas_huge_single_case_exits_2_at_once(capsys, flags, unknowns):
    # the bound counts the arrows the item reads (item 8 reads 3), not h
    start = time.monotonic()
    code, out, err = run_cli(["verify-formulas", *flags], capsys)
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert err == (f"error: symbols*p*q = {unknowns} unknowns exceed the single-case "
                   f"bound 1000000\n")


def test_verify_formulas_huge_h_is_accepted(capsys):
    """h changes no row of the system, which is on the item's own arrows:
    with 2*10^6 arrows 1 -> 0, item 3 at p = q = 2 still has 4 unknowns."""
    code, out, _ = run_cli(["verify-formulas", "--item", "3", "--p", "2", "--q", "2",
                            "--h", "2000000", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["3,2,2,,,2000000,2,2,ok"]


def _package_exception_classes():
    """Every exception class defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(quiverstrata.__path__):
        module = importlib.import_module(f"quiverstrata.{info.name}")
        found += [obj for _, obj in inspect.getmembers(module, inspect.isclass)
                  if issubclass(obj, BaseException) and obj.__module__ == module.__name__]
    return found


def test_package_errors_are_value_errors():
    classes = _package_exception_classes()
    assert {cls.__name__ for cls in classes} == {
        "BadPrimeError", "EnumerationCapExceeded", "PresentationError",
        "ScanCapExceeded", "SideConditionError"}
    assert all(issubclass(cls, ValueError) for cls in classes), classes


@pytest.mark.parametrize("cls", _package_exception_classes(), ids=lambda c: c.__name__)
def test_every_package_error_exits_2(capsys, monkeypatch, cls):
    from quiverstrata import cli

    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    required = [p for p in params if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD]
    exc = cls(*["boom"] * max(len(required), 1))

    def fail(spec):
        raise exc

    monkeypatch.setattr(cli, "parse_family_spec", fail)
    code, out, err = run_cli(["family", "A(1,2,2,1)"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {exc}\n" and "Traceback" not in err


def test_reduce_scan_dim_and_max_total_conflict(algebra_file, capsys):
    code, err = _argparse_exit(["reduce-scan", "--algebra", algebra_file,
                                "--dim", "2,2", "--max-total", "3"], capsys)
    assert code == 2 and "not allowed with argument" in err
    code, err = _argparse_exit(["reduce-scan", "--algebra", algebra_file], capsys)
    assert code == 2 and "one of the arguments --dim --max-total is required" in err


def _clear_package_caches():
    """Empty every module-level memo cache of the package, as a fresh
    process starts."""
    for name, module in list(sys.modules.items()):
        if name == "quiverstrata" or name.startswith("quiverstrata."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_verify_formulas_cold_and_warm_caches_agree(capsys):
    """A sweep run with every package memo cache empty, as in a fresh
    process, and run again in the same process prints the same rows."""
    argv = ["verify-formulas", "--p-max", "4", "--format", "csv"]
    _clear_package_caches()
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0 and cold.count("\n") > 100
    code, warm, _ = run_cli(argv, capsys)
    assert code == 0
    assert warm == cold


def test_single_process_run_does_not_import_the_pool():
    script = ("import sys\n"
              "from quiverstrata.cli import main\n"
              "code = main(['verify-formulas', '--item', '1', '--p', '3', '--l', '1'])\n"
              "print(code, 'concurrent.futures.process' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_oracle_count_identity(algebra_file, capsys):
    code, out, _ = run_cli(["oracle-count", "--algebra", algebra_file,
                            "--dim", "1,1", "--q", "2,3"], capsys)
    assert code == 0
    assert out.count("assignment,count,q,predicted,pass") == 2
    assert "fail" not in out


def test_oracle_count_csv_export(tmp_path, capsys):
    path = str(tmp_path / "a1221.bq")
    run_cli(["family", "A(1,2,2,1)", "-o", path], capsys)
    code, out, _ = run_cli(["oracle-count", "--algebra", path,
                            "--dim", "2,2", "--q", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "assignment,count,q,predicted,pass"
    assert len(lines) == 5
    assert all(line.endswith("pass") for line in lines[1:])
    assert any(line.startswith("2|2,36,2,36") for line in lines[1:])


def test_oracle_count_beyond_exhaustive_orbit_cap(tmp_path, capsys):
    # q = 7 is past the exhaustive orbit count's cap; the closed form covers it
    path = str(tmp_path / "trunc3.bq")
    run_cli(["family", "truncpoly(3)", "-o", path], capsys)
    code, out, _ = run_cli(["oracle-count", "--algebra", path,
                            "--dim", "2", "--q", "7"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["pass"] for r in rows] == ["pass", "pass"]
    assert sum(int(r["count"]) for r in rows) == 7 ** 2  # nilpotent 2x2


def test_oracle_count_without_arrows(tmp_path, capsys):
    path = tmp_path / "point.bq"
    path.write_text("vertex 0\n")
    code, out, _ = run_cli(["oracle-count", "--algebra", str(path),
                            "--dim", "2", "--q", "2"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["count"], r["pass"]) for r in rows] == [("1", "pass")]


def test_oracle_count_checks_each_prime_once(algebra_file, capsys, monkeypatch):
    from quiverstrata import cli

    calls = []
    original = cli.verify_count_identity
    monkeypatch.setattr(cli, "verify_count_identity",
                        lambda counts, table: calls.append(counts.q) or original(counts, table))
    code, _, _ = run_cli(["oracle-count", "--algebra", algebra_file,
                          "--dim", "1,1", "--q", "2,3"], capsys)
    assert code == 0 and calls == [2, 3]


def test_oracle_count_rejects_nonprime(algebra_file, capsys):
    code, _, err = run_cli(["oracle-count", "--algebra", algebra_file,
                            "--dim", "1,1", "--q", "4"], capsys)
    assert code == 2 and "prime" in err


def test_oracle_count_cap(algebra_file, capsys):
    code, _, err = run_cli(["oracle-count", "--algebra", algebra_file,
                            "--dim", "2,2", "--q", "3", "--cap", "10"], capsys)
    assert code == 2 and "cap" in err.lower()


def test_oracle_count_high_loop_order_is_fast(tmp_path, capsys):
    # a d x d nilpotent matrix has X^d = 0, so at d = 2 every order from 2
    # up gives the same table, and an order far above d costs no more
    outs = []
    for order in (3, 1000000000):
        path = tmp_path / f"loop{order}.bq"
        path.write_text(f"vertex 0\nloop e 0 order {order}\n")
        start = time.monotonic()
        code, out, err = run_cli(["oracle-count", "--algebra", str(path),
                                  "--dim", "2", "--q", "2"], capsys)
        assert time.monotonic() - start < 2.0
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[1] == outs[0]


def test_oracle_count_huge_field_exits_2_at_once(tmp_path, capsys):
    path = str(tmp_path / "a1221.bq")
    run_cli(["family", "A(1,2,2,1)", "-o", path], capsys)
    start = time.monotonic()
    code, out, err = run_cli(["oracle-count", "--algebra", path, "--dim", "1,1",
                              "--q", "1000000000000000003"], capsys)
    assert time.monotonic() - start < 2.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap" in err
    assert "Traceback" not in err


def test_oracle_count_int64_overflow_exits_2_at_once(tmp_path, capsys):
    # a raised cap admits q, but products mod q would overflow int64, so q
    # is refused before the trial-division primality test
    path = str(tmp_path / "a1221.bq")
    run_cli(["family", "A(1,2,2,1)", "-o", path], capsys)
    start = time.monotonic()
    code, out, err = run_cli(["oracle-count", "--algebra", path, "--dim", "1,1",
                              "--q", "1000000000000000003",
                              "--cap", "100000000000000000000"], capsys)
    assert time.monotonic() - start < 2.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "int64" in err


def test_oracle_count_folds_unread_arrow_fast(tmp_path, capsys):
    # 2.4e8 points, 5^4 times over in the arrow a2 that no relation reads
    path = str(tmp_path / "a2331.bq")
    run_cli(["family", "A(2,3,3,1)", "-o", path], capsys)
    start = time.monotonic()
    code, out, err = run_cli(["oracle-count", "--algebra", path, "--dim", "2,2",
                              "--q", "5", "--cap", "300000000"], capsys)
    assert time.monotonic() - start < 5.0
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4 and all(r["pass"] == "pass" for r in rows)
    assert sum(int(r["count"]) for r in rows) == 10_140_625


def _parallel_arrows(tmp_path, n):
    path = tmp_path / f"arrows{n}.bq"
    path.write_text("vertex 0\nvertex 1\n"
                    + "".join(f"arrow a{i} 1 -> 0\n" for i in range(n)))
    return str(path)


def test_oracle_count_full_product_below_int64(tmp_path, capsys):
    code, out, err = run_cli(["oracle-count", "--algebra", _parallel_arrows(tmp_path, 62),
                              "--dim", "1,1", "--q", "2",
                              "--cap", "100000000000000000000"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[1] == f"1|1,{2 ** 62},2,{2 ** 62},pass"


def test_oracle_count_full_product_over_int64_exits_2_at_once(tmp_path, capsys):
    start = time.monotonic()
    code, out, err = run_cli(["oracle-count", "--algebra", _parallel_arrows(tmp_path, 63),
                              "--dim", "1,1", "--q", "2",
                              "--cap", "100000000000000000000"], capsys)
    assert time.monotonic() - start < 2.0
    assert code == 2 and out == ""
    assert err == f"error: {2 ** 63} points overflow the int64 tally\n"


def test_oracle_count_caps_checked_before_listing_types(tmp_path, capsys):
    path = str(tmp_path / "a140401.bq")
    run_cli(["family", "A(1,40,40,1)", "-o", path], capsys)
    _clear_package_caches()  # a listing cached by an earlier test would hide the cost
    start = time.monotonic()
    code, out, err = run_cli(["oracle-count", "--algebra", path, "--dim", "60,60",
                              "--q", "2"], capsys)
    assert time.monotonic() - start < 2.0
    assert code == 2 and out == ""
    assert err == (f"error: loop enumeration at '0' needs {2 ** 3600} points, "
                   "cap is 2000000\n")


def test_family_emits_parseable_presentation(capsys):
    code, out, _ = run_cli(["family", "Aprime(2,3,1)"], capsys)
    assert code == 0
    pres = parse_presentation(out)
    assert len(pres.quiver.non_loop_arrows) == 2
    assert pres.orders == (3, 1)


def test_family_unwritable_output_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "alg.bq"
    code, out, err = run_cli(["family", "A(1,2,2,1)", "-o", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_family_bad_spec(capsys):
    code, _, err = run_cli(["family", "B(1)"], capsys)
    assert code == 2


def test_family_non_integer_parameter(capsys):
    code, out, err = run_cli(["family", "A(1,2,2,x)"], capsys)
    assert code == 2 and out == ""
    assert err == "error: cannot parse family spec 'A(1,2,2,x)'\n"


def test_family_huge_degree_is_fast(capsys):
    # only the terms below both loop orders are visited, so n costs nothing
    start = time.monotonic()
    code, out, _ = run_cli(["family", "A(1,2,2,99999999999)"], capsys)
    assert code == 0
    assert time.monotonic() - start < 1
    _, small, _ = run_cli(["family", "A(1,2,2,3)"], capsys)
    assert out.splitlines()[0] == "# A(1,2,2,99999999999)"
    assert out.splitlines()[1:] == small.splitlines()[1:]


def _readme_cli_lines():
    """The command lines of README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", readme, re.M | re.S).group(1)
    return [line.split() for line in block.splitlines()
            if line.startswith("quiverstrata ")]


def test_readme_cli_flags_are_accepted():
    """Every flag README shows for a subcommand, bracketed or not, is one
    that subcommand's parser accepts."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    lines = _readme_cli_lines()
    assert {words[1] for words in lines} == set(subparsers)
    for words in lines:
        accepted = subparsers[words[1]]._option_string_actions
        flags = [w.strip("[]") for w in words[2:] if w.strip("[]").startswith("-")]
        for flag in flags:
            assert flag in accepted, (words[1], flag)


def test_readme_library_sketch_runs(tmp_path):
    """README's python block runs as written, in a fresh interpreter."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library sketch$.*?^```python$(.*?)^```$", readme, re.M | re.S).group(1)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", block], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "margin: 0" in done.stdout
