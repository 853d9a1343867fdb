import csv
import io
import time

import pytest

from quiverstrata.cli import main
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
@pytest.mark.parametrize("command", ["reduce-scan", "verify-formulas"])
def test_jobs_below_one_exits_2(algebra_file, capsys, command, jobs):
    args = [command, "--jobs", jobs]
    if command == "reduce-scan":
        args += ["--algebra", algebra_file, "--max-total", "2"]
    else:
        args += ["--p-max", "2"]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--jobs" in err


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
    # at (0, 1, 0) the relation has no rows, and it still exits 2
    path = tmp_path / "deg2.bq"
    path.write_text(DEGREE_TWO)
    code, _, err = run_cli([argv[0], "--algebra", str(path), *argv[1:]], capsys)
    assert code == 2
    assert err == ("error: path a*b has degree 2; the linear engine supports "
                   "exactly one non-loop arrow per term\n")


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


def test_reduce_scan_empty_range(algebra_file, capsys):
    code, out, _ = run_cli(["reduce-scan", "--algebra", algebra_file,
                            "--max-total", "-1"], capsys)
    assert code == 0 and out == ""


def test_reduce_scan_cap_reported(algebra_file, capsys):
    code, out, _ = run_cli(["reduce-scan", "--algebra", algebra_file,
                            "--dim", "6,6", "--cap", "2"], capsys)
    assert code == 0
    assert "scan cap exceeded" in out


def test_reduce_scan_jobs_match_sequential(algebra_file, capsys):
    _, seq, _ = run_cli(["reduce-scan", "--algebra", algebra_file,
                         "--max-total", "4"], capsys)
    _, par, _ = run_cli(["reduce-scan", "--algebra", algebra_file,
                         "--max-total", "4", "--jobs", "2"], capsys)
    assert seq == par


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


def test_verify_formulas_small_sweep(capsys):
    code, out, _ = run_cli(["verify-formulas", "--p-max", "3",
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("item,")
    assert all(line.endswith("ok") for line in lines[1:])


def test_verify_formulas_jobs_match_sequential(capsys):
    _, seq, _ = run_cli(["verify-formulas", "--p-max", "2"], capsys)
    _, par, _ = run_cli(["verify-formulas", "--p-max", "2", "--jobs", "2"], capsys)
    assert seq == par


def test_oracle_count_identity(algebra_file, capsys):
    code, out, _ = run_cli(["oracle-count", "--algebra", algebra_file,
                            "--dim", "1,1", "--q", "2,3"], capsys)
    assert code == 0
    assert out.count("assignment,count,q,predicted,pass") == 2
    assert "fail" not in out


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
                        lambda table, pres: calls.append(table.q) or original(table, pres))
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


def test_family_emits_parseable_presentation(capsys):
    code, out, _ = run_cli(["family", "Aprime(2,3,1)"], capsys)
    assert code == 0
    pres = parse_presentation(out)
    assert len(pres.quiver.non_loop_arrows) == 2
    assert pres.orders == (3, 1)


def test_family_bad_spec(capsys):
    code, _, err = run_cli(["family", "B(1)"], capsys)
    assert code == 2
