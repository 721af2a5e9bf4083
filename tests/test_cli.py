import csv
import json
import math
import re
import subprocess
import sys
import time

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gcdzeta", *args],
        capture_output=True,
        text=True,
    )


class TestEval:
    def test_eval_a(self):
        result = run_cli("eval", "A", "--n", "2", "--r", "2")
        assert result.returncode == 0
        assert result.stdout.strip() == "7/4"

    def test_eval_b(self):
        result = run_cli("eval", "B", "--n", "4", "--r", "1")
        assert result.returncode == 0
        assert result.stdout.strip() == "6"

    def test_eval_fr_polynomial(self):
        result = run_cli("eval", "fr", "--r", "2", "--k", "1")
        assert result.returncode == 0
        assert result.stdout.strip() == "-3u + u^2"

    def test_eval_menon(self):
        result = run_cli("eval", "menon", "--n", "5", "--a", "2")
        assert result.stdout.strip() == "8"

    def test_eval_tau(self):
        result = run_cli("eval", "tau", "--n", "4", "--k", "3")
        assert result.stdout.strip() == "6"

    def test_json_keeps_rationals_as_strings(self):
        result = run_cli("eval", "A", "--n", "2", "--r", "2", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["value"] == "7/4"
        assert isinstance(payload["value"], str)

    def test_output_file(self, tmp_path):
        path = tmp_path / "value.txt"
        result = run_cli(
            "eval", "A", "--n", "12", "--r", "1", "--output", str(path)
        )
        assert result.returncode == 0
        assert path.read_text() == "10/3\n"


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli("eval", "A", "--n", "3", "--r", "1").returncode == 0

    def test_verification_failure_is_one(self):
        result = run_cli("eval", "A", "--n", "2", "--r", "2", "--expect", "9/4")
        assert result.returncode == 1
        assert "verification failure" in result.stderr

    def test_usage_error_is_two(self):
        assert run_cli("eval", "A", "--n", "2").returncode == 2
        assert run_cli("nonsense").returncode == 2
        assert run_cli("eval", "fr", "--r", "2").returncode == 2

    def test_domain_error_is_three(self):
        result = run_cli("eval", "menon", "--n", "4", "--a", "2")
        assert result.returncode == 3
        assert "domain error" in result.stderr

    def test_eval_a_domain_errors_are_three(self):
        for n, r in (("0", "1"), ("12", "-1")):
            result = run_cli("eval", "A", "--n", n, "--r", r)
            assert result.returncode == 3
            assert result.stderr.startswith("domain error: ")
            assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_scan_without_checkpoints_is_domain_error(self, count):
        result = run_cli(
            "scan", "A", "--r", "2", "--xmax", "1000", "--checkpoints", count
        )
        assert result.returncode == 3
        assert result.stderr.startswith("domain error: ")
        assert result.stderr.count("\n") == 1
        assert not result.stdout

    def test_resource_guard_is_four(self):
        result = run_cli("scan", "A", "--r", "1", "--xmax", "1000000000")
        assert result.returncode == 4
        assert "resource guard" in result.stderr
        # 2 + 5000 (3 + 2) + 2 * 5000^2 predicted steps
        result = run_cli(
            "igusa", "--n", "2", "--s", "2,2,2", "--method", "direct",
            "--trunc", "5000",
        )
        assert result.returncode == 4
        assert "igusa_direct needs 50025002 loop steps" in result.stderr

    @pytest.mark.parametrize("argv", [
        ("igusa", "--n", "2", "--s", "2", "--expect", "42"),
        ("igusa", "--n", "2", "--s", "2", "--format", "text"),
        ("verify", "menon", "--nmax", "5", "--expect", "nope"),
        ("verify", "menon", "--nmax", "5", "--format", "json"),
        ("scan", "A", "--r", "1", "--xmax", "100", "--expect", "nope"),
        ("scan", "tau", "--k", "2", "--xmax", "100", "--format", "json"),
        ("scan", "extremal", "--r", "1", "--x", "200", "--expect", "nope"),
        ("scan", "extremal", "--r", "1", "--x", "200", "--format", "text"),
        ("eval", "fr", "--r", "2", "--kmax", "3", "--expect", "nope"),
        ("eval", "fr", "--r", "2", "--kmax", "3", "--format", "json"),
        ("eval", "fr", "--r", "2", "--k", "1", "--csv", "x.csv"),
        ("eval", "fr", "--r", "2", "--k", "1", "--kmax", "2"),
    ], ids=lambda argv: " ".join(argv))
    def test_flag_the_command_ignores_is_usage_error(self, argv):
        result = run_cli(*argv)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not result.stdout

    def test_unparsable_exponent_is_usage_error(self):
        result = run_cli("igusa", "--n", "6", "--s", "2,abc")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.strip().splitlines() == [
            "usage error: --s expects comma-separated numbers, got '2,abc'"
        ]

    def test_infinite_exponent_is_domain_error(self):
        result = run_cli("igusa", "--n", "6", "--s", "inf")
        assert result.returncode == 3
        assert "exponent s_1 = inf is not finite" in result.stderr

    def test_igusa_unmet_tolerance_is_numerical_error(self):
        result = run_cli("igusa", "--n", "2", "--s", "2", "--tolerance", "1e-20")
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("numerical error: the computed error bound")
        assert run_cli("igusa", "--n", "2", "--s", "2",
                       "--method", "hurwitz").returncode == 2

    def test_eval_beyond_the_digit_limit_is_refused(self):
        for target in ("A", "B"):
            result = run_cli("eval", target, "--n", "12", "--r", "8000")
            assert result.returncode == 4, target
            assert "Traceback" not in result.stderr
            lines = result.stderr.strip().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("resource guard: ")
            assert "int-to-str limit" in lines[0]
            result = run_cli("eval", target, "--n", "12", "--r", "3000")
            assert result.returncode == 0, target
            assert result.stdout.strip()

    def test_large_r_scan_reports_a_usable_tail_bound(self):
        # checkpoints to 500 span less than two decades, so there is no fit
        result = run_cli("scan", "A", "--r", "18", "--xmax", "500")
        assert result.returncode == 0, result.stderr
        line = result.stdout.splitlines()[1]
        coefficient, tail = re.fullmatch(
            r"leading coefficient \(closed form\) = (\S+) \(tail bound (\S+)\)",
            line,
        ).groups()
        assert 0 < float(tail) < float(coefficient)
        # at 1000 the degree-18 fit is what fails, on its conditioning
        result = run_cli("scan", "A", "--r", "18", "--xmax", "1000")
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical error: fit is ill-conditioned")

    def test_eval_menon_beyond_guard_stops_at_once(self):
        start = time.perf_counter()
        result = run_cli("eval", "menon", "--n", "1000000007", "--a", "2")
        elapsed = time.perf_counter() - start
        assert result.returncode == 4
        assert "resource guard" in result.stderr
        assert elapsed < 1.0


class TestIgusa:
    def test_huge_exponent_gives_one(self):
        for method in ("euler", "direct"):
            result = run_cli("igusa", "--n", "6", "--s", "1e300",
                             "--method", method)
            assert result.returncode == 0, result.stderr
            assert json.loads(result.stdout)["value"] == 1.0

    def test_default_direct_truncation_fits_the_guard(self):
        # T = 300 needs 81001802 steps at r = 4; the default takes the
        # largest T whose count fits the guard, T = 149:
        # 2 + 149 (4 + 2) + 3 * 149^3 steps
        direct = run_cli("igusa", "--n", "2", "--s", "2,2,2,2",
                         "--method", "direct")
        assert direct.returncode == 0, direct.stderr
        record = json.loads(direct.stdout)
        assert record["terms_evaluated"] == 9924743
        euler = json.loads(run_cli("igusa", "--n", "2", "--s", "2,2,2,2").stdout)
        assert 0 <= euler["value"] - record["value"] <= record["tail_bound"]

    def test_default_record_is_the_euler_product(self):
        result = run_cli("igusa", "--n", "200", "--s", "2,2,2,2")
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["method"] == "euler"
        assert record["terms_evaluated"] == 337
        assert 0 < record["tail_bound"] <= 1e-9


class TestVerify:
    def test_menon_reports_counts(self):
        result = run_cli("verify", "menon", "--nmax", "100")
        assert result.returncode == 0
        assert result.stdout.startswith("PASS")
        left, right = result.stdout.strip().split()[1].split("/")
        assert left == right

    def test_threeway(self):
        result = run_cli("verify", "a-threeway", "--nmax", "30", "--rmax", "3")
        assert result.returncode == 0
        assert result.stdout.startswith("PASS")

    def test_fr_vanishing(self):
        result = run_cli("verify", "fr-vanishing", "--rmax", "5", "--kmax", "12")
        assert result.returncode == 0

    def test_domination_and_squarefree_and_mult(self):
        for suite in ("domination", "squarefree"):
            result = run_cli("verify", suite, "--nmax", "200", "--rmax", "3")
            assert result.returncode == 0, suite
        result = run_cli("verify", "mult", "--samples", "100", "--seed", "7")
        assert result.returncode == 0


class TestFrTable:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "fr.csv"
        result = run_cli(
            "eval", "fr", "--r", "3", "--kmax", "5", "--csv", str(path)
        )
        assert result.returncode == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "table should not be empty"
        from gcdzeta.dirichlet import f_r_local

        for row in rows:
            r, k, i, c = (int(row[key]) for key in ("r", "k", "i", "c_i"))
            assert f_r_local(r, k).coefficients[i] == c
        # zero polynomials contribute no rows
        assert all(int(row["k"]) <= 3 for row in rows)


class TestScan:
    def test_csv_contract_and_rerun_determinism(self, tmp_path):
        csv1, json1 = tmp_path / "scan1.csv", tmp_path / "scan1.json"
        csv2, json2 = tmp_path / "scan2.csv", tmp_path / "scan2.json"
        args = ("scan", "tau", "--k", "2", "--xmax", "20000")
        r1 = run_cli(*args, "--csv", str(csv1), "--json", str(json1))
        r2 = run_cli(*args, "--csv", str(csv2), "--json", str(json2))
        assert r1.returncode == r2.returncode == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        assert json1.read_bytes() == json2.read_bytes()
        assert r1.stdout == r2.stdout

        with open(csv1, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["x", "sum", "main_term", "residual"]
        report = json.loads(json1.read_text())
        assert [int(row["x"]) for row in rows] == [
            x for x, _ in report["checkpoints"]
        ]
        # exact fields parse back losslessly
        for row, (x, s) in zip(rows, report["checkpoints"]):
            assert int(row["x"]) == x
            assert float(row["sum"]) == s

    def test_extremal_record(self):
        result = run_cli("scan", "extremal", "--r", "1", "--x", "1000")
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["omega_n_x"] == 134
        assert record["reference"] == pytest.approx(math.log(2))

    def test_eval_rerun_byte_identical(self):
        a = run_cli("eval", "A", "--n", "720", "--r", "3")
        b = run_cli("eval", "A", "--n", "720", "--r", "3")
        assert a.stdout == b.stdout
