import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import a_eval_product, menon_sum_loop
from gcdzeta import arith, dirichlet, gcdsum, multfun
from gcdzeta.arith import factorize
from gcdzeta.cli import _FR_CHECK_STEPS, _THREEWAY_ROW_STEPS, main


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
        result = run_cli("eval", "fr", "--r", "3", "--k", "2", "--format", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout) == {
            "coefficients": [0, 4, -1], "k": 2, "r": 3, "target": "fr",
            "value": "4u - u^2",
        }

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

    # only the named command's nested parsers are built, so every level's
    # help and choices must still show up when asked for
    @pytest.mark.parametrize(
        "argv, shows",
        [([], "{eval,verify,scan,igusa}"),
         (["eval"], "{A,B,menon,tau,fr}"),
         (["eval", "fr"], "--kmax"),
         (["verify"],
          "{a-threeway,domination,fr-vanishing,menon,mult,squarefree}"),
         (["verify", "mult"], "--samples"),
         (["scan"], "{A,tau,extremal}"),
         (["scan", "tau"], "--checkpoints"),
         (["igusa"], "--tolerance")],
    )
    def test_help_at_every_level(self, argv, shows, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert shows in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, says",
        [(["eval", "nonsense"], "invalid choice: 'nonsense'"),
         (["-5", "eval", "A"], "invalid choice: '-5'"),
         (["scan", "A", "--r", "2"], "required: --xmax"),
         (["igusa", "--n", "2", "--s", "2", "--bogus"],
          "unrecognized arguments: --bogus")],
    )
    def test_usage_errors_name_the_fault(self, argv, says, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert says in capsys.readouterr().err

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
        # 2 + 2 * 6e6 + 2^2 predicted steps
        result = run_cli(
            "igusa", "--n", "2", "--s", "2,2", "--method", "direct",
            "--trunc", "6000000",
        )
        assert result.returncode == 4
        assert "igusa_direct needs 12000006 loop steps" in result.stderr
        # 5e6 block sums and 39 window pieces of 75 steps each, plus a step
        # per point, refused before any checkpoint or value is made
        result = run_cli(
            "scan", "A", "--r", "2", "--xmax", "10000000",
            "--checkpoints", "5000000",
        )
        assert result.returncode == 4
        assert "summatory_scan needs 380002925 loop steps" in result.stderr
        # at most 991 blocks at x = 1000, but 1e9 points to build
        result = run_cli(
            "scan", "A", "--r", "2", "--xmax", "1000",
            "--checkpoints", "1000000000",
        )
        assert result.returncode == 4
        assert "summatory_scan needs 1000074400 loop steps" in result.stderr

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
        ("igusa", "--n", "2", "--s", "2", "--trunc", "5"),
        ("verify", "menon", "--nmax", "5", "--kmax", "99", "--samples", "3"),
        ("verify", "fr-vanishing", "--nmax", "5", "--samples", "3",
         "--seed", "1"),
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

    def test_overflowing_euler_product_is_numerical_error(self):
        s = ",".join(["1.0000001"] * 50)
        for method in ("euler", "direct"):
            result = run_cli("igusa", "--n", "1", "--s", s, "--method", method)
            assert result.returncode == 3, method
            assert not result.stdout
            assert result.stderr.startswith("numerical error: ")
            assert "is not finite" in result.stderr

    def test_overflowing_direct_sum_with_a_zero_weight_class(self):
        # at n = 2, m^-1e300 is 0 for every even m, so the last variable's
        # class 0 weighs 0 after the first 800 variables overflowed to inf;
        # inf times that 0 would be nan, with a numpy RuntimeWarning
        s = ",".join(["1.5"] * 800 + ["1e300"])
        result = run_cli("igusa", "--n", "2", "--s", s, "--method", "direct",
                         "--trunc", "2000")
        assert result.returncode == 3
        assert not result.stdout
        assert result.stderr == ("numerical error: the direct sum inf or its "
                                 "bound nan is not finite\n")

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "0"])
    def test_direct_method_checks_the_tolerance(self, tolerance):
        result = run_cli("igusa", "--n", "2", "--s", "2", "--method", "direct",
                         "--tolerance", tolerance)
        assert result.returncode == 3
        assert not result.stdout
        assert result.stderr == "domain error: tolerance must be positive\n"

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

    def test_scan_beyond_the_sieve_limit_stops_at_once(self):
        # refused by the sieve's guard before the 8-byte-per-n value table
        start = time.perf_counter()
        result = run_cli("scan", "A", "--r", "1", "--xmax", "100000001")
        elapsed = time.perf_counter() - start
        assert result.returncode == 4
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("resource guard: sieve limit")
        assert elapsed < 1.0

    def test_fit_overflow_prints_one_line(self):
        # the design columns x log^170 x pass 1e308, so cond is inf: the
        # refusal is the one line, with no numpy warning before it
        result = run_cli("scan", "tau", "--k", "171", "--xmax", "100000",
                         "--checkpoints", "400")
        assert result.returncode == 3
        assert result.stderr == (
            "numerical error: fit is ill-conditioned (cond=inf); "
            "use more or wider checkpoints\n")

    def test_tau_scan_beyond_its_limit_keeps_the_sieves_message(self):
        result = run_cli("scan", "tau", "--k", "3", "--xmax", "100000001")
        assert result.returncode == 4
        assert not result.stdout
        assert result.stderr == (
            "resource guard: sieve limit 100000001 exceeds guard 100000000\n")

    def test_direct_overflow_prints_one_line(self):
        s = ",".join(["1.5"] * 2400)
        result = run_cli("igusa", "--n", "1", "--s", s, "--method", "direct",
                         "--trunc", "2")
        assert result.returncode == 3
        assert not result.stdout
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("numerical error: ")

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
        # T = max(n, 1e4) for every r: n + r T + (r - 1) n^2 steps, within
        # the guard up to r = 5 and beyond
        for n, s in ((2, "2,2,2,2"), (6, "2,2.5,3,2,3")):
            direct = run_cli("igusa", "--n", str(n), "--s", s,
                             "--method", "direct")
            assert direct.returncode == 0, direct.stderr
            record = json.loads(direct.stdout)
            r = s.count(",") + 1
            assert record["terms_evaluated"] == n + r * 10**4 + (r - 1) * n * n
            euler = json.loads(run_cli("igusa", "--n", str(n), "--s", s).stdout)
            gap = euler["value"] - record["value"]
            assert abs(gap) <= record["tail_bound"] + euler["tail_bound"]

    def test_many_exponents_stay_within_the_contract(self):
        # 1100 exponents at n = 2: (r + 1)^2 = 1212201 convolution steps
        result = run_cli("igusa", "--n", "2", "--s", ",".join(["3"] * 1100))
        assert result.returncode in (0, 3, 4), result.stderr
        assert "Traceback" not in result.stderr
        # 23 exponents, an input the tuple walk took about 10 s on, is 576
        # steps (test_igusa checks its value against a binomial reference)
        result = run_cli("igusa", "--n", "2", "--s", ",".join(["2"] * 23))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["terms_evaluated"] == 24**2

    def test_default_record_is_the_euler_product(self):
        result = run_cli("igusa", "--n", "200", "--s", "2,2,2,2")
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["method"] == "euler"
        assert record["terms_evaluated"] == 158
        assert 0 < record["tail_bound"] <= 1e-9


class TestVerify:
    def test_menon_reports_counts(self):
        result = run_cli("verify", "menon", "--nmax", "100")
        assert result.returncode == 0
        assert result.stdout.startswith("PASS")
        left, right = result.stdout.strip().split()[1].split("/")
        assert left == right

    def test_menon_output_bytes(self):
        # the exact workload's Menon commands
        result = run_cli("verify", "menon", "--nmax", "300")
        assert (result.returncode, result.stdout) == (0, "PASS 28298/28298\n")
        result = run_cli("eval", "menon", "--n", "999733", "--a", "867900")
        assert (result.returncode, result.stdout) == (0, "6816000\n")

    def test_menon_failure_line_matches_the_loop_form(self, monkeypatch):
        # one wrong Menon sum, at n = 7 and a = 3, reported as the suite
        # reported it when it called menon_sum once per unit
        def wrong(n, a):
            return n == 7 and a == 3

        def loop_form(nmax, rmax):
            checked = 0
            for n in range(1, nmax + 1):
                expected = gcdsum.b_closed(n, 1)
                for a in range(1, n + 1):
                    if math.gcd(a, n) != 1:
                        continue
                    got = menon_sum_loop(n, a) + wrong(n, a)
                    if got != expected:
                        return (f"FAIL after {checked} checks at {n}: "
                                f"menon_sum({n}, {a}) = {got} != {expected}")
                    checked += 1
                for r in range(1, rmax + 1):
                    assert gcdsum.b_bruteforce(n, r) == gcdsum.b_closed(n, r)
                    checked += 1
            return f"PASS {checked}/{checked}"

        real = gcdsum.menon_sums
        monkeypatch.setattr(gcdsum, "menon_sums", lambda table: [
            v + wrong(table.n, x)
            for x, v in zip(table.ks.tolist(), real(table))
        ])
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["verify", "menon", "--nmax", "10"])
        line = "FAIL after 32 checks at 7: menon_sum(7, 3) = 13 != 12"
        assert (code, out.getvalue()) == (1, line + "\n")
        assert loop_form(10, 3) == line

    # one function wrong at one point: the suite's own failure line, with
    # the checks that passed before it
    @pytest.mark.parametrize("module, name, wrong, argv, line", [
        # the B_r that verify menon carries from r to r + 1
        (arith.ProductTable, "totals",
         lambda real: lambda self, shift, what: (
             v + ((self.n, r, shift) == (6, 2, 1))
             for r, v in enumerate(real(self, shift, what), 1)),
         ["menon", "--nmax", "10"],
         "FAIL after 28 checks at 6: B_2(6) brute != closed"),
        (gcdsum, "a_recursion",
         lambda real: lambda n, r: real(n, r) + ((n, r) == (5, 1)),
         ["a-threeway", "--nmax", "10"],
         "FAIL after 17 checks at 5: "
         "A_1(5): brute=9/5 local=9/5 recursion=14/5"),
        # the A_r that verify a-threeway carries from r to r + 1
        (arith.ProductTable, "totals",
         lambda real: lambda self, shift, what: (
             v + ((self.n, r, shift) == (5, 1, 0))
             for r, v in enumerate(real(self, shift, what), 1)),
         ["a-threeway", "--nmax", "10"],
         "FAIL after 17 checks at 5: "
         "A_1(5): brute=2 local=9/5 recursion=9/5"),
        # f_r wrong at a k <= r here; at a k > r, with a degree above r
        # and with a flipped sign after the mult case
        (dirichlet, "f_r_local",
         lambda real: lambda r, k: (1, 0, 0, 5) if (r, k) == (2, 3)
         else real(r, k),
         ["fr-vanishing"],
         "FAIL after 12 checks at 2: (r=2, k=3): "
         "A_2(p^3) != (tau_3 * f_2)(p^3) at u = 0"),
        # (7629, 4081) is the third coprime pair that seed 5 draws, and
        # tau_3 the third function checked on it: 2 * 3 + 2 checks before
        (multfun, "eval_int",
         lambda real: lambda f, n: real(f, n) + (
             f(2, 1) == 3 and n == 7629 * 4081),
         ["mult", "--seed", "5"],
         "FAIL after 8 checks at 7629: tau_3 not multiplicative at "
         "(7629, 4081)"),
        # the next two vanish at u = 0..r, so only the points past r
        # that their degree adds catch them
        (dirichlet, "f_r_local",  # u(u - 1) as f_1(p^5)
         lambda real: lambda r, k: (0, -1, 1) if (r, k) == (1, 5)
         else real(r, k),
         ["fr-vanishing"],
         "FAIL after 4 checks at 1: (r=1, k=5): "
         "A_1(p^5) != (tau_2 * f_1)(p^5) at u = 2"),
        (dirichlet, "f_r_local",  # 4u - u^2 + u(u - 1)(u - 2)(u - 3)
         lambda real: lambda r, k: (0, -2, 10, -6, 1) if (r, k) == (3, 2)
         else real(r, k),
         ["fr-vanishing"],
         "FAIL after 21 checks at 3: (r=3, k=2): "
         "A_3(p^2) != (tau_4 * f_3)(p^2) at u = 4"),
        (dirichlet, "f_r_local",
         lambda real: lambda r, k: tuple(-c for c in real(r, k))
         if (r, k) == (3, 1) else real(r, k),
         ["fr-vanishing"],
         "FAIL after 20 checks at 3: (r=3, k=1): "
         "A_3(p^1) != (tau_4 * f_3)(p^1) at u = 1"),
    ])
    def test_failure_lines(self, monkeypatch, module, name, wrong, argv,
                           line):
        monkeypatch.setattr(module, name, wrong(getattr(module, name)))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["verify", *argv])
        assert (code, out.getvalue()) == (1, line + "\n")

    @pytest.mark.parametrize("argv, line", [
        (["a-threeway", "--nmax", "30", "--rmax", "12"], "PASS 390/390"),
        (["menon", "--nmax", "30"], "PASS 368/368"),
    ])
    def test_one_table_per_modulus(self, monkeypatch, argv, line):
        # a-threeway carries A_r to A_(r+1) as menon carries B_r, so
        # neither builds a table per (n, r)
        built, real = [], arith.ProductTable.__init__

        def counted(self, n, *args, **kwargs):
            built.append(n)
            real(self, n, *args, **kwargs)

        monkeypatch.setattr(arith.ProductTable, "__init__", counted)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["verify", *argv]) == 0
        assert out.getvalue() == line + "\n"
        assert built == list(range(1, 31))

    @staticmethod
    def fraction_form(suite, nmax, rmax, wrong):
        """The domination or squarefree suite on Fraction values, as it
        ran before it compared integer numerators, with wrong(n, r) / n^r
        added to A_r(n)."""
        checked = 0
        for n in range(1, nmax + 1):
            fi = factorize(n)
            if suite == "squarefree" and any(k > 1 for _, k in fi.factors):
                continue
            for r in range(rmax + 1):
                a = a_eval_product(fi, r) + Fraction(wrong(n, r), n**r)
                if suite == "domination":
                    t = multfun.eval_int(multfun.tau_k(r + 1), fi)
                    if a > t or (r >= 1 and (a == t) != (n == 1)):
                        return (f"FAIL after {checked} checks at {n}: "
                                f"A_{r}({n}) = {a} vs tau_{r + 1} = {t}")
                else:
                    expected = Fraction(1)
                    for p, _ in fi.factors:
                        expected *= p * (1 - Fraction(p - 1, p) ** (r + 1))
                    if a != expected:
                        return (f"FAIL after {checked} checks at {n}: "
                                f"squarefree expansion fails at n={n}, r={r}")
                checked += 1
        return f"PASS {checked}/{checked}"

    @pytest.mark.parametrize("suite, at, line", [
        ("domination", None, "PASS 200/200"),
        ("domination", (2, 1), "FAIL after 6 checks at 2: A_1(2) = 2 vs tau_2 = 2"),
        ("domination", (1, 0), "FAIL after 0 checks at 1: A_0(1) = 2 vs tau_1 = 1"),
        ("domination", (12, 3),
         "FAIL after 58 checks at 12: A_3(12) = 69121/1728 vs tau_4 = 40"),
        ("squarefree", None, "PASS 130/130"),
        ("squarefree", (30, 2),
         "FAIL after 92 checks at 30: squarefree expansion fails at n=30, r=2"),
    ])
    def test_output_matches_the_fraction_form(self, monkeypatch, suite, at,
                                              line):
        # one numerator off, at n^r A_r(n) for (n, r) = at; the domination
        # case at 12 is off by 12^3 (tau_4(12) - A_3(12)) + 1, with
        # tau_4(12) = 40, so the reduced Fraction in its line is not whole
        def wrong(n, r):
            if (n, r) != at:
                return 0
            if at == (12, 3):
                return int(12**3 * (40 - a_eval_product(12, 3))) + 1
            return 1

        real = gcdsum.a_numerator

        def off(n, r):
            return real(n, r) + wrong(factorize(n).value, r)

        monkeypatch.setattr(gcdsum, "a_numerator", off)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["verify", suite, "--nmax", "40", "--rmax", "4"])
        assert (code, out.getvalue()) == (int(at is not None), line + "\n")
        assert self.fraction_form(suite, 40, 4, wrong) == line

    # each suite's bounds at their least value, the output there, and the
    # domain error one step below it
    @pytest.mark.parametrize("argv, flag, least, line", [
        (("menon", "--nmax", "1"), "--nmax", 1, "PASS 4/4"),
        (("menon", "--nmax", "3", "--rmax", "0"), "--rmax", 0, "PASS 4/4"),
        (("a-threeway", "--nmax", "1"), "--nmax", 1, "PASS 4/4"),
        (("a-threeway", "--nmax", "3", "--rmax", "0"), "--rmax", 0, "PASS 3/3"),
        (("fr-vanishing", "--rmax", "1"), "--rmax", 1, "PASS 10/10"),
        (("fr-vanishing", "--kmax", "1"), "--kmax", 1, "PASS 3/3"),
        (("domination", "--nmax", "1"), "--nmax", 1, "PASS 4/4"),
        (("domination", "--nmax", "3", "--rmax", "0"), "--rmax", 0, "PASS 3/3"),
        (("squarefree", "--nmax", "1"), "--nmax", 1, "PASS 4/4"),
        (("squarefree", "--nmax", "3", "--rmax", "0"), "--rmax", 0, "PASS 3/3"),
        (("mult", "--samples", "1", "--seed", "2"), "--samples", 1, "PASS 3/3"),
    ])
    def test_bounds_below_the_least_are_domain_errors(self, argv, flag, least,
                                                      line):
        argv = ["verify", *argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv) == 0
        assert (out.getvalue(), err.getvalue()) == (line + "\n", "")
        below = argv.copy()
        below[below.index(flag) + 1] = str(least - 1)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(below) == 3
        assert out.getvalue() == ""
        assert err.getvalue() == (
            f"domain error: verify {argv[1]} needs {flag} >= {least}, "
            f"got {least - 1}\n"
        )

    def test_a_run_that_checks_nothing_is_a_domain_error(self):
        # the one pair the default seed draws is not coprime
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["verify", "mult", "--samples", "1"]) == 3
        assert (out.getvalue(), err.getvalue()) == (
            "", "domain error: verify mult found nothing to check\n")

    # both runs cross the convolution's count switch: their small n and r
    # count in int64, and their large ones (phi(n)^r n or n^r n past
    # 2^63) in Python ints
    @pytest.mark.parametrize("argv, line", [
        (["menon", "--nmax", "60", "--rmax", "12"], "PASS 1822/1822\n"),
        (["a-threeway", "--nmax", "30", "--rmax", "12"], "PASS 390/390\n"),
    ])
    def test_brute_forces_across_the_python_int_switch(self, argv, line):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["verify", *argv]) == 0
        assert (out.getvalue(), err.getvalue()) == (line, "")

    def test_threeway(self):
        result = run_cli("verify", "a-threeway", "--nmax", "30", "--rmax", "3")
        assert result.returncode == 0
        assert result.stdout.startswith("PASS")

    def test_fr_vanishing(self):
        result = run_cli("verify", "fr-vanishing", "--rmax", "5", "--kmax", "12")
        assert (result.returncode, result.stdout) == (0, "PASS 60/60\n")

    @pytest.mark.parametrize("rmax, kmax", [(1, 7), (4, 3), (3, 10)])
    def test_fr_vanishing_runs_at_its_guard(self, monkeypatch, rmax, kmax):
        # _FR_CHECK_STEPS (r + 2)^2 steps for each (r, k), and once more
        # for each r
        edge = _FR_CHECK_STEPS * (kmax + 1) * sum(
            (r + 2) ** 2 for r in range(1, rmax + 1))
        argv = ["verify", "fr-vanishing", "--rmax", str(rmax),
                "--kmax", str(kmax)]
        monkeypatch.setattr(arith, "LOOP_GUARD", edge)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv) == 0
        checks = rmax * kmax
        assert (out.getvalue(), err.getvalue()) == (
            f"PASS {checks}/{checks}\n", "")
        monkeypatch.setattr(arith, "LOOP_GUARD", edge - 1)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv) == 4
        assert out.getvalue() == ""
        assert err.getvalue().startswith(
            f"resource guard: verify fr-vanishing needs {edge} loop steps")

    # the steps each suite is certain to take at its default flags:
    # nmax (rmax + 1), plus a-threeway's nmax rmax (rmax + 1) / 2 rows,
    # nmax + rmax for squarefree and samples for mult (fr-vanishing's
    # count has the test above)
    @pytest.mark.parametrize("suite, steps", [
        ("menon", 400), ("a-threeway", 400 + 600 * _THREEWAY_ROW_STEPS),
        ("domination", 400),
        ("squarefree", 103), ("mult", 200),
    ])
    def test_runs_at_its_suite_guard(self, monkeypatch, suite, steps):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["verify", suite]) == 0
        line = out.getvalue()
        # the Menon sums and brute forces guard their own calls, some
        # with more steps than the suite's count, so only the suite's
        # guard is left to read the lowered LOOP_GUARD
        monkeypatch.setattr(gcdsum, "_check_loop_guard", lambda *_: None)
        monkeypatch.setattr(arith, "_check_loop_guard", lambda *_: None)
        monkeypatch.setattr(arith, "LOOP_GUARD", steps)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["verify", suite]) == 0
        assert (out.getvalue(), err.getvalue()) == (line, "")
        monkeypatch.setattr(arith, "LOOP_GUARD", steps - 1)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["verify", suite]) == 4
        assert out.getvalue() == ""
        assert err.getvalue().startswith(
            f"resource guard: verify {suite} needs {steps} loop steps")
        assert err.getvalue().count("\n") == 1

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
            assert f_r_local(r, k)[i] == c
        # zero polynomials contribute no rows
        assert all(int(row["k"]) <= 3 for row in rows)

    def test_table_stops_at_k_equal_r(self):
        start = time.perf_counter()
        result = run_cli("eval", "fr", "--r", "1", "--kmax", "1000000000")
        elapsed = time.perf_counter() - start
        assert result.returncode == 0
        assert result.stdout == "r=1 k=1 c_0=0\nr=1 k=1 c_1=-1\n"
        assert elapsed < 1.0

    def test_empty_table_and_bad_order(self):
        result = run_cli("eval", "fr", "--r", "3", "--kmax", "0")
        assert (result.returncode, result.stdout) == (0, "all zero\n")
        result = run_cli("eval", "fr", "--r", "0", "--kmax", "5")
        assert result.returncode == 3
        assert result.stderr == "domain error: r must be >= 1, got 0\n"

    def test_large_r_runs_in_closed_form(self):
        # the expansion of every (1-u)^j took more than 20 s here
        start = time.perf_counter()
        result = run_cli("eval", "fr", "--r", "2000", "--k", "3")
        elapsed = time.perf_counter() - start
        assert result.returncode == 0
        assert result.stdout.startswith("-665999833500u + 266000333499900u^2")
        assert result.stdout.endswith(" - 2001u^1997 + u^1998\n")
        assert elapsed < 5.0


# argv refused within a second, with the exit code and stderr start: all
# but the two leading-coefficient cases from their arguments alone, before
# any coefficient, factorial, sieve or suite loop.  The argv fuzz draws
# only small values, so the huge ones are listed here.
_HUGE_K = "1" + "0" * 100  # 10^100
_REFUSED_AT_ONCE = [
    (("eval", "fr", "--r", "1000", "--kmax", "1000"), 4,
     "resource guard: eval fr would print about 1.5e+08 characters"),
    (("eval", "fr", "--r", "14000", "--k", "1"), 4,
     "resource guard: eval fr would print about 5.9e+07 characters"),
    (("eval", "fr", "--r", "15000", "--k", "1"), 4,
     "resource guard: the result may have 4517 digits"),
    (("scan", "A", "--r", "171", "--xmax", "100"), 3,
     "domain error: function order must be <= 170"),
    (("scan", "tau", "--k", "172", "--xmax", "100"), 3,
     "domain error: function order must be <= 171"),
    (("scan", "tau", "--k", "1000000", "--xmax", "100"), 3,
     "domain error: function order must be <= 171"),
    # 170! is a float, but the Euler product takes the value below 1e-308
    (("scan", "A", "--r", "132", "--xmax", "100"), 3,
     "numerical error: the leading coefficient of A_132 is below"),
    (("scan", "A", "--r", "125", "--xmax", "1000000"), 3,
     "numerical error: the leading coefficient of A_125 is below"),
    # tau_k(2^60) = C(k + 59, 60), about 6000 - log10(60!) digits at
    # k = 10^100: past the int-to-str limit of 4300
    (("eval", "tau", "--n", str(2**60), "--k", _HUGE_K), 4,
     "resource guard: the result may have 5919 digits"),
    (("eval", "tau", "--n", str(2**60), "--k", _HUGE_K, "--format", "json"),
     4, "resource guard: the result may have 5919 digits"),
    (("eval", "tau", "--n", "6", "--k", "1" + "0" * 4000), 4,
     "resource guard: the result may have 8001 digits"),
    (("scan", "extremal", "--r", "10000000", "--x", "1000"), 4,
     "resource guard: extremal_statistic needs 270000027 loop steps"),
    (("verify", "fr-vanishing", "--rmax", "1", "--kmax", "1000000000"), 4,
     "resource guard: verify fr-vanishing needs 36000000036 loop steps"),
    (("verify", "fr-vanishing", "--rmax", "300", "--kmax", "300"), 4,
     "resource guard: verify fr-vanishing needs"),
    # the other suites count nmax (rmax + 1) steps, a-threeway also its
    # rows, nmax + rmax for squarefree and samples for mult, before their
    # loops
    (("verify", "domination", "--nmax", "5", "--rmax", _HUGE_K), 4,
     "resource guard: verify domination needs about 1e101 loop steps"),
    (("verify", "a-threeway", "--nmax", "5", "--rmax", _HUGE_K), 4,
     "resource guard: verify a-threeway needs about 1e202 loop steps"),
    (("verify", "squarefree", "--nmax", "5", "--rmax", _HUGE_K), 4,
     "resource guard: verify squarefree needs about 1e100 loop steps"),
    (("verify", "menon", "--nmax", "5", "--rmax", _HUGE_K), 4,
     "resource guard: verify menon needs about 1e101 loop steps"),
    (("verify", "mult", "--samples", str(10**17)), 4,
     "resource guard: verify mult needs 100000000000000000 loop steps"),
    # a-threeway at n <= 2 with r in the thousands, where each (n, r)
    # passes its own guards: only the suite's count of rows refuses them
    (("verify", "a-threeway", "--nmax", "2", "--rmax", "3000"), 4,
     "resource guard: verify a-threeway needs 288102002 loop steps"),
    (("verify", "a-threeway", "--nmax", "1", "--rmax", "4000"), 4,
     "resource guard: verify a-threeway needs 256068001 loop steps"),
    (("verify", "a-threeway", "--nmax", "1", "--rmax", "1000000"), 4,
     "resource guard: verify a-threeway needs 16000017000001 loop steps"),
]


class TestRefusedAtOnce:
    @pytest.mark.parametrize("argv, code, says", _REFUSED_AT_ONCE)
    def test_one_line_and_no_traceback(self, argv, code, says):
        start = time.perf_counter()
        result = run_cli(*argv)
        elapsed = time.perf_counter() - start
        assert result.returncode == code
        assert not result.stdout
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith(says)
        assert "Traceback" not in result.stderr
        assert elapsed < 1.0


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

    def test_scan_leaves_numpy_ma_unimported(self):
        # numpy.ma takes about 10 ms to import; nothing a scan calls needs it
        code = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from gcdzeta.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, "scan", "tau", "--k", "3", "--xmax",
             "100000"],
            capture_output=True, text=True,
        )
        assert (result.stdout, result.stderr) == ("0 False\n", "")

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

    def test_scan_memory_does_not_grow_with_x(self):
        # one fresh interpreter per scan, so RUSAGE_CHILDREN holds that
        # scan's peak alone; a table of x float64 entries would be 80 MB
        def peak_mb(xmax):
            code = (
                "import resource, subprocess, sys\n"
                "subprocess.run(sys.argv[1:], check=True,"
                " stdout=subprocess.DEVNULL)\n"
                "print(resource.getrusage("
                "resource.RUSAGE_CHILDREN).ru_maxrss)"
            )
            argv = [sys.executable, "-m", "gcdzeta", "scan", "A", "--r",
                    "2", "--xmax", str(xmax)]
            result = subprocess.run(
                [sys.executable, "-c", code, *argv],
                capture_output=True, text=True, check=True,
            )
            return int(result.stdout) / 1024

        assert peak_mb(10**7) - peak_mb(1000) < 40


class TestOutputErrors:
    """Output that cannot be written exits 2 with one line, no traceback."""

    def check(self, result):
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("output error: ")

    def test_missing_directory(self, tmp_path):
        missing = str(tmp_path / "no-such-directory" / "out")
        result = run_cli("eval", "A", "--n", "4", "--r", "2", "--output", missing)
        self.check(result)
        assert not result.stdout
        for argv in (("scan", "A", "--r", "1", "--xmax", "1000", "--csv"),
                     ("scan", "extremal", "--r", "1", "--x", "200", "--json")):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                assert main([*argv, missing]) == 2, argv
            assert err.getvalue().startswith("output error: "), argv
            assert err.getvalue().count("\n") == 1, argv

    def run_to(self, stdout):
        """igusa with stdout block-buffered, as it is by default, so the
        flush at interpreter exit would meet the error again."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run(
            [sys.executable, "-m", "gcdzeta", "igusa", "--n", "2", "--s", "2"],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout(self):
        with open("/dev/full", "w") as full:
            result = self.run_to(full)
        self.check(result)
        assert "No space left on device" in result.stderr

    def test_closed_stdout(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run_to(write_end)
        finally:
            os.close(write_end)
        self.check(result)
        assert "Broken pipe" in result.stderr

    # argv and its exit code when neither stream can be written: the
    # code of the error, not the 1 of a traceback from the failed line
    UNWRITABLE = (
        (("eval", "A", "--n", "0", "--r", "1"), 3),
        (("verify", "fr-vanishing", "--kmax", "1000000000"), 4),
        (("igusa", "--n", "2", "--s", "x"), 2),
        (("eval", "A", "--n", "12", "--r", "1"), 2),
        (("eval", "A", "--n", "12", "--r", "1", "--expect", "3"), 2),
    )

    def run_streams(self, argv, stdout, stderr):
        """argv with both streams block-buffered, as in run_to."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run([sys.executable, "-m", "gcdzeta", *argv],
                              stdout=stdout, stderr=stderr, env=env)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stderr_keeps_the_exit_code(self):
        with open("/dev/full", "w") as full:
            for argv, code in self.UNWRITABLE:
                result = self.run_streams(argv, full, full)
                assert result.returncode == code, argv
            # a result that is written, with its stderr line lost
            result = self.run_streams(self.UNWRITABLE[-1][0],
                                      subprocess.PIPE, full)
        assert (result.returncode, result.stdout) == (1, b"10/3\n")

    def test_one_closed_pipe_keeps_the_exit_code(self):
        for argv, code in self.UNWRITABLE:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                result = self.run_streams(argv, write_end, write_end)
            finally:
                os.close(write_end)
            assert result.returncode == code, argv


# Argv fuzzing in process: small ints, awkward floats, and --output only
# to devnull or under a missing directory, so nothing is written.
_INTS = st.integers(-3, 12).map(str)
_FLOATS = st.sampled_from(["nan", "inf", "-1", "0", "1", "1.5", "2.5", "1e300"])
_VALUES = {
    "--s": st.lists(st.one_of(_INTS, _FLOATS), min_size=1, max_size=3)
    .map(",".join),
    "--method": st.sampled_from(["euler", "direct", "magic"]),
    "--tolerance": _FLOATS,
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--expect": st.sampled_from(["0", "1", "7/4", "PASS 0/0"]),
    "--output": st.sampled_from(
        [os.devnull, os.path.join("no-such-directory", "out")]
    ),
}
# the verify suites that read --nmax (and --rmax), and one that is no suite
_NMAX_SUITES = ("menon", "a-threeway", "domination", "squarefree", "nonsense")
_COMMANDS = {
    ("eval", "A"): ("--n", "--r"),
    ("eval", "B"): ("--n", "--r"),
    ("eval", "menon"): ("--n", "--a"),
    ("eval", "tau"): ("--n", "--k"),
    ("eval", "fr"): ("--r", "--k", "--kmax"),
    ("scan", "A"): ("--r", "--xmax", "--checkpoints"),
    ("scan", "tau"): ("--k", "--xmax", "--checkpoints"),
    ("scan", "extremal"): ("--r", "--x"),
    ("igusa",): ("--n", "--s", "--method", "--trunc", "--tolerance"),
    **{("verify", suite): ("--rmax",) for suite in _NMAX_SUITES},
    ("verify", "fr-vanishing"): ("--rmax", "--kmax"),
    ("verify", "mult"): ("--samples", "--seed"),
}
# flags some commands refuse, drawn with any value, and --output
_EXTRA = ("--format", "--expect", "--trunc", "--n", "--k", "--output",
          "--nmax", "--kmax", "--samples", "--seed")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = list(command)
    if command[0] == "verify" and command[1] in _NMAX_SUITES:
        # the default --nmax of 100 would make each example slow
        argv += ["--nmax", draw(_INTS)]
    for flag in _COMMANDS[command]:
        if draw(st.integers(0, 3)):  # most flags present, so commands run
            argv += [flag, draw(_VALUES.get(flag, _INTS))]
    for flag in draw(st.lists(st.sampled_from(_EXTRA), max_size=2, unique=True)):
        argv += [flag, draw(_VALUES.get(flag, st.one_of(_INTS, _FLOATS)))]
    return argv


class TestArgvFuzz:
    @settings(max_examples=300)
    @given(argvs())
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 1, 2, 3, 4), (argv, err.getvalue())
