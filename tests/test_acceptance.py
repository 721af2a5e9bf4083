"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints one PASS/FAIL line so the suite doubles as a report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from conftest import poly_at

from gcdzeta import analytic, dirichlet, gcdsum, igusa, multfun
from gcdzeta.arith import ProductTable, factorize, prime_array

GAMMA = 0.5772156649015329
SIX_OVER_PI2 = 6 / math.pi**2
EXTREMAL_XS = (10**3, 10**4, 10**5)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def scan_a1():
    return analytic.summatory_scan("A", 1, 10**6)


@pytest.fixture(scope="module")
def scan_tau2():
    return analytic.summatory_scan("tau", 2, 10**6)


def test_criterion_1_threeway_agreement():
    t0 = time.perf_counter()
    ok = True
    for r in (0, 1, 2):
        for n in range(1, 101):
            if not (
                gcdsum.a_bruteforce(n, r)
                == gcdsum.a_eval(n, r)
                == gcdsum.a_recursion(n, r)
            ):
                ok = False
    for n in range(1, 41):
        if not (
            gcdsum.a_bruteforce(n, 3)
            == gcdsum.a_eval(n, 3)
            == gcdsum.a_recursion(n, 3)
        ):
            ok = False
    report(1, "three-way exact agreement", ok,
           f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_2_menon_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 101):
        for r in (1, 2, 3):
            if gcdsum.b_bruteforce(n, r) != gcdsum.b_closed(n, r):
                ok = False
    # every unit's sum from the product table, and the single sum at 1,
    # n - 1 and one seeded unit
    rng = random.Random(2)
    for n in range(1, 501):
        table, expected = ProductTable(n, units=True), gcdsum.b_closed(n, 1)
        units = table.ks.tolist()
        if gcdsum.menon_sums(table) != [expected] * len(units):
            ok = False
        for a in (1, n - 1, rng.choice(units)):
            if gcdsum.menon_sum(n, a) != expected:
                ok = False
    report(2, "Menon identities", ok, f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_3_correction_factor_structure(convolve):
    t0 = time.perf_counter()
    ok = True
    for r in range(1, 7):
        for k in range(r + 1, r + 7):
            if dirichlet.f_r_local(r, k) != ():
                ok = False
        for k in range(1, r + 1):
            if dirichlet.f_r_local(r, k)[0] != 0:
                ok = False
    for r in (1, 2, 3):
        def fr(p, k, r=r):
            return poly_at(dirichlet.f_r_local(r, k), Fraction(1, p))

        a_r = convolve(multfun.tau_k(r + 1), fr)
        for n in range(1, 5001):
            if multfun.eval_int(a_r, n) != gcdsum.a_eval(n, r):
                ok = False
    report(3, "correction-factor structure and factorization", ok,
           f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_4_large_order_limit():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 31):
        prev = Fraction(0)
        for r in range(0, 201):
            cur = gcdsum.a_eval(n, r)
            if cur < prev:
                ok = False
            prev = cur
        if abs(cur - n) / n >= Fraction(1, 1000):
            ok = False
    report(4, "monotone convergence to n at r = 200", ok,
           f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_5_domination_by_divisor_function():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 10**4 + 1):
        fi = factorize(n)
        for r in range(0, 5):
            a = gcdsum.a_eval(fi, r)
            t = multfun.eval_int(multfun.tau_k(r + 1), fi)
            if a > t:
                ok = False
            if r >= 1 and (a == t) != (n == 1):
                ok = False
    report(5, "domination by the divisor function", ok,
           f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_6_leading_coefficient_r1(scan_a1):
    t0 = time.perf_counter()
    value, _tail = analytic.euler_leading_coefficient(1, 10**6, prime_array(10**6))
    euler_ok = abs(value - SIX_OVER_PI2) < 1e-4
    fit_ok = (
        abs(scan_a1.fitted_leading_free - SIX_OVER_PI2) / SIX_OVER_PI2 < 0.02
    )
    ok = euler_ok and fit_ok
    report(
        6, "leading coefficient at r = 1", ok,
        f"euler={value:.8f}, fitted={scan_a1.fitted_leading_free:.6f}, "
        f"{time.perf_counter() - t0:.1f}s",
    )
    assert euler_ok
    assert fit_ok


def test_criterion_7_tau2_benchmark(scan_tau2):
    constant = scan_tau2.fitted_poly[0]
    constant_ok = abs(constant - (2 * GAMMA - 1)) < 0.02
    x_max, total = scan_tau2.checkpoints[-1]
    assert x_max == 10**6
    delta = total - (x_max * math.log(x_max) + (2 * GAMMA - 1) * x_max)
    delta_ok = abs(delta) < 1e3
    ok = constant_ok and delta_ok
    report(
        7, "divisor-sum benchmark", ok,
        f"constant={constant:.6f} vs {2 * GAMMA - 1:.6f}, Delta(1e6)={delta:.1f}",
    )
    assert constant_ok
    assert delta_ok


def test_criterion_8_residual_exponents(scan_a1, scan_tau2):
    slope_tau = analytic.residual_exponent_estimate(scan_tau2)
    slope_a = analytic.residual_exponent_estimate(scan_a1)
    ok = slope_tau <= 0.45 and slope_a <= 0.55
    report(
        8, "residual exponents", ok,
        f"tau_2 slope={slope_tau:.3f} (<=0.45), A_1 slope={slope_a:.3f} (<=0.55)",
    )
    assert slope_tau <= 0.45
    assert slope_a <= 0.55


def test_criterion_9a_extremal_statistic_near_limit():
    sample = analytic.extremal_statistic(1, 10**5)
    ok = abs(sample.statistic - math.log(2)) < 0.15
    report(
        9, "extremal statistic near log 2 (a)", ok,
        f"statistic={sample.statistic:.4f}, log2={math.log(2):.4f}",
    )
    assert ok


def test_criterion_9b_extremal_statistic_growth():
    # The statistic converges to log 2 from above on this family (see 9c
    # for why), so convergence shows as a positive gap stat - log 2 that
    # strictly shrinks as x grows.
    gaps = [
        analytic.extremal_statistic(1, x).statistic - math.log(2)
        for x in EXTREMAL_XS
    ]
    ok = gaps[-1] > 0 and all(a > b for a, b in zip(gaps, gaps[1:]))
    report(
        9, "extremal statistic approaches log 2 from above (b)", ok,
        "gaps at 1e3, 1e4, 1e5 = " + ", ".join(f"{g:.4f}" for g in gaps),
    )
    assert ok


def test_criterion_9c_extremal_statistic_ceiling(primes_between):
    # With lam = loglog n_x / log n_x and kappa = omega(n_x) lam, summing
    # the logs of (r+1)(1-1/p)^r <= A_r(p) = sum_{j<=r} (1-1/p)^j < r+1
    # over p | n_x gives
    #     kappa log(r+1) + r lam sum log(1-1/p) <= stat < kappa log(r+1).
    # kappa is computed from an independent prime list; it is 1.086 to
    # 1.066 on this range and falls toward 1, which is why the statistic
    # overshoots its limit by that much and no fixed ratio such as 1.05
    # holds at these x.
    ok = True
    worst = 0.0
    kappas = []
    for x in EXTREMAL_XS:
        ps = primes_between(int(x / math.log(x)), x)
        log_n = math.fsum(math.log(p) for p in ps)
        lam = math.log(log_n) / log_n
        kappa = len(ps) * lam
        kappas.append(kappa)
        log_q = math.fsum(math.log1p(-1.0 / p) for p in ps)
        for r in (1, 2, 3):
            stat = analytic.extremal_statistic(r, x).statistic
            ceiling = kappa * math.log(r + 1)
            floor = ceiling + r * lam * log_q
            worst = max(worst, stat / math.log(r + 1))
            if not floor <= stat < ceiling:
                ok = False
    ok = ok and all(a > b for a, b in zip(kappas, kappas[1:]))
    report(
        9, "extremal statistic inside kappa(x) log(r+1) ceiling (c)", ok,
        f"worst ratio={worst:.4f}, kappa(1e3)={kappas[0]:.4f}",
    )
    assert ok


def test_criterion_10_igusa_cross_check(hurwitz_reduction):
    # three ways: the Euler product in n against the truncated direct sum
    # (within its tail bound) and the n^r Hurwitz-zeta reduction
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4, 6):
        for s1 in (2.0, 2.5, 3.0):
            for s, trunc in [((s1,), 10**4)] + [
                ((s1, s2), 300) for s2 in (2.0, 2.5, 3.0)
            ]:
                direct, tail = igusa.igusa_direct(n, s, trunc)
                euler, _ = igusa.igusa_euler(n, s)
                if abs(euler - direct) > tail + 1e-8:
                    ok = False
                if abs(euler - hurwitz_reduction(n, s)) > 1e-12 * euler:
                    ok = False
    pinned = abs(igusa.igusa_euler(2, (2.0,))[0] - 5 * math.pi**2 / 24) < 1e-9
    ok = ok and pinned
    report(10, "cyclic-group zeta cross-check", ok,
           f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_11_cli_determinism(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "gcdzeta", *args],
            capture_output=True, text=True,
        )

    outputs = []
    artifacts = []
    for tag in ("x", "y"):
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        scan = run(
            "scan", "A", "--r", "1", "--xmax", "50000",
            "--csv", str(csv_path), "--json", str(json_path),
        )
        exact = run("eval", "A", "--n", "5040", "--r", "4")
        ig = run("igusa", "--n", "4", "--s", "2,2.5", "--method", "euler")
        outputs.append((scan.stdout, exact.stdout, ig.stdout))
        artifacts.append((csv_path.read_bytes(), json_path.read_bytes()))
    ok = outputs[0] == outputs[1] and artifacts[0] == artifacts[1]
    report(11, "CLI rerun determinism", ok)
    assert ok
