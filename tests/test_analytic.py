import dataclasses
import itertools
import math
import os
import re
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from conftest import (
    geometric_checkpoints_set,
    poly_at,
    scan_local,
    value_table,
    window_primes,
)
from hypothesis import strategies as st

from gcdzeta import analytic, arith, cli, piltz
from gcdzeta.analytic import (
    ExtremalSample,
    SummatoryReport,
    euler_leading_coefficient,
    extremal_statistic,
    fit_main_term,
    omega_bound,
    omega_bound_exponents,
    residual_exponent_estimate,
    summatory_scan,
)
from gcdzeta.arith import prime_array
from gcdzeta.dirichlet import f_r_local
from gcdzeta.errors import DomainError, NumericalError, ResourceError
from gcdzeta.gcdsum import a_eval

SIX_OVER_PI2 = 6 / math.pi**2


def brute_divisor_counts(x: int, k: int) -> list[int]:
    """tau_k(0..x) as Python ints (tau_k(0) = 0) by counting tuples over
    divisor lists."""
    counts = [0] + [1] * x
    for _ in range(k - 1):
        nxt = [0] * (x + 1)
        for d in range(1, x + 1):
            c = counts[d]
            if c:
                for m in range(d, x + 1, d):
                    nxt[m] += c
        counts = nxt
    return counts


def brute_divisor_count_sum(x: int, k: int) -> int:
    """Sum of tau_k(n) for n <= x by counting tuples over divisor lists."""
    return sum(brute_divisor_counts(x, k))


def dirichlet_power_counts(x: int, k: int) -> list[int]:
    """tau_k(0..x) as Python ints, the k-th Dirichlet power of 1 on the
    whole range by binary powering: fast enough at k = 171."""

    def times(f, g):
        h = [0] * (x + 1)
        for a in range(1, x + 1):
            if f[a]:
                for b in range(1, x // a + 1):
                    h[a * b] += f[a] * g[b]
        return h

    one = [0] + [1] * x
    power = one
    for bit in bin(k)[3:]:
        power = times(power, power)
        if bit == "1":
            power = times(power, one)
    return power


def checkpoint_sums(counts: list[int], cps: list[int]) -> list[int]:
    """sum(counts[1..c]) for c in cps."""
    prefix = list(itertools.accumulate(counts))
    return [prefix[c] for c in cps]


class TestSummatoryScan:
    def test_tau2_sum_at_100(self):
        report = summatory_scan("tau", 2, 100)
        assert report.checkpoints[-1] == (100, 482.0)
        assert brute_divisor_count_sum(100, 2) == 482

    def test_a1_sum_at_10(self):
        # exact value of the first ten terms is 139/7
        exact = sum(a_eval(n, 1) for n in range(1, 11))
        assert exact == Fraction(139, 7)
        report = summatory_scan("A", 1, 10)
        assert report.checkpoints == [(10, pytest.approx(float(exact), abs=1e-12))]

    def test_tau_sums_match_bruteforce_at_1e3(self):
        for k in (2, 3, 4):
            report = summatory_scan("tau", k, 1000)
            expected = brute_divisor_count_sum(1000, k)
            x, s = report.checkpoints[-1]
            assert x == 1000
            assert s == pytest.approx(expected, rel=1e-12)

    def test_sieve_matches_exact_partial_sums(self):
        # float scan against the exact rational sum, converted at the end
        for r in (1, 2, 3):
            report = summatory_scan("A", r, 10**4)
            exact = sum(
                (a_eval(n, r) for n in range(1, 10**4 + 1)), Fraction(0)
            )
            x, s = report.checkpoints[-1]
            assert x == 10**4
            assert abs(s - float(exact)) / float(exact) < 1e-6

    def test_partial_sums_nondecreasing_and_dominated(self):
        for r in (1, 2):
            rep_a = summatory_scan("A", r, 10**4)
            rep_t = summatory_scan("tau", r + 1, 10**4)
            sums_a = [s for _, s in rep_a.checkpoints]
            assert sums_a == sorted(sums_a)
            for (xa, sa), (xt, st_) in zip(rep_a.checkpoints, rep_t.checkpoints):
                assert xa == xt
                assert sa <= st_

    def test_report_degree_matches_order(self):
        assert summatory_scan("A", 2, 10**4).degree == 2
        assert summatory_scan("tau", 3, 10**4).degree == 2

    def test_checkpoints_strictly_increasing(self):
        report = summatory_scan("A", 1, 10**4, checkpoint_count=60)
        xs = [x for x, _ in report.checkpoints]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert xs[-1] == 10**4

    def test_r2_fit_cross_validates_euler_product(self):
        # two independent estimates of the same leading coefficient
        report = summatory_scan("A", 2, 10**6)
        rel = abs(report.fitted_leading_free - report.fixed_leading)
        assert rel / report.fixed_leading < 0.05

    def test_guards(self):
        with pytest.raises(DomainError):
            summatory_scan("A", 1, 9)
        with pytest.raises(DomainError):
            summatory_scan("sigma", 1, 100)
        with pytest.raises(ResourceError):
            summatory_scan("A", 1, 10**9)
        for count in (0, -3):
            with pytest.raises(DomainError):
                summatory_scan("A", 2, 1000, checkpoint_count=count)
        # 133334 points round to at most 991 distinct checkpoints, so at
        # most 991 block sums run, plus one piece for the one window
        report = summatory_scan("A", 2, 1000, checkpoint_count=133334)
        assert len(report.checkpoints) == 991
        # (991 + 1) * 75 block steps plus one step per point asked for
        with pytest.raises(ResourceError, match="10000001 loop steps"):
            summatory_scan("A", 2, 1000, checkpoint_count=9925601)

    def test_guard_counts_distinct_blocks_and_windows(self, monkeypatch):
        # at 1e4 there are at most 9991 distinct checkpoints and 1 window;
        # at 3 WINDOW + 7 at most 3 WINDOW + 7 - 786 + 1 and 4 windows
        for x_max, count, blocks in (
            (10**4, 500, 501),
            (10**4, 20000, 9992),
            (3 * WINDOW + 7, 300, 304),
        ):
            edge = blocks * 75 + count
            monkeypatch.setattr(arith, "LOOP_GUARD", edge)
            summatory_scan("A", 2, x_max, checkpoint_count=count)
            monkeypatch.setattr(arith, "LOOP_GUARD", edge - 1)
            with pytest.raises(ResourceError, match=f"needs {edge} loop"):
                summatory_scan("A", 2, x_max, checkpoint_count=count)

    def test_huge_checkpoint_count_refused_before_any_point(
        self, monkeypatch
    ):
        def unreachable(*args):
            raise AssertionError("checkpoints built past the guard")

        monkeypatch.setattr(analytic, "_geometric_checkpoints", unreachable)
        monkeypatch.setattr(analytic, "prime_array", unreachable)
        monkeypatch.setattr(analytic, "_value_windows", unreachable)
        monkeypatch.setattr(os, "fork", unreachable)
        with pytest.raises(ResourceError, match="1000074400 loop steps"):
            summatory_scan("A", 2, 1000, checkpoint_count=10**9)
        # 5e6 blocks and 39 window pieces at 1e7
        with pytest.raises(ResourceError, match="380002925 loop steps"):
            summatory_scan("A", 2, 10**7, checkpoint_count=5 * 10**6)

    def test_no_fit_below_two_decades(self):
        report = summatory_scan("tau", 2, 100)
        assert report.fitted_poly == []
        assert report.residuals == []

    def test_order_past_the_float_factorials_is_refused_first(
        self, monkeypatch
    ):
        # 1/r! (A_r) and 1/(k-1)! (tau_k) leave float range past 170!
        def no_sieve(n):
            raise AssertionError("sieved before the order check")

        monkeypatch.setattr(analytic, "prime_array", no_sieve)
        for kind, order in (("A", 171), ("tau", 172), ("tau", 10**6)):
            with pytest.raises(DomainError, match="order must be <="):
                summatory_scan(kind, order, 100)

    def test_euler_limit_follows_x_max(self):
        # the product runs over the primes up to x_max, clamped to [100, 1e6]
        for x_max, limit in ((50, 100), (10**4, 10**4), (10**6 + 10, 10**6)):
            report = summatory_scan("A", 1, x_max)
            value, bound = euler_leading_coefficient(1, limit, prime_array(limit))
            assert (report.fixed_leading, report.euler_tail_bound) == (value, bound)

    @pytest.mark.parametrize("x_max, sieved", [
        # max(x_max // 2, the Euler limit max(100, min(x_max, 10^6)))
        (10, 100), (10**5, 10**5), (3 * 10**6, 1_500_000),
    ])
    def test_one_sieve_to_half_of_x_max(self, monkeypatch, x_max, sieved):
        # the primes above x_max / 2 come from the windows, not the sieve
        calls = []

        def sieve(n):
            calls.append(n)
            return prime_array(n)

        monkeypatch.setattr(analytic, "prime_array", sieve)
        summatory_scan("A", 2, x_max)
        assert calls == [sieved]

    def test_windows_hold_int32_primes_and_no_int64_list(self, monkeypatch):
        # the traced peak is the plan's 4 bytes a large prime and 8 for its
        # local value, the window buffer and one scatter piece (four 8-byte
        # arrays of a quarter window: index, positions and two gathers),
        # with 256 KB to spare; an int64 list of the primes to 1e6 kept
        # through the windows would add 628 KB
        plans, value_windows = [], analytic._value_windows

        def spy(plan, *args):
            plans.append(plan)
            return value_windows(plan, *args)

        monkeypatch.setattr(analytic, "_value_windows", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        tracemalloc.start()
        try:
            summatory_scan("A", 2, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (plan,) = plans
        big = plan[3]
        assert big.dtype == np.int32 and big[-1] == 499979
        assert peak < 12 * big.size + 2 * 8 * WINDOW + 2**18

    def test_past_the_sieve_limit_refused_before_any_sieve(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("sieved past the limit")

        monkeypatch.setattr(analytic, "prime_array", unreachable)
        with pytest.raises(
            ResourceError,
            match="^sieve limit 100000001 exceeds guard 100000000$",
        ):
            summatory_scan("A", 1, 10**8 + 1)

    def test_subnormal_leading_coefficient_refused_before_any_window(
        self, monkeypatch, capsys
    ):
        # the Euler product is taken before the windows; at r = 125 the full
        # product (primes to 1e6) is below the least normal float, while over
        # the primes to 100 alone it is 6.9e-306, still normal, which is why
        # the full call, not a short one, comes before the windows
        def unreachable(*args):
            raise AssertionError("windows built before the refusal")

        monkeypatch.setattr(analytic, "_value_windows", unreachable)
        code = cli.main(["scan", "A", "--r", "125", "--xmax", "10000000"])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical error: the leading coefficient of A_125 is below the "
            "least normal float, 2.2250738585072014e-308\n")


class TestEulerLeadingCoefficient:
    def test_r1_telescopes_to_basel_value(self):
        value, tail = euler_leading_coefficient(1, 10**5, prime_array(10**5))
        assert abs(value - SIX_OVER_PI2) < 1e-4
        assert abs(value - SIX_OVER_PI2) < tail

    def test_r1_truncated_at_100(self):
        # truncation error here is the omitted prime mass times the value,
        # about 1.11e-3; the reported bound must still cover it
        value, tail = euler_leading_coefficient(1, 100, prime_array(100))
        assert 5e-4 < abs(value - SIX_OVER_PI2) < 2e-3
        assert abs(value - SIX_OVER_PI2) < tail

    def test_r2_lands_in_unit_interval_scaled(self):
        value, _ = euler_leading_coefficient(2, 10**4, prime_array(10**4))
        assert 0 < value <= 0.5

    def test_tail_bound_shrinks_with_limit(self):
        _, t1 = euler_leading_coefficient(1, 1000, prime_array(1000))
        _, t2 = euler_leading_coefficient(1, 10**4, prime_array(10**4))
        assert t2 < t1

    def test_value_below_the_least_normal_float_is_refused(self):
        value, bound = euler_leading_coefficient(124, 10**6, prime_array(10**6))
        assert sys.float_info.min <= value and 0 < bound < value
        for r in (125, 170, 171, 10**4):
            with pytest.raises(NumericalError, match="least normal float"):
                euler_leading_coefficient(r, 10**6, prime_array(10**6))

    def test_prime_limit_guard(self):
        with pytest.raises(DomainError):
            euler_leading_coefficient(1, 50, prime_array(50))

    @pytest.mark.parametrize("limit", [10**3, 10**4])
    @pytest.mark.parametrize("r", [1, 2, 4, 10, 17, 18, 30])
    def test_matches_mpmath_product(self, r, limit, primes_between):
        # the same primes at 40 digits; what the bound holds beyond the
        # one-sided tail is the rounding term, and it must cover the error
        value, bound = euler_leading_coefficient(r, limit, prime_array(limit))
        with mpmath.workdps(40):
            ref = mpmath.mpf(1)
            for p in primes_between(0, limit):
                u = mpmath.mpf(1) / p
                ref *= (1 - u) ** r * (1 + r * u)
            ref = float(ref / mpmath.factorial(r))
        tail = -value * math.expm1(-r * (r + 1) / (2 * limit))
        assert math.isfinite(value)
        assert abs(value - ref) <= bound - tail <= 1e-12 * ref

    @pytest.mark.parametrize("r", [1, 2, 10, 30])
    def test_tail_is_one_sided(self, r):
        # every omitted factor is at most 1, so the product only falls
        # as the limit grows, and by no more than the tail bound
        v1, b1 = euler_leading_coefficient(r, 10**3, prime_array(10**3))
        v2, _ = euler_leading_coefficient(r, 10**6, prime_array(10**6))
        assert 0 <= v1 - v2 <= b1

    def test_bound_at_one_million(self):
        value, bound = euler_leading_coefficient(1, 10**6, prime_array(10**6))
        assert bound <= 1.1e-6 * value
        assert abs(value - SIX_OVER_PI2) <= bound
        value, bound = euler_leading_coefficient(2, 10**6, prime_array(10**6))
        assert bound <= 3.1e-6 * value

    def test_bound_below_value_up_to_r30(self):
        for r in range(1, 31):
            value, bound = euler_leading_coefficient(r, 1000, prime_array(1000))
            assert math.isfinite(value)
            assert 0 < bound < value


def per_prime_value_table(kind, param, x_max, primes):
    """The value table as one strided pass per prime power, every prime,
    with the local values written out in float64 here."""
    vals = np.ones(x_max + 1)
    vals[0] = 0.0
    for p in primes:
        pk = p
        k = 1
        prev = 1.0
        while pk <= x_max:
            if kind == "A":
                t = 1.0 - 1.0 / p
                loc = 0.0
                power = 1.0
                for j in range(param + 1):
                    loc += math.comb(k + j - 1, j) * power
                    power *= t
            else:
                loc = float(math.comb(k + param - 1, param - 1))
            vals[pk::pk] *= loc / prev
            prev = loc
            pk *= p
            k += 1
    return vals


def exact_euler_product(r, primes):
    """(1/r!) prod_{p <= P} (1 + sum_k f_r(p^k) / p^k), rounded once."""
    polys = [f_r_local(r, k) for k in range(1, r + 1)]
    num, den = 1, 1
    for p in primes:
        u = Fraction(1, p)
        factor = Fraction(1)
        pk = p
        for poly in polys:
            factor += poly_at(poly, u) / pk
            pk *= p
        num *= factor.numerator
        den *= factor.denominator
    return num / (den * math.factorial(r))


def float_bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


def grid_units(values) -> int:
    """The exact sum of float entries >= 1, in units of 2^-52: each entry
    is num / 2^j with j <= 52, so num 2^(52 - j) counts its units."""
    return sum(num * (2**52 // den)
               for num, den in map(float.as_integer_ratio, values))


def frexp_units(block: np.ndarray) -> int:
    """The exact sum of float entries that are 0 or >= 1, in units of
    2^-52: np.frexp makes an entry m 2^e (m in [1/2, 1)) the integer
    m 2^53 times 2^(e - 1) units; each exponent's integers are summed in
    26-bit halves, so the int64 sums stay exact."""
    mant, exp = np.frexp(block)
    mant = (mant * 2.0**53).astype(np.int64)
    total = 0
    for e in np.unique(exp).tolist():
        part = mant[exp == e]
        high = int((part >> 26).sum())
        low = int((part & (2**26 - 1)).sum())
        total += ((high << 26) + low) << (e - 1) if e else 0
    return total


def scans_on_cpus(monkeypatch, *args):
    """summatory_scan(*args) with 1, 2, 3 and 4 usable CPUs, so its
    windows run in as many processes, each scan leaving no child."""
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        report = summatory_scan(*args)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        yield report


CHUNK = analytic._CHUNK
WINDOW = analytic._WINDOW
TABLE = analytic._TABLE
ULP_1 = 2.0**-52


def windows_of(vals):
    """A stand-in for analytic._value_windows that yields vals' windows."""
    return lambda plan, x, start, stop: (
        (lo, vals[lo : lo + WINDOW]) for lo in range(start, stop, WINDOW))


@st.composite
def spread_blocks(draw):
    """Float64 arrays with entries in [1, 2^1000), at lengths that cross
    the chunk boundaries."""
    length = draw(st.sampled_from(
        [1, 2, 3, 17, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]
    ))
    low = draw(st.integers(0, 999))
    high = draw(st.integers(low, 999))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mantissas = 1.0 + rng.random(length)
    return np.ldexp(mantissas, rng.integers(low, high + 1, length))


def tie_above(target: Fraction) -> Fraction:
    """The least midpoint between two adjacent floats that is >= target."""
    low = float(target)
    if Fraction(low) > target:
        low = math.nextafter(low, 0)
    while True:
        high = math.nextafter(low, math.inf)
        tie = (Fraction(low) + Fraction(high)) / 2
        if tie >= target:
            return tie
        low = high


class TestExactSum:
    """_grid_total, the exact block sum on the 2^-52 grid, and its one
    rounding to a checkpoint."""

    @given(spread_blocks())
    def test_equals_fsum_bit_for_bit(self, block):
        total = analytic._grid_total(block)
        assert total == grid_units(block.tolist()) == frexp_units(block)
        assert float_bits([total / 2**52]) == float_bits([math.fsum(block)])

    @given(
        st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]),
        st.integers(0, 900),
        st.integers(0, 2**32 - 1),
    )
    def test_long_blocks_at_a_tie_round_half_even(self, length, k, seed):
        # entries in [2^k, 2^(k+1)) fill every limb bit, and one more such
        # entry moves the exact sum onto a midpoint between two floats,
        # where an inexact limb sum anywhere would flip the rounding
        rng = np.random.default_rng(seed)
        block = np.ldexp(1.0 + rng.random(length), k)
        exact = Fraction(grid_units(block.tolist()), 2**52)
        tie = tie_above(exact + 2**k)
        gap = tie - exact
        assert Fraction(float(gap)) == gap >= 2**k
        block = np.append(block, float(gap))
        total = analytic._grid_total(block)
        assert total == tie * 2**52
        got = total / 2**52
        assert float_bits([got]) == float_bits([math.fsum(block)])
        assert got == float(tie)

    @given(
        st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]),
        st.integers(0, 2**32 - 1),
    )
    def test_entries_up_to_the_largest_float(self, length, seed):
        # entries in [2^1000, max float]: a limb's rounding constant that
        # overflowed there would make it inf or nan, not an error
        rng = np.random.default_rng(seed)
        block = np.ldexp(1.0 + rng.random(length),
                         rng.integers(1000, 1024, length))
        block[rng.integers(0, length, 3)] = sys.float_info.max
        block[rng.integers(0, length)] = 2.0**1000
        total = analytic._grid_total(block)
        assert total == grid_units(block.tolist()) == frexp_units(block)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e300),
                    min_size=1, max_size=40))
    def test_short_lists_equal_fsum(self, values):
        total = analytic._grid_total(np.array(values, dtype=np.float64))
        assert total == grid_units(values)
        assert total == sum(map(Fraction, values)) * 2**52
        assert float_bits([total / 2**52]) == float_bits([math.fsum(values)])

    @pytest.mark.parametrize("values, want", [
        ([2.0**53 + 2, 1.0], 2.0**53 + 4),
        ([2.0**53, 1.0], 2.0**53),
        ([1.0, 1.0 + ULP_1], 2.0),
        ([1.0 + ULP_1, 1.0 + 2 * ULP_1], 2.0 + 4 * ULP_1),
        ([1.0 + ULP_1] * 2 + [1.0] * 2, 4.0),
        ([1.0 + 3 * ULP_1] * 2 + [1.0] * 2, 4.0 + 8 * ULP_1),
    ])
    def test_ties_round_half_even(self, values, want):
        got = analytic._grid_total(np.array(values)) / 2**52
        assert got == want == math.fsum(values)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_entries(self, bad):
        block = np.ones(CHUNK + 3)
        block[CHUNK + 1] = bad
        with pytest.raises(NumericalError):
            analytic._grid_total(block)

    @pytest.mark.parametrize("bad", [0.5, 1.0 - 2.0**-53, 5e-324])
    def test_rejects_entries_below_one(self, bad):
        # an entry below 1 may lie off the 2^-52 grid, so none is summed
        block = np.ones(CHUNK + 3)
        block[CHUNK + 1] = bad
        with pytest.raises(NumericalError, match="at least 1"):
            analytic._grid_total(block)

    @pytest.mark.parametrize(
        "x_max, first", [(10**4, 2**53), (3 * WINDOW + 7, 2**53 - 1)]
    )
    def test_checkpoint_at_a_tie_rounds_half_even(
        self, monkeypatch, x_max, first
    ):
        # S(x) = first + x - 1 exactly; where that is odd and above 2^53 it
        # lies halfway between two floats and rounds to the one with an
        # even mantissa.  Adding rounded block sums drifts: with first =
        # 2^53, S(10) = 2^53 + 9 rounds to 2^53 + 8, and the next block's
        # 2 gives 2^53 + 10 at x = 12, where the exact 2^53 + 11 rounds to
        # 2^53 + 12.  With first = 2^53 - 1 the sum up to each window's
        # end, 2^53 + k WINDOW - 3, is a tie too, and blocks straddle the
        # window edges, so rounding a window's piece would drift as well.
        vals = np.ones(x_max + 1)
        vals[0] = 0.0
        vals[1] = float(first)
        monkeypatch.setattr(analytic, "_value_windows", windows_of(vals))
        for report in scans_on_cpus(monkeypatch, "A", 1, x_max):
            exact = [first + x - 1 for x, _ in report.checkpoints]
            assert sum(e % 2 == 1 and e > 2**53 for e in exact) >= 10
            if x_max > 2 * WINDOW:
                xs = [x for x, _ in report.checkpoints]
                edges = range(WINDOW, x_max + 1, WINDOW)
                assert all(any(a < e <= b for a, b in zip(xs, xs[1:]))
                           for e in edges)
            for (x, s), e in zip(report.checkpoints, exact):
                assert s == float(e) == math.fsum(vals[1 : x + 1])


class TestFastPathsAgainstReferences:
    # 317 is prime: at 317^2 it is the largest prime on the small side of
    # sqrt(x), and at 317^2 - 1 the smallest on the large side; the rest
    # put the table's end on, next to or past the pass windows' edges;
    # 131101 is the least prime above 2^17, so at 2 * 131101 the largest
    # prime the plan keeps is x / 2, and x is just past window 0's end;
    # 10 to 25 are the smallest plans, whose only large primes are 5, 7
    # and 11, so the scatter runs over ms = [1, 2] or a few cofactors more;
    # at TABLE - 1 p = 2's table is half as long, at TABLE the window is
    # one table and at TABLE + 1 one entry past it; 2^19 and 3^12 are
    # prime powers past a window's length, each one entry of window 2;
    # from 2^19 - 1 to 2^19 + 2, x // 2, where the scatter's m = 1 row
    # ends and the test for entries still 1.0 begins, steps across the
    # edge of windows 0 and 1; 262139 and 262147, the primes on either
    # side of that edge, are x // 2 at 2 * 262139 and 2 * 262147 + 1, so
    # the row ends on a prime
    @pytest.mark.parametrize(
        "x_max",
        [10**5, 317**2, 317**2 - 1, WINDOW - 1, WINDOW, WINDOW + 1,
         3 * WINDOW + 7, 2 * 131101 - 1, 2 * 131101, 10, 11, 15, 24, 25,
         TABLE - 1, TABLE, TABLE + 1, 2**19 - 1, 2**19, 2**19 + 1,
         2**19 + 2, 2 * 262139, 2 * 262147 + 1, 3**12],
    )
    @pytest.mark.parametrize(
        "kind, param",
        [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("tau", 2), ("tau", 3),
         ("tau", 4)],
    )
    def test_value_table_bit_identical(self, kind, param, x_max, primes_between):
        got = value_table(scan_local(kind, param), x_max)
        want = per_prime_value_table(kind, param, x_max, primes_between(0, x_max))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "kind, param, x_max",
        [("A", r, 10**5) for r in (1, 2, 3, 4)]
        + [("tau", k, 10**5) for k in (2, 3, 4)]
        + [("A", 2, 10**4), ("A", 2, 10**6), ("tau", 3, 10**6)],
    )
    def test_block_sums_bit_identical(self, kind, param, x_max):
        # each block's grid total is exact, and each checkpoint is the
        # correctly rounded sum of the table up to x: math.fsum's value
        vals = value_table(scan_local(kind, param), x_max)
        cps = analytic._geometric_checkpoints(x_max, 40)
        bounds = list(zip([0] + cps, cps))
        if x_max == 10**6:
            # the chunk loop runs more than once on the longest blocks
            assert max(x - prev for prev, x in bounds) > CHUNK
        table = vals.tolist()
        for prev, x in bounds:
            want = grid_units(table[prev + 1 : x + 1])
            assert analytic._grid_total(vals[prev + 1 : x + 1]) == want
        report = summatory_scan(kind, param, x_max)
        assert [x for x, _ in report.checkpoints] == cps
        assert float_bits([s for _, s in report.checkpoints]) == float_bits(
            [math.fsum(table[1 : x + 1]) for x in cps]
        )

    @pytest.mark.parametrize(
        "x_max", [10, 317**2, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 7]
    )
    def test_windows_cover_the_table_in_order(self, x_max):
        plan = analytic._window_plan(scan_local("tau", 2), x_max,
                                     window_primes(x_max))
        got = [(lo, window.size) for lo, window
               in analytic._value_windows(plan, x_max, 0, x_max + 1)]
        assert got == [(lo, min(WINDOW, x_max + 1 - lo))
                       for lo in range(0, x_max + 1, WINDOW)]

    @pytest.mark.parametrize("kind, param", [("A", 2), ("tau", 3)])
    @pytest.mark.parametrize("cps", [
        # before, on and after each window edge
        [10, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 1, 3 * WINDOW - 1,
         3 * WINDOW, 3 * WINDOW + 1, 3 * WINDOW + 7],
        # one block across two edges, then one across the last
        [WINDOW + 1, 3 * WINDOW + 7],
        [3 * WINDOW + 7],
    ])
    def test_checkpoints_at_window_edges_equal_fsum(
        self, monkeypatch, kind, param, cps
    ):
        x_max = 3 * WINDOW + 7
        monkeypatch.setattr(
            analytic, "_geometric_checkpoints", lambda x, count: cps
        )
        table = value_table(scan_local(kind, param), x_max).tolist()
        for report in scans_on_cpus(monkeypatch, kind, param, x_max):
            assert [x for x, _ in report.checkpoints] == cps
            assert float_bits([s for _, s in report.checkpoints]) == (
                float_bits([math.fsum(table[1 : x + 1]) for x in cps])
            )

    def test_a2_scan_to_1e7_is_exact_across_windows(self, monkeypatch):
        # the last blocks between the 40 checkpoints span several windows;
        # the oracle sums whole windows and each checkpoint's prefix of its
        # window by frexp_units, never the scan's blocks
        reports = list(scans_on_cpus(monkeypatch, "A", 2, 10**7))
        xs = [x for x, _ in reports[0].checkpoints]
        assert xs[-1] - xs[-2] > 2 * WINDOW
        carry, want = 0, []
        plan = analytic._window_plan(scan_local("A", 2), 10**7,
                                     window_primes(10**7))
        for lo, window in analytic._value_windows(plan, 10**7, 0, 10**7 + 1):
            for x in xs:
                if lo <= x < lo + window.size:
                    units = carry + frexp_units(window[: x + 1 - lo])
                    want.append(units / 2**52)
            carry += frexp_units(window)
        for report in reports:
            assert [x for x, _ in report.checkpoints] == xs
            assert float_bits([s for _, s in report.checkpoints]) == (
                float_bits(want)
            )

    @pytest.mark.parametrize("count", [1, 2, 3, 40, 41, 4471])
    @pytest.mark.parametrize(
        "x_max", [10, 11, 999, 1000, 10**4, 10**6, 9970830]
    )
    def test_geometric_checkpoints_match_set_form(self, x_max, count):
        got = analytic._geometric_checkpoints(x_max, count)
        assert got == geometric_checkpoints_set(x_max, count)
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_euler_product_against_exact_oracle(self, r, primes_between):
        value, bound = euler_leading_coefficient(r, 10**4, prime_array(10**4))
        exact = exact_euler_product(r, primes_between(0, 10**4))
        assert abs(value - exact) <= bound
        assert abs(value - exact) <= 1e-12 * exact


def hyperbola_table(cps: list[int]):
    """(y, table, primes) as divisor_sums sets them up for cps: the
    table's shapes of 0..y and every prime up to isqrt(x)."""
    x = cps[-1]
    y = piltz._table_size(cps)
    primes = [p for p in range(2, math.isqrt(x) + 1)
              if all(p % q for q in range(2, math.isqrt(p) + 1))]
    return y, piltz._shapes(piltz._codes(0, y + 1, primes)), primes


def hyperbola_columns(k: int, cps: list[int]):
    """_tau_column on every checkpoint's floor grid: a function of
    (dtype, mod)."""
    y, table, _ = hyperbola_table(cps)
    grid = piltz._floor_grid(cps, y, lambda terms: None)
    chain = piltz._tau_chain(k)
    return lambda dtype, mod: piltz._tau_column(
        grid, table, chain, dtype, mod).tolist()


def segment_columns(k: int, cps: list[int]):
    """D_k at cps chained by _segment_sums from 0: a function of
    (dtype, mod)."""
    primes = hyperbola_table(cps)[2]
    segments = list(zip([0] + cps[:-1], cps))

    def column(dtype, mod):
        (part,) = piltz._segment_sums(k, segments, primes, [(dtype, mod)])
        sums = list(itertools.accumulate(part.tolist()))
        return sums if dtype is np.float64 else [
            s % (mod or 2**64) for s in sums]

    return column


def hyperbola_cost(k: int, cps: list[int]) -> tuple[int, int, int]:
    """(table entries, grid terms, chain levels) of the hyperbola on
    every checkpoint, counted here by walking every floor grid."""
    x = cps[-1]
    y = min(x, max(math.isqrt(x), min(int(0.6 * sum(cps) ** (2 / 3)), 2**20)))
    terms = sum(math.isqrt(c // m) for c in cps
                for m in range(1, c // (y + 1) + 1))
    levels = k.bit_length() - 1 + bin(k).count("1") - 1
    return y + 1, terms, levels


def grid_bounds(cps: list[int], y: int) -> list[int]:
    """The plan's bound on each checkpoint's grid terms, 2 sqrt(c L) for
    its L = c // (y + 1) pairs, rounded up."""
    return [math.ceil(2 * math.sqrt(c * (c // (y + 1)))) for c in cps]


class TestTauHyperbola:
    """tau_k scans: D_k(c) exactly, by the hyperbola on c's floor grid or
    by a segment sum from the checkpoint before."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("x", [10, 11, 100, 999, 3000])
    def test_every_checkpoint_equals_the_tuple_count(self, k, x):
        report = summatory_scan("tau", k, x)
        cps = [c for c, _ in report.checkpoints]
        exact = checkpoint_sums(brute_divisor_counts(x, k), cps)
        assert [s for _, s in report.checkpoints] == [float(d) for d in exact]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sums_are_the_window_tables_rounded_to_integers(self, k):
        # the float table's entries sit near, not always on, the integers;
        # its exact sum rounds to D_k at every checkpoint
        x = 10**5
        table = value_table(scan_local("tau", k), x)
        assert np.abs(table - np.rint(table)).max() < 1e-9
        report = summatory_scan("tau", k, x)
        assert all(s.is_integer() for _, s in report.checkpoints)
        assert [s for _, s in report.checkpoints] == [
            float(round(math.fsum(table[1 : c + 1].tolist())))
            for c, _ in report.checkpoints]

    @pytest.mark.parametrize("k, x", [(40, 1000), (171, 400), (171, 8192)])
    def test_each_arithmetic_against_python_ints(self, k, x):
        cps = analytic._geometric_checkpoints(x, 40)
        exact = checkpoint_sums(dirichlet_power_counts(x, k), cps)
        if x <= 1000:
            assert exact == checkpoint_sums(brute_divisor_counts(x, k), cps)
        p = piltz._RESIDUE_PRIME - 2  # 2^24 - 3 is prime
        assert arith.is_prime(p)
        for column in (hyperbola_columns(k, cps), segment_columns(k, cps)):
            assert column(np.uint64, None) == [d % 2**64 for d in exact]
            assert column(np.uint64, p) == [d % p for d in exact]
            for e, d in zip(column(np.float64, None), exact):
                assert abs(e - d) <= 1e-12 * d
        # past 2^64 the scan joins the uint64 column to columns mod primes
        assert (max(exact) > 2**64) == (x == 8192)
        report = summatory_scan("tau", k, x)
        assert report.checkpoints == [(c, float(d))
                                      for c, d in zip(cps, exact)]

    @pytest.mark.parametrize("k", [2, 3, 40])
    @pytest.mark.parametrize("read", [False, True])
    def test_every_checkpoint_by_either_path(self, monkeypatch, k, read):
        x = 3000
        monkeypatch.setattr(piltz, "_plan",
                            lambda cps, *args: [read] * len(cps))
        cps = analytic._geometric_checkpoints(x, 3000)
        assert len(cps) > 1000
        exact = checkpoint_sums(brute_divisor_counts(x, k), cps)
        assert piltz.divisor_sums(k, cps, 0) == exact

    def test_residues_off_the_estimate_are_refused(self, monkeypatch):
        column = piltz._tau_column

        def halved(grid, table, chain, dtype, mod):
            out = column(grid, table, chain, dtype, mod)
            return out / 2 if dtype is np.float64 else out

        monkeypatch.setattr(piltz, "_tau_column", halved)
        with pytest.raises(NumericalError, match="by residues but about"):
            summatory_scan("tau", 40, 1000)

    def test_chain_doubles_or_adds_one(self):
        for k in (1, 2, 3, 7, 40, 171):
            chain = piltz._tau_chain(k)
            assert chain[0] == 1 and chain[-1] == k
            assert all(b in (2 * a, a + 1) for a, b in zip(chain, chain[1:]))
            assert len(chain) - 1 == hyperbola_cost(k, [10])[2]
        assert len(piltz._tau_chain(171)) - 1 == 11

    @pytest.mark.parametrize("k, x, columns", [
        (3, 10**6, 1),
        # the uint64 column and one prime below 2^24
        (171, 8192, 2),
    ])
    def test_hyperbola_steps_recounted_on_every_grid(
        self, monkeypatch, k, x, columns
    ):
        cps = analytic._geometric_checkpoints(x, 40)
        entries, terms, levels = hyperbola_cost(k, cps)
        y, table, primes = hyperbola_table(cps)
        assert y + 1 == entries
        monkeypatch.setattr(piltz, "_plan",
                            lambda cps, *args: [True] * len(cps))
        _, steps = piltz._checkpoint_columns(
            k, cps, y, lambda: table, primes, [(np.uint64, None)] * columns,
            0)
        assert steps == (levels * columns + 2) * (
            entries // 16 + terms // 24 + 700)

    @pytest.mark.parametrize("k, x, columns", [
        (3, 10**6, 1),
        (4, 10**5, 1),
        (171, 10**5, 2),
    ])
    def test_plan_at_its_budget_and_one_step_past(self, k, x, columns):
        cps = analytic._geometric_checkpoints(x, 40)
        entries, _, levels = hyperbola_cost(k, cps)
        y = entries - 1
        every = piltz._plan(cps, y, levels, columns, 10**12)
        assert any(every)
        bound = sum(b for b, d in zip(grid_bounds(cps, y), every) if d)
        edge = (levels * columns + 2) * (700 + entries // 16
                                         + -(-bound // 24))
        assert piltz._plan(cps, y, levels, columns, edge) == every
        fewer = piltz._plan(cps, y, levels, columns, edge - 1)
        assert sum(fewer) < sum(every)
        assert all(e for d, e in zip(fewer, every) if d)

    @pytest.mark.parametrize("k", [3, 40, 171])
    def test_any_guard_the_scan_admits_gives_the_same_sums(
        self, monkeypatch, k
    ):
        x = 8192
        want = summatory_scan("tau", k, x).checkpoints
        cps = [c for c, _ in want]
        # the scan's own charge; the rest goes to the hyperbola
        edge = 40 + len(cps) * 60
        for guard in (edge, edge + 5000, edge + 50000, edge + 500000):
            monkeypatch.setattr(arith, "LOOP_GUARD", guard)
            assert summatory_scan("tau", k, x).checkpoints == want

    @pytest.mark.parametrize("count", [40, 400])
    def test_scan_guard_at_the_cap_and_one_step_past(
        self, monkeypatch, count
    ):
        x = 10**6
        cps = analytic._geometric_checkpoints(x, count)
        want = summatory_scan("tau", 3, x, count).checkpoints
        edge = count + len(cps) * 60
        monkeypatch.setattr(arith, "LOOP_GUARD", edge)
        assert summatory_scan("tau", 3, x, count).checkpoints == want
        monkeypatch.setattr(arith, "LOOP_GUARD", edge - 1)
        with pytest.raises(ResourceError, match=f"needs {edge} loop steps"):
            summatory_scan("tau", 3, x, count)

    def test_grid_past_its_byte_cap_is_chained(self, monkeypatch):
        x = 10**6
        cps = analytic._geometric_checkpoints(x, 40)
        y = piltz._table_size(cps)
        want = summatory_scan("tau", 3, x).checkpoints
        every = piltz._plan(cps, y, 2, 1, 10**12)
        bound = sum(b for b, d in zip(grid_bounds(cps, y), every) if d)
        monkeypatch.setattr(piltz, "_GRID_TERMS", bound)
        assert piltz._plan(cps, y, 2, 1, 10**12) == every
        monkeypatch.setattr(piltz, "_GRID_TERMS", bound - 1)
        assert sum(piltz._plan(cps, y, 2, 1, 10**12)) < sum(every)
        assert summatory_scan("tau", 3, x).checkpoints == want

    def test_past_1e8_refused_before_any_table(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("built past the limit")

        monkeypatch.setattr(piltz, "_codes", unreachable)
        with pytest.raises(
            ResourceError,
            match="sieve limit 100000001 exceeds guard 100000000",
        ):
            summatory_scan("tau", 2, 10**8 + 1)

    def test_no_sieve_window_or_fork(self, monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("a tau scan reached the window machinery")

        for module, name in ((arith, "prime_array"),
                             (analytic, "prime_array"),
                             (analytic, "_window_plan"),
                             (analytic, "_value_windows"),
                             (analytic, "_in_processes"), (os, "fork")):
            monkeypatch.setattr(module, name, unreachable)
        code = cli.main(["scan", "tau", "--k", "3", "--xmax", "1000000"])
        assert code == 0
        # D_3(10^6), the count of (a, b, c) with abc <= 10^6
        assert capsys.readouterr().out.startswith(
            "tau_3 scan to 1000000: S(1000000) = 106030594.0\n")

    @pytest.mark.parametrize("x, count, want", [
        (10**8, 400, "S(100000000) = 18362473634.0"),
        # the most checkpoints the sieved table's guard admitted at 1e7:
        # count + 75 (count + x // 2^18 + 1) <= 1e7
        (10**7, (10**7 - 75 * (10**7 // 2**18 + 1)) // 76,
         "S(10000000) = 1421760251.0"),
    ])
    def test_dense_checkpoints_run(self, capsys, x, count, want):
        code = cli.main(["scan", "tau", "--k", "3", "--xmax", str(x),
                         "--checkpoints", str(count)])
        assert code == 0
        assert capsys.readouterr().out.startswith(
            f"tau_3 scan to {x}: {want}\n")

    @pytest.mark.parametrize("k", [40, 171])
    def test_large_orders_at_1e7_are_integers(self, k):
        report = summatory_scan("tau", k, 10**7)
        sums = [s for _, s in report.checkpoints]
        assert all(s.is_integer() for s in sums)
        assert sums == sorted(sums)


class TestScanProcesses:
    """The scan's runs of windows, one per usable CPU: the first in this
    process, the rest in forked children."""

    # with 2 CPUs, windows 0 and 1 are this process's run and windows 2
    # and 3 the child's
    @pytest.mark.parametrize("bad_at", [5, 2 * WINDOW + 5])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_failing_run_exits_three_and_leaves_no_child(
        self, monkeypatch, capfd, bad, bad_at
    ):
        x_max = 3 * WINDOW + 7
        vals = np.ones(x_max + 1)
        vals[0] = 0.0
        vals[bad_at] = bad
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(analytic, "_value_windows", windows_of(vals))
        code = cli.main(["scan", "A", "--r", "2", "--xmax", str(x_max)])
        out, err = capfd.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("numerical error: exact block sum needs")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_run_with_no_result_exits_four_and_leaves_no_child(
        self, monkeypatch, capfd
    ):
        # the child leaves before it writes; this process never pickles
        parent, dumps = os.getpid(), analytic.pickle.dumps
        monkeypatch.setattr(
            analytic.pickle, "dumps",
            lambda obj: dumps(obj) if os.getpid() == parent else os._exit(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code = cli.main(["scan", "A", "--r", "2", "--xmax",
                         str(3 * WINDOW + 7)])
        out, err = capfd.readouterr()
        assert code == 4
        assert out == ""
        assert re.fullmatch(
            r"resource guard: scan worker \d+ ended with no result\n", err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_process_where_the_platform_cannot_fork(
        self, monkeypatch, missing
    ):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.delattr(os, missing)
        report = summatory_scan("A", 2, 3 * WINDOW + 7, 5)
        assert report.checkpoints[-1][0] == 3 * WINDOW + 7


class TestFitMainTerm:
    def test_degree_zero_recovers_constant_exactly(self):
        c = 2.7182818
        checkpoints = [(x, c * x) for x in (10, 100, 1000, 10000)]
        coeffs = fit_main_term(checkpoints, 0, None)
        assert coeffs[0] == pytest.approx(c, rel=1e-12)

    def test_recovers_planted_polynomial(self):
        poly = (0.25, -1.5, 0.75)
        checkpoints = []
        for x in (10, 50, 100, 500, 1000, 5000, 10**4, 10**5):
            t = math.log(x)
            checkpoints.append((x, x * (poly[0] + poly[1] * t + poly[2] * t * t)))
        fitted = fit_main_term(checkpoints, 2, poly[2])
        assert fitted[2] == poly[2]
        assert fitted[0] == pytest.approx(poly[0], abs=1e-9)
        assert fitted[1] == pytest.approx(poly[1], abs=1e-9)
        free = fit_main_term(checkpoints, 2, None)
        assert free[2] == pytest.approx(poly[2], rel=1e-9)

    def test_too_few_checkpoints(self):
        with pytest.raises(DomainError):
            fit_main_term([(10, 1.0), (1000, 2.0)], 1, None)

    def test_narrow_span_rejected(self):
        checkpoints = [(x, float(x)) for x in (10, 20, 40, 80)]
        with pytest.raises(DomainError):
            fit_main_term(checkpoints, 1, None)


class TestResidualExponentEstimate:
    def _synthetic_report(self, exponent: float) -> SummatoryReport:
        xs = [int(10 ** (1 + 0.25 * i)) for i in range(17)]
        return SummatoryReport(
            kind="tau",
            r_or_k=2,
            x_max=xs[-1],
            checkpoints=[(x, 0.0) for x in xs],
            degree=1,
            fixed_leading=1.0,
            euler_tail_bound=0.0,
            residuals=[(x, x**exponent) for x in xs],
        )

    def test_recovers_planted_exponent(self):
        est = residual_exponent_estimate(self._synthetic_report(0.4))
        assert est == pytest.approx(0.4, abs=0.01)

    def test_sign_of_residual_is_ignored(self):
        report = self._synthetic_report(0.5)
        report.residuals = [(x, -v) for x, v in report.residuals]
        assert residual_exponent_estimate(report) == pytest.approx(0.5, abs=0.01)

    def test_requires_enough_points(self):
        report = self._synthetic_report(0.4)
        report.residuals = report.residuals[:5]
        with pytest.raises(NumericalError):
            residual_exponent_estimate(report)

    def test_requires_usable_magnitudes(self):
        report = self._synthetic_report(0.4)
        report.residuals = [(x, 1e-9) for x, _ in report.residuals]
        with pytest.raises(NumericalError):
            residual_exponent_estimate(report)


class TestOmegaBound:
    def test_exponents_r1(self):
        e1, e2, e3 = omega_bound_exponents(1)
        assert e1 == pytest.approx(0.25)
        assert e2 == pytest.approx(0.75 * (2 ** (4 / 3) - 1))
        assert e3 == pytest.approx(-5 / 8)

    def test_exponents_r2(self):
        e1, e2, e3 = omega_bound_exponents(2)
        assert e1 == pytest.approx(1 / 3)
        assert e2 == pytest.approx((2 / 3) * (3 ** (3 / 2) - 1))
        assert e3 == pytest.approx(-2 / 3)

    def test_increasing_on_grid(self):
        for r in (1, 2, 3):
            values = [omega_bound(r, x) for x in range(100, 10**6, 9973)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_small_x_rejected(self):
        with pytest.raises(DomainError):
            omega_bound(1, 15)


class TestExtremalStatistic:
    def test_r1_close_to_log2_at_1e5(self):
        sample = extremal_statistic(1, 10**5)
        assert abs(sample.statistic - math.log(2)) < 0.15

    def test_sample_fields_consistent(self):
        sample = extremal_statistic(1, 10**4)
        assert sample.omega_n_x == 1049
        recomputed = sample.log_a_r * math.log(sample.log_n_x) / sample.log_n_x
        assert sample.statistic == pytest.approx(recomputed, rel=1e-15)

    def test_log_modulus_tracks_x(self):
        # log n_x ~ x: at desk scale it lands within 10 percent
        for x in (10**4, 10**5):
            sample = extremal_statistic(1, x)
            assert 0.85 * x < sample.log_n_x < 1.05 * x

    def test_statistic_above_the_limit_at_desk_scale(self):
        # the statistic approaches log(r+1) from above in this range,
        # decreasing in x; pin that shape so regressions are visible
        for r in (1, 2, 3):
            limit = math.log(r + 1)
            s3 = extremal_statistic(r, 10**3).statistic
            s5 = extremal_statistic(r, 10**5).statistic
            assert limit < s5 < s3

    def test_matches_independent_oracle(self, primes_between):
        # own sieve and the exact local value A_r(p) per prime
        for x in (10**3, 10**4, 10**5):
            ps = primes_between(int(x / math.log(x)), x)
            log_n = math.fsum(math.log(p) for p in ps)
            for r in (1, 2, 3):
                log_a = math.fsum(math.log(a_eval(p, r)) for p in ps)
                sample = extremal_statistic(r, x)
                assert sample.omega_n_x == len(ps)
                assert sample.log_n_x == pytest.approx(log_n, rel=1e-12)
                assert sample.log_a_r == pytest.approx(log_a, rel=1e-14)
                assert sample.statistic == pytest.approx(
                    log_a * math.log(log_n) / log_n, rel=1e-12
                )

    def test_small_x_rejected(self):
        with pytest.raises(DomainError):
            extremal_statistic(1, 50)

    def test_guard_counts_passes_before_the_sieve(self, monkeypatch):
        # r + 1 passes of 24 steps plus one per 50 of the
        # 1000 * 125506 // int(100000 log 1000) = 181 primes bounded
        edge = 3 * (24 + 3)
        monkeypatch.setattr(arith, "LOOP_GUARD", edge)
        assert extremal_statistic(2, 1000).omega_n_x == 134
        monkeypatch.setattr(arith, "LOOP_GUARD", edge - 1)
        monkeypatch.setattr(analytic, "primes_in_range", None)
        with pytest.raises(ResourceError, match=f"needs {edge} loop steps"):
            extremal_statistic(2, 1000)

    def test_to_dict_roundtrip(self):
        sample = extremal_statistic(2, 500)
        d = dataclasses.asdict(sample)
        assert d["x"] == 500
        assert d["statistic"] == sample.statistic
        assert isinstance(sample, ExtremalSample)
