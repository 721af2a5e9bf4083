import dataclasses
import math
import os
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from conftest import geometric_checkpoints_set, poly_at, value_table
from hypothesis import strategies as st

from gcdzeta import analytic, arith, cli
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


def brute_divisor_count_sum(x: int, k: int) -> int:
    """Sum of tau_k(n) for n <= x by counting tuples over divisor lists."""
    counts = [0] + [1] * x
    for _ in range(k - 1):
        nxt = [0] * (x + 1)
        for d in range(1, x + 1):
            c = counts[d]
            if c:
                for m in range(d, x + 1, d):
                    nxt[m] += c
        counts = nxt
    return sum(counts)


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
            summatory_scan("tau", 2, x_max, checkpoint_count=count)
            monkeypatch.setattr(arith, "LOOP_GUARD", edge - 1)
            with pytest.raises(ResourceError, match=f"needs {edge} loop"):
                summatory_scan("tau", 2, x_max, checkpoint_count=count)

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
    # put the table's end on, next to or past the pass windows' edges
    @pytest.mark.parametrize(
        "x_max",
        [10**5, 317**2, 317**2 - 1, WINDOW - 1, WINDOW, WINDOW + 1,
         3 * WINDOW + 7],
    )
    @pytest.mark.parametrize(
        "kind, param",
        [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("tau", 2), ("tau", 3),
         ("tau", 4)],
    )
    def test_value_table_bit_identical(self, kind, param, x_max, primes_between):
        got = value_table(analytic._scan_local(kind, param), x_max)
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
        vals = value_table(analytic._scan_local(kind, param), x_max)
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
        plan = analytic._window_plan(analytic._scan_local("tau", 2), x_max,
                                     arith.prime_array(x_max))
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
        table = value_table(analytic._scan_local(kind, param), x_max).tolist()
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
        plan = analytic._window_plan(analytic._scan_local("A", 2), 10**7,
                                     arith.prime_array(10**7))
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
        code = cli.main(["scan", "tau", "--k", "2", "--xmax", str(x_max)])
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
        code = cli.main(["scan", "tau", "--k", "2", "--xmax",
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
        report = summatory_scan("tau", 2, 3 * WINDOW + 7, 5)
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
