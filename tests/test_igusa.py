import math
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gcdzeta.arith
import gcdzeta.igusa
from conftest import gcd_row
from gcdzeta.errors import DomainError, NumericalError, ResourceError
from gcdzeta.gcdsum import a_local_numerator
from gcdzeta.igusa import (
    _EM_CUT,
    _EM_TERMS,
    _EPS,
    _em_corrections,
    _exponent_sum_weights,
    evaluate,
    hurwitz_zeta,
    igusa_direct,
    igusa_euler,
    igusa_hurwitz,
)


def brute_zeta(s: float, terms: int = 10**7) -> tuple[float, float]:
    """Partial sum plus an integral tail bracket, fully independent."""
    m = np.arange(1, terms + 1, dtype=np.float64)
    head = float(np.sum(m**-s))
    # integral bracket for the tail: between the two shifted integrals
    lo = (terms + 1) ** (1 - s) / (s - 1)
    hi = terms ** (1 - s) / (s - 1)
    return head + lo, hi - lo


def trial_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) for p^e || n by trial division, independent of gcdzeta."""
    factors, p = [], 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    return factors


def euler_in_n_reference(n: int, s) -> mpmath.mpf:
    """Z(s; n) at 40 digits: prod_j zeta(s_j) prod_{p^e || n} L_p, with

        L_p = sum over a in [0, e]^r of p^min(sum a, e)
              prod_j p^(-a_j s_j) (1 - p^(-s_j))^[a_j < e].
    """
    with mpmath.workdps(40):
        value = mpmath.mpf(1)
        for sj in s:
            value *= mpmath.zeta(mpmath.mpf(sj))
        for p, e in trial_factors(n):
            p = mpmath.mpf(p)
            local = mpmath.mpf(0)
            for a in product(range(e + 1), repeat=len(s)):
                term = p ** min(sum(a), e)
                for aj, sj in zip(a, s):
                    term *= p ** (-aj * mpmath.mpf(sj))
                    if aj < e:
                        term *= 1 - p ** -mpmath.mpf(sj)
                local += term
            value *= local
        return value


def equal_exponent_reference(n: int, s: float, r: int) -> mpmath.mpf:
    """Z(s, ..., s; n) with r equal exponents, at 60 digits.

    L_p is the mean of p^min(A, e), A being the sum of r independent
    valuations capped at e, each a with probability q^a (1 - q) below e,
    q = p^-s.  A sum m < e reaches no cap, so it has probability
    C(m + r - 1, r - 1) q^m (1 - q)^r, and every larger sum weighs p^e.
    """
    with mpmath.workdps(60):
        value = mpmath.zeta(mpmath.mpf(s)) ** r
        for p, e in trial_factors(n):
            q = mpmath.mpf(p) ** -mpmath.mpf(s)
            below = [math.comb(m + r - 1, r - 1) * q**m * (1 - q) ** r
                     for m in range(e)]
            value *= (mpmath.fsum(mpmath.mpf(p) ** m * b
                                  for m, b in enumerate(below))
                      + mpmath.mpf(p) ** e * (1 - mpmath.fsum(below)))
        return value


def igusa_direct_head_walk(n: int, s, truncation: int) -> float:
    """The truncated direct sum by walking every head tuple m_1..m_{r-1}
    <= T, with one fsum over m_r per residue of the head's product mod n
    (the method igusa_direct used before it summed residue classes)."""
    weights = [[float(m) ** -sj for m in range(1, truncation + 1)] for sj in s]
    gcds = [math.gcd(c, n) for c in range(n)]
    last = weights[-1]

    @lru_cache(maxsize=None)
    def inner(res: int) -> float:
        return math.fsum(gcds[res * m % n] * last[m - 1]
                         for m in range(1, truncation + 1))

    def chunks():
        for head in product(range(1, truncation + 1), repeat=len(s) - 1):
            w = 1.0
            res = 1
            for j, m in enumerate(head):
                w *= weights[j][m - 1]
                res = res * m % n
            yield w * inner(res)

    return math.fsum(chunks())


def igusa_direct_loop(n: int, s, truncation: int) -> tuple[float, float]:
    """igusa_direct's value and bound with the residue convolution written
    as a Python double loop over residue pairs: c ascending, then d, the
    order in which np.add.at adds them, so the results agree bit for bit."""
    gcds = [math.gcd(c, n) for c in range(n)]
    dist = [0.0] * n
    dist[1 % n] = 1.0
    full = 1.0
    trunc = 1.0
    for sj in s:
        classes = [
            math.fsum(float(m) ** -sj for m in range(d, truncation + 1, n))
            for d in range(1, n + 1)
        ]
        nxt = [0.0] * n
        for c, x in enumerate(dist):
            if x:
                for d, y in enumerate(classes, start=1):
                    nxt[c * d % n] += x * y
        dist = nxt
        full *= hurwitz_zeta(sj)
        trunc *= math.fsum(classes)
    value = math.fsum(g * x for g, x in zip(gcds, dist))
    r = len(s)
    rel = (3 * r + (r - 1) * sum(gcds) + 2) * _EPS
    bound = n * (full - trunc) + n * full * 15 * r * _EPS + value * rel
    return value, bound


def direct_rounding(n: int, r: int, value: float) -> float:
    """The value's rounding share of igusa_direct's bound, as documented:
    (3 r + (r - 1) P(n) + 2) eps value, P(n) = sum_c gcd(c, n) being the
    number of residue pairs whose product is 0 mod n."""
    pillai = sum(math.gcd(c, n) for c in range(n))
    return (3 * r + (r - 1) * pillai + 2) * _EPS * value


@st.composite
def direct_cases(draw):
    """n <= 30, r <= 3, exponents in (1, 4] and a truncation small enough
    for the head walk."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    trunc = draw(st.integers(n, max(n, (2000, 200, 40)[r - 1])))
    s = tuple(draw(st.floats(1.01, 4.0)) for _ in range(r))
    return n, s, trunc


@st.composite
def loop_cases(draw):
    """n <= 40, r <= 3, exponents in (1, 60] and T up to n + 300."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    trunc = draw(st.integers(n, n + 300))
    s = tuple(draw(st.floats(1.01, 60.0)) for _ in range(r))
    return n, s, trunc


@st.composite
def igusa_cases(draw):
    """n <= 60, r <= 3 with n^r <= 1e4, and exponents in [1.5, 4]."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, min(60, math.floor(10 ** (4 / r) + 1e-9))))
    s = tuple(draw(st.floats(1.5, 4.0)) for _ in range(r))
    return n, s


class TestHurwitzZeta:
    def test_reduces_to_basel_sum(self):
        assert hurwitz_zeta(2) == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_apery_value_against_brute_sum(self):
        value = hurwitz_zeta(3)
        head, width = brute_zeta(3, 10**7)
        assert abs(value - head) <= width + 1e-12
        assert value == pytest.approx(1.2020569031595942, abs=1e-12)

    def test_against_mpmath_grid(self):
        # good to _EPS (the omitted term) plus 8 eps of rounding, the
        # share igusa_euler's bound allows for each zeta value
        for s in (1.0000001, 1.01, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0, 60.0):
            ours = hurwitz_zeta(s)
            ref = mpmath.zeta(s)
            assert abs(ours - ref) <= _EPS + 8 * _EPS * ours

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(0.5)
        with pytest.raises(DomainError, match="finite"):
            hurwitz_zeta(math.inf)

    def test_huge_exponent_is_one(self):
        # the Pochhammer product overflows where the power underflows
        for s in (1.3e18, 1e19, 1e300):
            assert hurwitz_zeta(s) == 1.0

    def test_omitted_term_check_never_fires(self):
        # the first omitted Bernoulli term at the fixed cutoff stays far
        # below _EPS from just above the pole to 1e300, so hurwitz_zeta's
        # NumericalError is never raised there
        grid = [1 + 2.0**-52] + [1 + 10 ** (k / 10) for k in range(-150, 3001)]
        for s in grid:
            omitted = _em_corrections(s, _EM_CUT + 1.0, _EM_TERMS + 1)[-1]
            assert abs(omitted) < 1e-21
            hurwitz_zeta(s)


class TestIgusaDirect:
    def test_n1_is_plain_zeta(self):
        value, tail = igusa_direct(1, (2.0,), 10**4)
        assert abs(value - math.pi**2 / 6) <= tail
        assert tail < 1e-3

    def test_n2_splits_into_parities(self):
        value, tail = igusa_direct(2, (2.0,), 10**4)
        assert abs(value - 5 * math.pi**2 / 24) <= tail

    def test_r2_agrees_with_hurwitz(self, hurwitz_reduction):
        value, tail = igusa_direct(2, (2.0, 2.0), 300)
        reference = hurwitz_reduction(2, (2.0, 2.0))
        assert abs(value - reference) <= tail + 1e-8

    def test_truncated_sum_underestimates(self):
        value, _ = igusa_direct(3, (2.0,), 1000)
        reference, _ = igusa_euler(3, (2.0,))
        assert value < reference

    def test_guards(self):
        # r = 4 runs: 2 + 4 * 20 + 3 * 2^2 = 94 predicted steps
        value, tail = igusa_direct(2, (3.0,) * 4, 20)
        euler, _ = igusa_euler(2, (3.0,) * 4)
        assert 0 < tail < 0.05
        assert -1e-12 * euler <= euler - value <= tail + 1e-12 * euler
        with pytest.raises(DomainError):
            igusa_direct(10, (2.0,), 5)  # truncation below n
        # 2 + 2 * 6e6 + 2^2 steps
        with pytest.raises(ResourceError, match="12000006 loop steps"):
            igusa_direct(2, (2.0, 2.0), 6 * 10**6)
        # the n^2 convolution dominates: 3163 + 2 * 3163 + 3163^2 steps
        with pytest.raises(ResourceError, match="10014058 loop steps"):
            igusa_direct(3163, (2.0, 2.0), 3163)
        # r = 1: 2 + 1e7 steps
        with pytest.raises(ResourceError, match="10000002 loop steps"):
            igusa_direct(2, (2.0,), 10**7)
        with pytest.raises(DomainError):
            igusa_direct(2, (1.0,), 100)  # s on the boundary

    def test_overflow_is_numerical_error(self):
        # prod_j S_j = (1 + 2^-1.5)^2400 passes the float64 range, with no
        # numpy overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                igusa_direct(1, (1.5,) * 2400, 2)

    @given(direct_cases())
    def test_matches_the_head_walk(self, case):
        n, s, trunc = case
        value, bound = igusa_direct(n, s, trunc)
        reference = igusa_direct_head_walk(n, s, trunc)
        assert abs(value - reference) <= direct_rounding(n, len(s), value)
        euler, euler_bound = igusa_euler(n, s)
        for v in (value, reference):
            assert abs(euler - v) <= bound + euler_bound

    @given(loop_cases())
    def test_equals_the_loop_bit_for_bit(self, case):
        n, s, trunc = case
        ours = igusa_direct(n, s, trunc)
        loop = igusa_direct_loop(n, s, trunc)
        assert [v.hex() for v in ours] == [v.hex() for v in loop]

    def test_gcd_table_weights_equal_np_gcd_bit_for_bit(self, monkeypatch):
        # the CI rerun of `igusa --n 12 --s 2,2.5,3,3.5 --method direct`
        s, trunc = (2.0, 2.5, 3.0, 3.5), 10**4
        ours = igusa_direct(12, s, trunc)
        # the np.gcd weights igusa_direct read before arith.gcd_table
        monkeypatch.setattr(gcdzeta.arith, "gcd_table",
                            lambda n: (gcd_row(n, 0, n), np.arange(n)))
        old = igusa_direct(12, s, trunc)
        assert [v.hex() for v in ours] == [v.hex() for v in old]

    def test_rounding_against_mpmath(self):
        # n = 97 is prime, so gcd(m_1 m_2, 97) is 97 when 97 divides m_1 m_2
        # and 1 otherwise: the truncated sum is S_1 S_2 + 96 (S_1 S_2 -
        # U_1 U_2), U_j summing over the m not divisible by 97
        n, s, trunc = 97, (2.2, 2.3), 3000
        value, bound = igusa_direct(n, s, trunc)
        with mpmath.workdps(40):
            full, units = [], []
            for sj in s:
                terms = [mpmath.mpf(m) ** -mpmath.mpf(sj)
                         for m in range(1, trunc + 1)]
                full.append(mpmath.fsum(terms))
                units.append(mpmath.fsum(t for m, t in enumerate(terms, 1)
                                         if m % n))
            truncated = (full[0] * full[1]
                         + (n - 1) * (full[0] * full[1] - units[0] * units[1]))
            error = abs(value - truncated)
            assert error <= direct_rounding(n, 2, value)
            assert abs(euler_in_n_reference(n, s) - value) <= bound

    def test_bound_without_a_tail_is_the_rounding(self):
        # at s = 60 both zeta(60) and the truncated sums round to 1.0, so
        # the bound is the value's rounding plus 15 r n eps for the tail's
        n, s = 12, (60.0, 60.0)
        value, bound = igusa_direct(n, s, n)
        assert value == 1.0
        expected = direct_rounding(n, 2, value) + 15 * 2 * n * _EPS
        assert bound == pytest.approx(expected, rel=1e-12, abs=0)


class TestIgusaHurwitz:
    """igusa_euler, which the module also binds as igusa_hurwitz."""

    def test_kept_name_binds_the_euler_product(self):
        assert igusa_hurwitz is igusa_euler

    def test_two_term_closed_form(self):
        # zeta(2) [(1 - 2^-2) + 2^(1-2)] = 5 pi^2 / 24
        value, bound = igusa_euler(2, (2.0,))
        assert value == pytest.approx(5 * math.pi**2 / 24, abs=1e-9)
        assert abs(value - 5 * mpmath.pi**2 / 24) <= bound

    def test_n1_single_term(self):
        value, _ = igusa_euler(1, (3.0,))
        assert value == pytest.approx(1.2020569031595942, abs=1e-9)

    def test_r2_cross_method(self):
        direct, tail = igusa_direct(4, (2.0, 2.0), 300)
        euler, _ = igusa_euler(4, (2.0, 2.0))
        assert abs(euler - direct) <= tail + 1e-8

    def test_envelope(self):
        # prod zeta(s_j) <= Z <= n prod zeta(s_j), since 1 <= gcd <= n
        for n in (1, 2, 3, 4, 6):
            for s in ((2.0,), (2.5,), (2.0, 3.0)):
                z, _ = igusa_euler(n, s)
                plain = math.prod(hurwitz_zeta(sj) for sj in s)
                assert plain - 1e-9 <= z <= n * plain + 1e-9

    def test_symmetry_in_exponents(self):
        for n in (2, 3, 6):
            a, _ = igusa_euler(n, (2.0, 3.0))
            b, _ = igusa_euler(n, (3.0, 2.0))
            assert a == pytest.approx(b, rel=1e-10)

    def test_local_sum_at_one_is_a_local(self):
        # at s_j = 1 the tables are v[a] = 1 - 1/p below e and v[e] = 1,
        # and the local sum is A_r(p^e), p^(-er) times gcdsum's local
        # numerator: prod_j (s_j - 1) Z(s; n) tends to A_r(n) as every s_j
        # tends to 1
        for p in (2, 3, 5, 7):
            for e in range(1, 6):
                table = [1 - Fraction(1, p)] * e + [Fraction(1)]
                for r in range(7):
                    c = _exponent_sum_weights([table] * r)
                    local = sum(Fraction(p) ** (min(k, e) - k) * ck
                                for k, ck in enumerate(c))
                    assert local * p ** (e * r) == a_local_numerator(p, e, r)

    @given(igusa_cases())
    def test_three_way_agreement(self, hurwitz_reduction, case):
        n, s = case
        value, bound = igusa_euler(n, s)
        assert 0 < bound <= 1e-9
        assert value == pytest.approx(hurwitz_reduction(n, s), rel=1e-12)
        trunc = {1: max(n, 2000), 2: max(n, 300), 3: max(n, 30)}[len(s)]
        direct, tail = igusa_direct(n, s, trunc)
        slack = 1e-12 * value
        assert -slack <= value - direct <= tail + slack
        assert abs(value - euler_in_n_reference(n, s)) <= bound

    def test_unmet_tolerance_is_numerical_error(self):
        # igusa_euler takes no tolerance: evaluate alone tests the bound
        value, bound = igusa_euler(2, (2.0,))
        with pytest.raises(NumericalError, match="exceeds the tolerance"):
            evaluate(2, (2.0,), tolerance=bound / value / 2)
        record = evaluate(2, (2.0,), tolerance=bound / value)
        assert (record["value"], record["tail_bound"]) == (value, bound)

    def test_overflowing_product_is_numerical_error(self):
        # zeta(1.0000001)^50 is about 1e350: value and bound both overflow,
        # and inf > tolerance * inf would not refuse them
        with pytest.raises(NumericalError, match="is not finite"):
            igusa_euler(1, (1.0000001,) * 50)
        value, bound = igusa_euler(1, (1.0000001,) * 40)
        assert math.isfinite(value) and math.isfinite(bound)

    def test_tolerance_is_relative(self):
        # Z ~ 1.05e8 near the pole: the bound is 6.6e-7 absolute, which
        # an absolute 1e-9 refused, but about 6e-15 relative
        record = evaluate(360, (1.0000001,))
        value, bound = record["value"], record["tail_bound"]
        assert abs(value - euler_in_n_reference(360, (1.0000001,))) <= bound
        assert bound > 1e-9
        # n = 2 with 23 equal exponents 2: the local sum depends only on
        # how many a_j equal 1, so the reference is a binomial sum
        r = 23
        record = evaluate(2, (2.0,) * r)
        value, bound = record["value"], record["tail_bound"]
        with mpmath.workdps(40):
            local = sum(
                math.comb(r, j) * 2 ** min(j, 1) * mpmath.mpf(4) ** -j
                * (1 - mpmath.mpf(1) / 4) ** (r - j)
                for j in range(r + 1)
            )
            ref = mpmath.zeta(2) ** r * local
        assert bound > 1e-9
        assert abs(value - ref) <= bound
        assert abs(equal_exponent_reference(2, 2.0, r) - ref) < 1e-30 * ref

    def test_guards(self):
        # 200 = 2^3 5^2 at r = 4: 101 + 57 steps, though 200^4 > 1e7
        value, bound = igusa_euler(200, (2.0, 2.0, 2.0, 2.0))
        assert abs(value - euler_in_n_reference(200, (2.0,) * 4)) <= bound
        # every n with n^r <= 1e7 passes
        for n, r in ((10**7, 1), (3162, 2), (215, 3), (56, 4), (25, 5),
                     (14, 6), (10, 7), (2, 16)):
            assert n**r <= 10**7
            value, bound = igusa_euler(n, (2.0,) * r)
            assert 0 < bound <= 1e-9
        # 2^60 at r = 5 is 37206 steps, where the tuple walk refused 61^5
        assert 0 < igusa_euler(2**60, (2.0,) * 5)[1] <= 1e-9
        # at n = 2 the steps are (r + 1)^2: r = 3161 is the last r within
        # the guard, and one more exponent passes it
        value, bound = igusa_euler(2, (3.0,) * 3161)
        assert 0 < bound <= 1e-10 * value
        with pytest.raises(ResourceError, match="10004569 loop steps"):
            igusa_euler(2, (3.0,) * 3162)
        # r = 100 on 2^20 3^10: 2083101 + 546601 steps, where the tuples
        # number 21^100 + 11^100
        n = 2**20 * 3**10
        value, bound = igusa_euler(n, (2.0,) * 100)
        assert abs(value - equal_exponent_reference(n, 2.0, 100)) <= bound
        assert bound <= 1e-11 * value
        with pytest.raises(DomainError):
            igusa_euler(2, (0.5,))
        with pytest.raises(DomainError):
            igusa_euler(0, (2.0,))
        with pytest.raises(DomainError):
            igusa_euler(2, ())
        with pytest.raises(DomainError, match="s_2 = inf"):
            igusa_euler(2, (2.0, math.inf))
        # the exponents are checked before n is factorized: rho on this
        # 150-bit semiprime is past the loop guard
        hard = (2**61 - 1) * (2**89 - 1)
        with pytest.raises(DomainError, match="exponent"):
            igusa_euler(hard, (0.5,))
        with pytest.raises(ResourceError, match="rho"):
            igusa_euler(hard, (2.0,))


class TestQueryRecord:
    def test_evaluate_euler_record(self):
        record = evaluate(2, (2.0,))
        assert record["method"] == "euler"
        # the steps the loop guard counts: per p^e || n, the convolutions'
        # (e + 1)(r + e r (r - 1) / 2) products and r e + 1 summed terms
        assert record["terms_evaluated"] == 4
        assert record["value"] == pytest.approx(5 * math.pi**2 / 24, abs=1e-9)
        assert record["tail_bound"] == igusa_euler(2, (2.0,))[1]
        assert evaluate(200, (2.0,) * 4)["terms_evaluated"] == 101 + 57
        assert evaluate(2, (3.0,) * 3161)["terms_evaluated"] == 3162**2

    def test_evaluate_direct_record(self):
        # the steps the loop guard counts: n + r T + (r - 1) n^2
        record = evaluate(2, (2.0,), method="direct", truncation=5000)
        assert record["terms_evaluated"] == 5002
        assert record["tail_bound"] > 0
        record = evaluate(12, (2.5, 2.5), method="direct", truncation=2000)
        assert record["terms_evaluated"] == 4156
        # the default truncation is max(n, 1e4) for every r
        record = evaluate(6, (2.0,) * 5, method="direct")
        assert record["terms_evaluated"] == 6 + 5 * 10**4 + 4 * 36
        record = evaluate(20000, (2.0,), method="direct")
        assert record["terms_evaluated"] == 40000

    def test_query_validation(self):
        for method in ("magic", "hurwitz"):
            with pytest.raises(DomainError, match="unknown method"):
                evaluate(2, (2.0,), method=method)
        # the tolerance is checked once, for both methods
        for method in ("euler", "direct"):
            for tolerance in (0.0, -1.0, math.nan):
                with pytest.raises(DomainError, match="tolerance must be"):
                    evaluate(2, (2.0,), method=method, tolerance=tolerance)
