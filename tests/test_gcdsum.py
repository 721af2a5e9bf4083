import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import islice, product, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcdzeta.arith
import gcdzeta.gcdsum
from conftest import (
    a_eval_product,
    a_local,
    a_recursion_fraction,
    gcd_row,
    menon_sum_gcd_blocks,
    menon_sum_loop,
)
from gcdzeta.arith import (LOOP_GUARD, ProductTable, factorize, prime_array,
                            primes_upto)
from gcdzeta.errors import DomainError, ResourceError
from gcdzeta.gcdsum import (
    a_bruteforce,
    a_eval,
    a_local_numerator,
    a_local_sum,
    a_numerator,
    a_recursion,
    b_bruteforce,
    b_closed,
    menon_sum,
    menon_sums,
)

# The naive tuple loops are oracles for the aggregated brute force only.
NAIVE_GUARD = 10**7


def a_bruteforce_naive(n: int, r: int) -> Fraction:
    """A_r(n) by literally enumerating every tuple."""
    assert n**r <= NAIVE_GUARD
    total = sum(
        math.gcd(math.prod(t), n) for t in product(range(1, n + 1), repeat=r)
    )
    return Fraction(total, n**r)


def b_bruteforce_naive(n: int, r: int) -> int:
    """B_r(n) by enumerating unit tuples."""
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    assert len(units) ** r <= NAIVE_GUARD
    # math.gcd(0, n) = n covers the tuples with product 1 mod n
    return sum(math.gcd(math.prod(t) - 1, n) for t in product(units, repeat=r))


def product_residues_loop(n: int, residues, r: int) -> list[int]:
    """The r-fold count of the ProductTable chain by Python loops."""
    dist = [0] * n
    dist[1 % n] = 1
    for _ in range(r):
        nxt = [0] * n
        for c, cnt in enumerate(dist):
            if cnt:
                for k in residues:
                    nxt[c * k % n] += cnt
        dist = nxt
    return dist


def a_bruteforce_loop(n: int, r: int) -> Fraction:
    dist = product_residues_loop(n, range(n), r)
    return Fraction(sum(cnt * math.gcd(c, n) for c, cnt in enumerate(dist)),
                    n**r)


def b_bruteforce_loop(n: int, r: int) -> int:
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    dist = product_residues_loop(n, units, r)
    return sum(cnt * math.gcd(c - 1, n) for c, cnt in enumerate(dist))


def chain_counts(table: ProductTable, r: int) -> np.ndarray:
    """The table's chain counts of the r-fold products of its ks mod n;
    at r = 0 the empty product's, 1 at 1 mod n."""
    if r == 0:
        dist = np.zeros(table.n, dtype=np.int64)
        dist[1 % table.n] = 1
        return dist
    return next(islice(table.chain(repeat(None)), r - 1, None))


def float_chain_loop(n: int, ks, rows) -> list[list[float]]:
    """The float chain by Python loops from the empty product, every row
    adding dist[c] w into c k mod n in the order c ascending, then k
    ascending, zero weights included: its distribution after each row."""
    dist = [0.0] * n
    dist[1 % n] = 1.0
    out = []
    for row in rows:
        nxt = [0.0] * n
        for c in range(n):
            for k, w in zip(ks, row):
                nxt[c * k % n] += dist[c] * w
        dist = nxt
        out.append(dist)
    return out


def a_bruteforce_gcd(n: int, r: int) -> Fraction:
    """a_bruteforce as it was before arith.gcd_table, weights by np.gcd."""
    dist = chain_counts(ProductTable(n), r)
    return Fraction(int((dist * gcd_row(n, 0, n)).sum()), n**r)


def b_bruteforce_gcd(n: int, r: int) -> int:
    """b_bruteforce as it was before arith.gcd_table: units and weights
    gcd(c - 1, n) by np.gcd."""
    table = ProductTable(n, units=True)
    assert table.ks.tolist() == (np.flatnonzero(gcd_row(n, 1, n + 1) == 1)
                                 + 1).tolist()
    dist = chain_counts(table, r)
    return int((dist * gcd_row(n, -1, n - 1)).sum())


def coprime_progression_count(n: int, d: int, x: int) -> int:
    """Count k in [1, n] with k = x (mod d) and gcd(k, n) = 1.

    For d | n and gcd(x, d) = 1 this equals phi(n)/phi(d); the count here
    is taken by brute enumeration so it can certify that quotient.
    """
    if n < 1 or d < 1:
        raise DomainError(f"n and d must be >= 1, got n={n}, d={d}")
    if n % d != 0:
        raise DomainError(f"d = {d} does not divide n = {n}")
    if not 1 <= x <= d:
        raise DomainError(f"residue x = {x} outside [1, {d}]")
    if math.gcd(x, d) != 1:
        raise DomainError(f"x = {x} is not coprime to d = {d}")
    return sum(
        1 for k in range(1, n + 1) if k % d == x % d and math.gcd(k, n) == 1
    )


def totient_sieve(limit: int) -> list[int]:
    """Independent Euler-phi table by the classic in-place sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def divisor_lists(limit: int) -> list[list[int]]:
    divs: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            divs[m].append(d)
    return divs


class TestABruteforce:
    def test_examples(self):
        assert a_bruteforce(2, 1) == Fraction(3, 2)
        assert a_bruteforce(1, 5) == 1
        assert a_bruteforce(2, 2) == Fraction(7, 4)

    def test_r_zero_is_one(self):
        for n in (1, 7, 100):
            assert a_bruteforce(n, 0) == 1

    def test_aggregated_matches_naive_tuple_loop(self):
        for n in range(1, 31):
            for r in range(0, 4):
                assert a_bruteforce(n, r) == a_bruteforce_naive(n, r)

    def test_tuple_guard(self):
        # the guard counts inner loop steps, n + (r - 1) n^2, not n^r tuples
        assert 3000 + 2 * 3000**2 > LOOP_GUARD
        with pytest.raises(ResourceError) as err:
            a_bruteforce(3000, 3)
        assert "18003000 loop steps" in str(err.value)

    def test_guard_admits_work_below_the_limit(self):
        # 500 + 2 * 500^2 = 500500 steps, though 500^3 tuples exceed 1e8
        assert a_bruteforce(500, 3) == a_eval(500, 3)

    def test_guard_refuses_before_allocating(self, monkeypatch):
        def no_table(n):
            raise AssertionError(f"gcd_table({n}) built before the guard")

        monkeypatch.setattr(gcdzeta.arith, "gcd_table", no_table)
        monkeypatch.setattr(gcdzeta.gcdsum, "gcd_table", no_table)
        start = time.perf_counter()
        with pytest.raises(ResourceError):
            a_bruteforce(10**9, 2)
        with pytest.raises(ResourceError, match="1000000000 loop steps"):
            a_bruteforce(10**9, 0)  # n - n^2 steps were counted at r = 0
        with pytest.raises(ResourceError):
            b_bruteforce(10**9 + 7, 1)
        with pytest.raises(ResourceError):
            menon_sum(10**9 + 7, 1)
        with pytest.raises(ResourceError,
                           match="1000000000000000000 loop steps"):
            menon_sum(10**18, 1)
        assert time.perf_counter() - start < 0.1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            a_bruteforce(0, 1)
        with pytest.raises(DomainError):
            a_bruteforce(5, -1)


class TestALocal:
    def test_examples(self):
        # p^(kr) A_r(p^k): 2 A_1(2) = 3, 4 A_2(2) = 7
        assert a_local_numerator(2, 1, 1) == 3
        assert a_local_numerator(2, 1, 2) == 7
        assert a_local_numerator(17, 3, 0) == 1
        for p, k, r in ((2, 1, 1), (3, 4, 2), (97, 2, 5)):
            want = a_local(p, k, r)
            assert Fraction(a_local_numerator(p, k, r), p ** (k * r)) == want

    def test_single_prime_closed_form_r1(self):
        # p^k (1 + k (1 - 1/p))
        for p in (2, 3, 5, 7):
            for k in range(1, 6):
                want = p**k + k * (p - 1) * p ** (k - 1)
                assert a_local_numerator(p, k, 1) == want

    def test_integer_numerator_equals_the_fraction_oracle(self):
        for p in primes_upto(199):
            for k in range(1, 13):
                for r in range(13):
                    got = a_local_numerator(p, k, r)
                    assert type(got) is int
                    assert got == a_local(p, k, r) * p ** (k * r)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            a_local_numerator(2, 0, 1)
        with pytest.raises(DomainError):
            a_local_numerator(2, 1, -1)
        with pytest.raises(DomainError):
            a_numerator(12, -1)
        with pytest.raises(DomainError):
            a_numerator(0, 1)
        # r is checked before n is factorized: rho on this 150-bit
        # semiprime is past the loop guard
        hard = (2**61 - 1) * (2**89 - 1)
        for f in (a_numerator, a_eval):
            with pytest.raises(DomainError, match="r must be"):
                f(hard, -1)
            with pytest.raises(ResourceError, match="rho"):
                f(hard, 1)

    def test_float_sum_bit_identical_to_float64_loop(self):
        # the scan feeds a_local_sum floats at small primes and one array
        # at the large ones; both must give the float64 loop's exact bits
        ps = prime_array(10**6)
        t = 1.0 - 1.0 / ps
        for r in range(1, 6):
            for k in range(1, 25):
                want = np.zeros_like(t)
                power = np.ones_like(t)
                for j in range(r + 1):
                    want += float(math.comb(k + j - 1, j)) * power
                    power *= t
                got = a_local_sum(t, k, r)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                for i in range(0, ps.size, 997):
                    p = int(ps[i])
                    scalar = a_local_sum(1.0 - 1.0 / p, k, r)
                    assert type(scalar) is float and scalar == want[i]
                    exact = a_local_numerator(p, k, r) / p ** (k * r)
                    assert exact == pytest.approx(scalar, rel=1e-15)


class TestAEval:
    def test_examples(self):
        assert a_eval(12, 1) == Fraction(10, 3)
        assert a_eval(12, 1) == a_bruteforce(12, 1)
        assert a_eval(1, 7) == 1
        assert a_eval(4, 1) == 2

    def test_divisor_sum_identity_to_1e4(self):
        # A_1(n) = sum over d | n of phi(d)/d, with phi from an
        # independent sieve and divisors from a multiples sieve
        limit = 10**4
        phi = totient_sieve(limit)
        divs = divisor_lists(limit)
        for n in range(1, limit + 1):
            expected = sum(
                (Fraction(phi[d], d) for d in divs[n]), Fraction(0)
            )
            assert a_eval(n, 1) == expected

    def test_accepts_factored_integers(self):
        fi = factorize(360)
        assert a_eval(fi, 2) == a_eval(360, 2)

    def test_squarefree_expansion(self):
        # on squarefree n the product formula collapses to
        # prod p (1 - (1 - 1/p)^(r+1))
        for n in range(1, 10**4 + 1):
            fi = factorize(n)
            if any(k > 1 for _, k in fi.factors):
                continue
            for r in range(0, 5):
                expected = Fraction(1)
                for p, _ in fi.factors:
                    expected *= p * (1 - Fraction(p - 1, p) ** (r + 1))
                assert a_eval(fi, r) == expected

    def test_prime_case_r1(self):
        for p in (2, 3, 5, 31, 97):
            assert a_eval(p, 1) == 2 - Fraction(1, p)

    def test_monotone_in_r_and_limit_small(self):
        for n in (2, 9, 12, 29):
            prev = Fraction(0)
            for r in range(0, 60):
                cur = a_eval(n, r)
                assert cur >= prev
                prev = cur
            assert cur <= n


class TestARecursion:
    def test_examples(self):
        assert a_recursion(2, 1) == Fraction(3, 2)
        assert a_recursion(2, 2) == Fraction(7, 4)
        for p in (3, 5, 13):
            assert a_recursion(p, 1) == 2 - Fraction(1, p)

    def test_threeway_agreement_small(self):
        for r in range(0, 3):
            for n in range(1, 41):
                brute = a_bruteforce(n, r)
                assert brute == a_eval(n, r) == a_recursion(n, r)


class TestIntegerNumerators:
    """n^r A_r(n) in integers against the Fraction forms it replaced."""

    @settings(max_examples=60)
    @given(st.integers(1, 200), st.integers(0, 8))
    def test_numerator_is_the_gcd_total(self, n, r):
        assert a_numerator(n, r) == n**r * a_bruteforce(n, r)

    @given(st.integers(1, 2000), st.integers(0, 8))
    def test_numerator_matches_the_fraction_product(self, n, r):
        total = a_numerator(n, r)
        assert type(total) is int
        assert Fraction(total, n**r) == a_eval_product(n, r) == a_eval(n, r)
        assert a_eval(factorize(n), r) == a_eval(n, r)

    @given(st.integers(1, 2000), st.integers(0, 8))
    def test_integer_recursion_matches_the_fraction_recursion(self, n, r):
        assert a_recursion(n, r) == a_recursion_fraction(n, r)

    def test_highly_composite_moduli(self):
        for n in (720, 1680, 2000):
            for r in range(9):
                want = a_eval_product(n, r)
                assert a_recursion(n, r) == a_recursion_fraction(n, r) == want
                assert a_numerator(n, r) == want * n**r


class TestB:
    def test_examples(self):
        assert b_bruteforce(4, 1) == 6
        assert b_bruteforce(3, 2) == 8
        assert b_bruteforce(1, 3) == 1
        assert b_closed(4, 1) == 6
        assert b_closed(3, 2) == 8
        assert b_closed(1, 5) == 1

    def test_aggregated_matches_naive(self):
        for n in range(1, 26):
            for r in (1, 2, 3):
                assert b_bruteforce(n, r) == b_bruteforce_naive(n, r)

    def test_closed_matches_bruteforce(self):
        for n in range(1, 61):
            for r in (1, 2, 3):
                assert b_bruteforce(n, r) == b_closed(n, r)

    def test_guard_counts_unit_steps(self):
        # 600 + 2 * 600^2 steps, though 600^3 unit tuples exceed 1e8
        assert b_bruteforce(601, 3) == b_closed(601, 3)

    def test_r_zero_rejected(self):
        with pytest.raises(DomainError):
            b_bruteforce(4, 0)
        with pytest.raises(DomainError):
            b_closed(4, 0)


class TestProductTable:
    """The one table per modulus of verify menon and verify a-threeway
    against the single calls it replaces."""

    def test_units_are_those_of_math_gcd(self):
        # n = 1 included: its one unit is k = 1, residue 0
        for n in range(1, 301):
            assert ProductTable(n, units=True).ks.tolist() == [
                a for a in range(1, n + 1) if math.gcd(a, n) == 1]
            assert ProductTable(n).ks.tolist() == list(range(1, n + 1))

    def test_menon_sums_equal_menon_sum(self):
        for n in range(1, 301):
            table = ProductTable(n, units=True)
            assert menon_sums(table) == [
                menon_sum(n, a) for a in table.ks.tolist()]

    def test_carried_b_totals_equal_single_calls_across_the_int_switch(self):
        # counts leave int64 once phi(n)^r n >= 2^63: at r = 10 for n = 59,
        # r = 11 for n = 41 and r = 12 for n = 31, among others
        switched = 0
        for n in range(1, 61):
            table = ProductTable(n, units=True)
            chain = list(islice(table.totals(1, "b_bruteforce"), 12))
            switched += len(table.ks) ** 12 * n >= 2**63
            assert chain == [b_bruteforce(n, r) for r in range(1, 13)]
            assert chain == [b_closed(n, r) for r in range(1, 13)]
        assert switched == 12

    def test_carried_a_totals_equal_the_loops_across_the_int_switch(self):
        # counts leave int64 once n^r n >= 2^63: by r = 12 for n >= 29
        switched = 0
        for n in range(1, 61):
            totals = ProductTable(n).totals(0, "a_bruteforce")
            chain = [Fraction(t, n**r) for r, t in enumerate(islice(totals, 12), 1)]
            switched += n**13 >= 2**63
            assert chain == [a_bruteforce_loop(n, r) for r in range(1, 13)]
            assert chain == [a_eval(n, r) for r in range(1, 13)]
        assert switched == 32

    def test_guards_run_as_in_the_single_calls(self):
        # 3163 is prime: 3162 3163 = 3162 + 3162^2 steps pass the guard
        table = ProductTable(3163, units=True)
        with pytest.raises(ResourceError,
                           match="menon_sum needs 10001406 loop steps"):
            menon_sums(table)
        values = table.totals(1, "b_bruteforce")
        assert next(values) == b_closed(3163, 1)
        with pytest.raises(ResourceError,
                           match="b_bruteforce needs 10001406 loop steps"):
            next(values)
        with pytest.raises(ResourceError,
                           match="b_bruteforce needs 10001406 loop steps"):
            b_bruteforce(3163, 2)
        assert "products" not in vars(table)  # never built past a guard
        # 3163 + 3163^2 steps, under a_bruteforce's name as in the call
        values = ProductTable(3163).totals(0, "a_bruteforce")
        assert Fraction(next(values), 3163) == a_eval(3163, 1)
        with pytest.raises(ResourceError,
                           match="a_bruteforce needs 10007732 loop steps"):
            next(values)
        with pytest.raises(ResourceError,
                           match="a_bruteforce needs 10007732 loop steps"):
            a_bruteforce(3163, 2)


class TestMenonSum:
    def test_examples(self):
        assert menon_sum(4, 1) == 6
        assert menon_sum(5, 2) == 8
        assert menon_sum(1, 1) == 1
        assert [menon_sum(5, a) for a in (1, 2, 3, 4)] == [8] * 4
        assert type(menon_sum(5, 2)) is int

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            menon_sum(4, 2)
        with pytest.raises(DomainError, match="a = 6 is not a unit mod 4"):
            menon_sum(4, 6)  # named as given, not reduced mod n

    def test_negative_unit_allowed(self):
        assert menon_sum(4, -1) == b_closed(4, 1)

    def test_independent_of_the_unit(self):
        for n in range(1, 120):
            units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
            expected = [b_closed(n, 1)] * len(units)
            assert [menon_sum(n, a) for a in units] == expected

    def test_units_outside_the_residues(self):
        # a is reduced mod n before any int64 product
        huge = 10**30 + 1
        for n in (1, 2, 12, 77, 1000):
            if math.gcd(huge, n) == 1:
                assert [menon_sum(n, huge), menon_sum(n, -huge)] == [
                    menon_sum_loop(n, huge), menon_sum_loop(n, -huge)
                ]
                assert menon_sum(n, huge) == b_closed(n, 1)

    def test_blocks_split_the_walk(self, monkeypatch):
        # blocks of _BLOCK = 2^13 residues: 70001 spans nine, the last partial
        n = 70001
        assert 8 * gcdzeta.gcdsum._BLOCK < n < 9 * gcdzeta.gcdsum._BLOCK
        a = [1, n - 1, 12345]
        assert all(math.gcd(x, n) == 1 for x in a)
        assert [menon_sum(n, x) for x in a] == [menon_sum_loop(n, x) for x in a]
        assert menon_sum(999733, 867900) == 6816000
        # at 7 residues per block, n <= 60 walks whole and partial blocks
        monkeypatch.setattr(gcdzeta.gcdsum, "_BLOCK", 7)
        for n in range(1, 61):
            for x in (k for k in range(1, n + 1) if math.gcd(k, n) == 1):
                assert menon_sum(n, x) == menon_sum_loop(n, x)

    def test_guard_counts_n_steps(self):
        # n steps, whatever the unit: 10^7 + 1 is refused at once
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="10000001 loop steps"):
            menon_sum(10**7 + 1, 2)
        with pytest.raises(ResourceError):
            menon_sum(10**9 + 7, 2)
        assert time.perf_counter() - start < 0.1

    def test_block_temporaries_stay_small(self):
        # past gcd_table's index of n bytes (tau(n) <= 256 at each n),
        # one block's arrays at a time: about 0.2 MB
        for n, a in ((999983, 2), (999001, 2), (10**6, 3)):
            tracemalloc.start()
            try:
                menon_sum(n, a)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - n < 0.5e6, (n, peak - n)


class TestFastPathsMatchTheLoops:
    @settings(max_examples=60)
    @given(st.integers(1, 150), st.integers(0, 4))
    def test_against_the_python_loops(self, n, r):
        units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
        expected = b_closed(n, 1)
        assert [menon_sum(n, a) for a in units] == [
            menon_sum_loop(n, a) for a in units]
        assert menon_sum(n, -1) == menon_sum(n, n + 1) == expected
        assert a_bruteforce(n, r) == a_bruteforce_loop(n, r) == a_eval(n, r)
        if r >= 1:
            assert b_bruteforce(n, r) == b_bruteforce_loop(n, r) == b_closed(n, r)

    def test_menon_sum_equals_the_gcd_blocks(self):
        for n in range(1, 201):
            units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
            got = [menon_sum(n, a) for a in units]
            assert got == menon_sum_gcd_blocks(n, units)

    def test_menon_sum_equals_the_gcd_blocks_near_1e6(self):
        rng = random.Random(1)
        # a prime, 10^6 itself (tau = 49) and 999999 = 3^3 7 11 13 37
        for n in (999983, 10**6, 999999):
            a = []
            while len(a) < 3:
                x = rng.randrange(2, n)
                if math.gcd(x, n) == 1:
                    a.append(x)
            assert [menon_sum(n, x) for x in a] == menon_sum_gcd_blocks(n, a)

    def test_brute_forces_equal_the_np_gcd_forms(self):
        for n in range(1, 151):
            for r in range(4):
                assert a_bruteforce(n, r) == a_bruteforce_gcd(n, r)
                if r >= 1:
                    assert b_bruteforce(n, r) == b_bruteforce_gcd(n, r)

    def test_smallest_moduli(self):
        for n in (1, 2):
            units = (1, -1, n + 1, 10**30 + 1)
            assert [menon_sum(n, a) for a in units] == [n] * 4
            for r in range(6):
                assert a_bruteforce(n, r) == a_bruteforce_loop(n, r) == a_eval(n, r)
                if r >= 1:
                    assert b_bruteforce(n, r) == b_closed(n, r)

    def test_python_int_counts_past_int64(self):
        # int64 while (row support)^r n < 2^63: 3^39 < 2^63 < 3^40 and
        # 6^23 9 < 2^63 < 6^24 9, phi(9) = 6
        all3, units9 = ProductTable(3), ProductTable(9, units=True)
        assert chain_counts(all3, 38).dtype == np.int64
        assert chain_counts(all3, 39).dtype == object
        assert chain_counts(units9, 23).dtype == np.int64
        assert chain_counts(units9, 24).dtype == object
        for r in (38, 39, 60):
            assert a_bruteforce(3, r) == a_bruteforce_loop(3, r) == a_eval(3, r)
        for r in (23, 24, 40):
            assert b_bruteforce(9, r) == b_bruteforce_loop(9, r) == b_closed(9, r)
        for counts in (chain_counts(all3, 60), chain_counts(units9, 40)):
            assert all(type(c) is int for c in counts)

    def test_float_chain_equals_the_loop_bit_for_bit(self):
        # weights over 2^-40..2^40, so another add order rounds otherwise;
        # about a third are 0, which the chain skips and the loop adds
        rng = random.Random(27)
        for n in range(1, 31):
            for table in (ProductTable(n), ProductTable(n, units=True)):
                ks = table.ks.tolist()
                rows = [np.array([
                    0.0 if rng.random() < 0.3
                    else rng.random() * 2.0 ** rng.randint(-40, 40)
                    for _ in ks]) for _ in range(3)]
                chain = table.chain(rows)
                loop = float_chain_loop(n, ks, rows)
                for ours, theirs in zip(chain, loop, strict=True):
                    assert ([x.hex() for x in ours.tolist()]
                            == [x.hex() for x in theirs])


class TestCoprimeProgressionCount:
    def test_examples(self):
        assert coprime_progression_count(12, 4, 1) == 2
        assert coprime_progression_count(6, 1, 1) == 2
        assert coprime_progression_count(9, 3, 2) == 3

    def test_equals_phi_ratio(self):
        phi = totient_sieve(200)
        for n in range(1, 201):
            for d in divisor_lists(200)[n]:
                for x in range(1, d + 1):
                    if math.gcd(x, d) != 1:
                        continue
                    count = coprime_progression_count(n, d, x)
                    assert count * phi[d] == phi[n]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            coprime_progression_count(12, 5, 1)  # d does not divide n
        with pytest.raises(DomainError):
            coprime_progression_count(12, 4, 2)  # x not coprime to d
        with pytest.raises(DomainError):
            coprime_progression_count(12, 4, 5)  # x outside [1, d]


@given(st.integers(1, 10**6), st.integers(0, 6))
def test_bounds_hold_everywhere(n, r):
    # n^r A_r(n) counts gcd mass over n^r tuples, each gcd in [1, n]
    v = a_eval(n, r)
    assert 1 <= v <= n
    unnormalized = v * n**r
    assert unnormalized.denominator == 1
