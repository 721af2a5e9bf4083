import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import gcd_row
from gcdzeta import arith, gcdsum, multfun
from gcdzeta.arith import (
    LOOP_GUARD,
    SIEVE_LIMIT,
    FactoredInteger,
    divisors,
    factorize,
    gcd_table,
    is_prime,
    prime_array,
    primes_in_range,
    primes_upto,
)
from gcdzeta.errors import DomainError, ResourceError
from gcdzeta.igusa import igusa_euler

# past rho's guard even after trial division to 10^6
SEMIPRIME_150 = (2**61 - 1) * (2**89 - 1)


def trial_division_is_prime(n: int) -> bool:
    """Independent primality oracle: plain trial division."""
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def eratosthenes_count(limit: int) -> int:
    """Independent prime counter, no shared code with either sieve."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * ((limit - p * p) // p + 1)
    return sum(sieve)


def spf_sieve(limit: int) -> np.ndarray:
    """Smallest-prime-factor table: spf[i] is the least prime dividing i,
    so spf[p] == p exactly at primes (and spf[0] = 0, spf[1] = 1)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            window = spf[p * p :: p]
            window[window == 0] = p
    untouched = np.flatnonzero(spf == 0)
    spf[untouched] = untouched
    return spf


def spf_factorize(spf: np.ndarray, n: int) -> FactoredInteger:
    """Factor n <= len(spf) - 1 by repeated division by spf."""
    value = n
    factors = []
    while n > 1:
        p = int(spf[n])
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        factors.append((p, k))
    return FactoredInteger(value, tuple(factors))


class TestFactorize:
    def test_one_has_empty_factorization(self):
        assert factorize(1).factors == ()

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_large_semiprime_like_example(self):
        fi = factorize(9007199254740991)
        assert fi.factors == ((6361, 1), (69431, 1), (20394401, 1))
        product = 1
        for p, k in fi.factors:
            assert trial_division_is_prime(p)
            product *= p**k
        assert product == 9007199254740991

    def test_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_product_reconstructs_up_to_1e5(self):
        for n in range(1, 10**5 + 1):
            fi = factorize(n)
            assert math.prod(p**k for p, k in fi.factors) == n

    @given(st.integers(1, 10**12))
    def test_product_reconstructs_random_large(self, n):
        fi = factorize(n)
        assert math.prod(p**k for p, k in fi.factors) == n
        for p, _ in fi.factors:
            assert is_prime(p)

    def test_rho_path_on_semiprime_beyond_trial_range(self):
        p, q = 1000003, 1000033
        fi = factorize(p * p * q)
        assert fi.factors == ((p, 2), (q, 1))

    def test_rho_guard_refuses_a_40_digit_semiprime_at_once(self):
        # m^(1/4) = 6.3e9 predicted rho steps, far above LOOP_GUARD
        p = next(n for n in range(4 * 10**19, 5 * 10**19) if is_prime(n))
        q = next(n for n in range(p + 2, 5 * 10**19) if is_prime(n))
        assert len(str(p * q)) == 40
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="6324555320 loop steps"):
            factorize(p * q)
        assert time.perf_counter() - start < 0.1

    def test_factored_integer_passes_through(self):
        fi = factorize(2**20 * 3**10)
        assert factorize(fi) is fi

    @pytest.mark.parametrize("n", [1, 12, 2**20 * 3**10, 367463304676036369])
    def test_callers_take_n_or_its_factorization(self, n):
        fi = factorize(n)
        for r in (0, 1, 3):
            assert gcdsum.a_numerator(fi, r) == gcdsum.a_numerator(n, r)
            assert gcdsum.a_eval(fi, r) == gcdsum.a_eval(n, r)
        for r in (1, 3):
            assert gcdsum.b_closed(fi, r) == gcdsum.b_closed(n, r)
        for f in (multfun.phi, multfun.tau_k(3)):
            assert multfun.eval_int(f, fi) == multfun.eval_int(f, n)
        assert divisors(fi) == divisors(n)
        assert igusa_euler(fi, (2.0, 3.5)) == igusa_euler(n, (2.0, 3.5))

    def test_trial_primes_sieve_once_per_size_class(self, monkeypatch):
        sieved = []

        def counted(n):
            primes = primes_upto(n)
            sieved.append((n, len(primes)))
            return primes

        monkeypatch.setattr(arith, "primes_upto", counted)
        arith._trial_primes.cache_clear()
        # an 18-digit modulus goes from the primes up to 2^10 to rho
        for _ in range(2):
            for n in range(1, 5001):
                factorize(n)
            factorize(367463304676036369)
            assert sieved == [(1024, 172)]
        # only a composite cofactor past rho's guard reads the list to 10^6
        for _ in range(2):
            with pytest.raises(ResourceError, match="rho"):
                factorize(SEMIPRIME_150)
            assert sieved == [(1024, 172), (10**6, 78498)]

    @pytest.mark.parametrize("n, factors", [
        # no prime up to 2^10 divides them, and m^(1/4) >= 999983^(5/4)
        # passes the guard: trial division to 10^6 settles them
        (999983**5, ((999983, 5),)),
        (1000003**2 * 999983**3, ((999983, 3), (1000003, 2))),
    ])
    def test_cofactor_past_the_guard_goes_on_to_the_longer_list(self, n,
                                                                 factors):
        assert math.isqrt(math.isqrt(n)) > LOOP_GUARD
        assert factorize(n).factors == factors

    @pytest.mark.parametrize("factors", [
        # one modulus of each kind the benchmark's exact evals factor:
        # two primes above 3e8 (rho), a 7-smooth part times a prime above
        # 1e12 (the primality test), and p1^3 p2^2 p3 (rho on p2^2 p3)
        ((557795879, 1), (707602537, 1)),
        ((2, 3), (3, 2), (5, 1), (7, 1), (69474717399211, 1)),
        ((233, 3), (1439, 1), (3313, 2)),
    ])
    def test_benchmark_moduli(self, factors):
        n = math.prod(p**k for p, k in factors)
        assert 10**17 <= n <= 9 * 10**17
        assert factorize(n).factors == factors

    def test_rho_guard_refuses_a_150_bit_semiprime_at_once(self):
        arith._trial_primes.cache_clear()  # the sieve to 10^6 is timed too
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="150-bit cofactor"):
            factorize(SEMIPRIME_150)
        assert time.perf_counter() - start < 0.1

    def test_rho_splits_cofactors_of_primes_just_past_2_to_the_10(self):
        # what trial division to 2^10 leaves rho: products of primes from
        # 1031 up, prime powers among them
        ps = primes_in_range(1024, 1200)
        for p in ps:
            for q in ps:
                for e in (1, 2):
                    fi = factorize(p**e * q)
                    assert dict(fi.factors) == Counter({p: e}) + Counter({q: 1})


class TestIsPrime:
    def test_small_range_matches_trial_division(self):
        for n in range(0, 2000):
            assert is_prime(n) == trial_division_is_prime(n)

    def test_mersenne_prime_and_neighbors(self):
        m61 = 2**61 - 1
        assert is_prime(m61)
        assert not is_prime(m61 - 2)
        assert not is_prime(m61 + 2)

    def test_strong_pseudoprimes_are_rejected(self):
        # Carmichael numbers and classic base-2 pseudoprimes
        for n in (341, 561, 1729, 2821, 29341, 3215031751):
            assert not is_prime(n)


class TestFactoredInteger:
    def test_rejects_wrong_product(self):
        with pytest.raises(DomainError):
            FactoredInteger(10, ((2, 1), (3, 1)))

    def test_rejects_unsorted_primes(self):
        with pytest.raises(DomainError):
            FactoredInteger(6, ((3, 1), (2, 1)))

    def test_rejects_zero_exponent(self):
        with pytest.raises(DomainError):
            FactoredInteger(2, ((2, 1), (3, 0)))


class TestSpfSieve:
    """factorize and prime_array against a test-side SPF table."""

    def test_small_entries(self):
        spf = spf_sieve(10)
        assert (spf[4], spf[9], spf[7]) == (2, 3, 7)
        for i in range(2, 11):
            assert factorize(i).factors[0][0] == spf[i]

    def test_spf_91(self):
        assert spf_sieve(100)[91] == 7
        assert factorize(91).factors == ((7, 1), (13, 1))

    def test_prime_count_at_1e6(self):
        spf = spf_sieve(10**6)
        fixed_points = [i for i in range(2, 10**6 + 1) if spf[i] == i]
        assert len(fixed_points) == 78498
        assert eratosthenes_count(10**6) == 78498
        # the fixed points are exactly the primes of an independent sieve
        sieve = bytearray([1]) * (10**6 + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, 1001):
            if sieve[p]:
                sieve[p * p :: p] = b"\x00" * ((10**6 - p * p) // p + 1)
        assert fixed_points == [i for i in range(2, 10**6 + 1) if sieve[i]]
        assert prime_array(10**6).tolist() == fixed_points

    def test_agrees_with_trial_division_to_1e6(self):
        spf = spf_sieve(10**6)
        for n in range(2, 10**6 + 1):
            m = n
            rebuilt = 1
            last = 1
            while m > 1:
                p = int(spf[m])
                # factors come out nondecreasing and each is a sieve prime,
                # so the walk reproduces the canonical factorization
                assert p >= last and spf[p] == p
                last = p
                rebuilt *= p
                m //= p
            assert rebuilt == n
        # direct comparison against trial division on a denser sample
        for n in range(2, 20001):
            assert spf_factorize(spf, n) == factorize(n)
        for n in range(10**6 - 2000, 10**6 + 1):
            assert spf_factorize(spf, n) == factorize(n)

    def test_invariants_spf_divides_and_bounded(self):
        spf = spf_sieve(5000)
        for i in range(2, 5001):
            p = int(spf[i])
            assert i % p == 0
            assert p * p <= i or p == i
            assert factorize(i).factors[0][0] == p


class TestPrimesInRange:
    def test_examples(self):
        assert primes_in_range(10, 20) == [11, 13, 17, 19]
        assert primes_in_range(1, 10) == [2, 3, 5, 7]

    def test_interval_count_for_extremal_modulus(self, primes_between):
        # pi(1e5) = 9592 and pi(8685) = 1081, both pinned against the
        # independent Eratosthenes counter below
        lo = int(10**5 / math.log(10**5))
        assert lo == 8685
        ps = primes_in_range(lo, 10**5)
        assert len(ps) == 9592 - 1081 == 8511
        assert eratosthenes_count(10**5) == 9592
        assert eratosthenes_count(8685) == 1081
        assert ps == primes_between(lo, 10**5)

    def test_error_on_reversed_bounds(self):
        with pytest.raises(DomainError):
            primes_in_range(20, 10)

    def test_primes_upto_matches_independent_count(self):
        assert len(primes_upto(10**4)) == eratosthenes_count(10**4) == 1229


class TestPrimeArray:
    # 317 is prime: n = 317^2 puts a square of a prime at the sieve's end,
    # as 9 and 25 do; 4, 8 and 10 end the sieve on an even number
    # 10^6 + 1 = 101 * 9901 ends the odd-only sieve on a composite
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 4, 8, 9, 10, 25, 317**2, 10**5, 10**6, 10**6 + 1]
    )
    def test_matches_bytearray_sieve(self, n, primes_between):
        got = prime_array(n)
        assert got.dtype == np.int64
        assert got.tolist() == primes_between(0, n)

    def test_primes_upto_gives_python_ints(self):
        # factorize's trial division needs big-int %, not int64 %
        assert all(type(p) is int for p in primes_upto(1000))

    def test_guard(self):
        with pytest.raises(ResourceError):
            prime_array(SIEVE_LIMIT + 1)


class TestDivisors:
    def test_small(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(factorize(36)) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


class TestGcdTable:
    def test_equals_np_gcd_to_3000(self):
        for n in range(1, 3001):
            divs, idx = gcd_table(n)
            assert divs.dtype == np.int64
            assert divs.tolist() == divisors(n)
            assert idx.dtype == (np.uint8 if len(divs) <= 256 else np.uint16)
            assert np.array_equal(divs[idx], gcd_row(n, 0, n))

    @pytest.mark.parametrize("n, tau, dtype", [
        (1, 1, np.uint8),
        (720720, 240, np.uint8),  # 2^4 3^2 5 7 11 13
        (999983, 2, np.uint8),  # prime
        (8648640, 448, np.uint16),  # 2^6 3^3 5 7 11 13: tau > 256
    ])
    def test_large_moduli(self, n, tau, dtype):
        divs, idx = gcd_table(n)
        assert len(divs) == tau
        assert idx.dtype == dtype
        assert divs.tolist() == divisors(n)
        # the np.gcd form a million residues at a time, to keep memory small
        for lo in range(0, n, 2**20):
            hi = min(lo + 2**20, n)
            assert np.array_equal(divs[idx[lo:hi]], gcd_row(n, lo, hi))


class TestExactRationals:
    @given(
        st.integers(-(10**12), 10**12),
        st.integers(1, 10**12),
        st.integers(-(10**12), 10**12),
        st.integers(1, 10**12),
    )
    def test_add_then_subtract_is_identity(self, a, b, c, d):
        x = Fraction(a, b)
        y = Fraction(c, d)
        assert (x + y) - y == x

    @given(st.integers(-(10**9), 10**9), st.integers(1, 10**9))
    def test_lowest_terms_and_positive_denominator(self, a, b):
        x = Fraction(a, b)
        assert x.denominator > 0
        assert math.gcd(abs(x.numerator), x.denominator) == 1
