import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mu, mu_iter
from gcdzeta import gcdsum
from gcdzeta.arith import factorize
from gcdzeta.errors import DomainError
from gcdzeta.multfun import binom_multiset, eval_int, phi, tau_k


def ordered_factorization_counts(limit: int, k: int) -> list[int]:
    """Count ordered k-tuples with product n by divisor recursion.

    Independent of the binomial local formula: builds divisor lists by a
    multiples sieve and counts tuples level by level.
    """
    divlist: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            divlist[m].append(d)
    counts = [0] + [1] * limit
    for _ in range(k - 1):
        counts = [0] + [
            sum(counts[d] for d in divlist[n]) for n in range(1, limit + 1)
        ]
    return counts


class TestBinomMultiset:
    def test_examples(self):
        assert binom_multiset(1, 5) == 1
        assert binom_multiset(3, 2) == 6
        assert binom_multiset(2, 3) == 4

    def test_against_enumeration(self):
        for n in range(1, 6):
            for k in range(0, 6):
                listed = sum(
                    1 for _ in combinations_with_replacement(range(n), k)
                )
                assert binom_multiset(n, k) == listed

    def test_negative_binomial_form(self):
        # C(n + k - 1, k) = (-1)^k C(-n, k), the generalized binomial
        # C(-n, k) being the falling product (-n)(-n - 1)...(-n - k + 1) / k!
        for n in range(1, 8):
            for k in range(0, 8):
                sign = -1 if k % 2 else 1
                falling = math.prod(-n - i for i in range(k))
                assert binom_multiset(n, k) * math.factorial(k) == sign * falling

    def test_negative_k_rejected(self):
        # twice each: the cache keeps values, never a refusal
        for _ in range(2):
            with pytest.raises(DomainError):
                binom_multiset(3, -1)
            with pytest.raises(DomainError):
                binom_multiset(0, 0)
        with pytest.raises(DomainError):
            tau_k(0)


class TestStandardFunctions:
    def test_phi_and_tau_values(self):
        assert eval_int(phi, 12) == 4
        assert eval_int(tau_k(2), 1) == 1
        assert eval_int(tau_k(2), 12) == 6

    def test_tau_3_at_4_by_enumeration(self):
        triples = [
            (a, b, c)
            for a in range(1, 5)
            for b in range(1, 5)
            for c in range(1, 5)
            if a * b * c == 4
        ]
        assert len(triples) == 6
        assert eval_int(tau_k(3), 4) == 6

    def test_piltz_matches_tuple_counts(self):
        limit = 10**4
        for k in (2, 3, 4):
            counts = ordered_factorization_counts(limit, k)
            f = tau_k(k)
            for n in range(1, limit + 1):
                assert eval_int(f, n) == counts[n]

    def test_mu_iter_examples(self):
        for p in (2, 3, 97):
            assert mu_iter(2)(p, 1) == -2
            assert mu_iter(3)(p, 4) == 0

    def test_mu_iter_1_is_mu(self):
        for k in range(1, 11):
            assert mu_iter(1)(5, k) == mu(5, k)

    def test_mu_iter_matches_repeated_convolution(self, convolve):
        for j in (2, 3, 4):
            chain = mu
            for _ in range(j - 1):
                chain = convolve(chain, mu)
            f = mu_iter(j)
            for n in range(1, 5001):
                fi = factorize(n)
                assert eval_int(f, fi) == eval_int(chain, fi)

    def test_psi1_over_n_is_mean_gcd(self):
        # Pillai's psi_1(n) = sum_{d | n} d phi(n/d), with local value
        # p^k + k (p^k - p^(k-1)), is n A_1(n)
        def f(p, k):
            return p**k + k * (p**k - p ** (k - 1))

        for n in range(1, 10**4 + 1):
            fi = factorize(n)
            assert Fraction(eval_int(f, fi), n) == gcdsum.a_eval(fi, 1)

    def test_eval_at_one_is_one(self):
        for f in (phi, tau_k(2), tau_k(4)):
            assert eval_int(f, 1) == 1

    @given(st.integers(1, 10**4), st.integers(1, 10**4))
    def test_multiplicative_on_coprime_pairs(self, m, n):
        if math.gcd(m, n) != 1:
            return
        for f in (phi, tau_k(2), tau_k(3)):
            assert eval_int(f, m * n) == eval_int(f, m) * eval_int(f, n)

    def test_values_are_plain_ints(self):
        # the three functions of `verify mult`
        functions = {"phi": phi, "tau_2": tau_k(2), "tau_3": tau_k(3)}
        for n in range(1, 2001):
            fi = factorize(n)
            for name, f in functions.items():
                value = eval_int(f, fi)
                assert type(value) is int, (name, n)
                assert value == eval_int(f, n)

