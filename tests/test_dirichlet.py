import math
from fractions import Fraction

import pytest
from conftest import a_local, f_r_local_expanded, mu, mu_iter, poly_at
from hypothesis import given
from hypothesis import strategies as st

from gcdzeta import dirichlet
from gcdzeta.arith import factorize
from gcdzeta.dirichlet import f_r_local, format_poly, verify_fr_structure
from gcdzeta.errors import DomainError
from gcdzeta.gcdsum import a_eval
from gcdzeta.multfun import eval_int, tau_k


def f_r(r: int):
    """The correction factor with A_r = tau_{r+1} * f_r, as its local
    function (p, k) -> f_r(p^k)."""
    return lambda p, k: poly_at(f_r_local(r, k), Fraction(1, p))


def fr_as_convolution(r: int, p: int, k: int) -> Fraction:
    """f_r(p^k) recomputed as the convolution (A_r * mu^(r+1))(p^k)."""
    acc = Fraction(0)
    for l in range(k + 1):
        mu_val = (-1 if l % 2 else 1) * math.comb(r + 1, l)
        a_val = a_local(p, k - l, r) if k - l > 0 else Fraction(1)
        acc += mu_val * a_val
    return acc


def one(p: int, k: int) -> Fraction:
    """The constant function 1 at p^k, the convolution identity's right
    unit."""
    return Fraction(1)


def phi_normalized(p: int, k: int) -> Fraction:
    """phi(n)/n at p^k: (p - 1)/p at every prime power."""
    return Fraction(p - 1, p)


def pointwise_product(f, g):
    """The local function of the pointwise product f(n) g(n);
    multiplicative when both factors are."""
    return lambda p, k: f(p, k) * g(p, k)


class TestLocalPolynomial:
    # f_r(p^k) as the ascending coefficient tuple in u = 1/p
    def test_trims_trailing_zeros(self):
        assert f_r_local(3, 4) == ()
        assert f_r_local(2, 1) == (0, -3, 1)
        assert f_r_local(2, 1)[-1] != 0

    def test_degree_and_constant(self):
        coeffs = f_r_local(2, 1)
        assert len(coeffs) - 1 == 2
        assert coeffs[0] == 0
        assert len(f_r_local(1, 2)) - 1 == -1

    def test_evaluate_exactly(self):
        assert poly_at(f_r_local(2, 1), Fraction(1, 3)) == Fraction(-8, 9)


class TestFormatPoly:
    def test_string_forms(self):
        assert format_poly((0, -3, 1)) == "-3u + u^2"
        assert format_poly((0, -1)) == "-u"
        assert format_poly(()) == "0"
        assert format_poly((1, 2)) == "1 + 2u"
        assert format_poly((0, 3, -1)) == "3u - u^2"


class TestFrLocal:
    def test_r1_k1_is_minus_u(self):
        assert f_r_local(1, 1) == (0, -1)

    def test_r2_k1(self):
        # A_2(p) - 3 expanded in u = 1/p
        assert f_r_local(2, 1) == (0, -3, 1)

    def test_coefficients_are_trimmed_int_tuples(self):
        # the zero polynomial is (); any other tuple ends in a nonzero int
        for r in range(1, 9):
            for k in range(1, 11):
                coeffs = f_r_local(r, k)
                assert type(coeffs) is tuple
                assert all(type(c) is int for c in coeffs)
                assert coeffs[-1:] != (0,), (r, k)
                assert (coeffs == ()) == (k > r), (r, k)

    def test_vanishing_beyond_r(self):
        assert f_r_local(3, 4) == ()
        for r in range(1, 7):
            for k in range(r + 1, r + 7):
                assert f_r_local(r, k) == ()

    def test_zero_constant_term(self):
        for r in range(1, 7):
            for k in range(1, r + 1):
                assert f_r_local(r, k)[0] == 0

    def test_degree_bounded_by_r(self):
        for r in range(1, 7):
            for k in range(1, r + 4):
                assert len(f_r_local(r, k)) - 1 <= r

    @pytest.mark.parametrize("r", range(1, 41))
    def test_fold_is_the_closed_local_factor(self, r):
        # sum_k f_r(p^k) u^k = (1 - u)^r (1 + ru) - 1, the Euler factor
        # that analytic.euler_leading_coefficient takes in closed form
        fold = [0] * (2 * r + 1)
        for k in range(1, r + 1):
            for i, c in enumerate(f_r_local(r, k)):
                fold[i + k] += c
        closed = [(-1) ** i * math.comb(r, i) for i in range(r + 1)] + [0]
        for i in range(r, -1, -1):
            closed[i + 1] += r * closed[i]
        closed[0] -= 1
        assert fold == closed + [0] * (r - 1)

    @pytest.mark.parametrize("r", range(1, 61))
    def test_closed_form_is_the_expansion(self, r):
        for k in range(1, r + 4):
            coeffs = f_r_local(r, k)
            assert coeffs == f_r_local_expanded(r, k), (r, k)
            assert all(type(c) is int for c in coeffs), (r, k)

    @given(st.integers(0, 80).flatmap(lambda r: st.tuples(
        st.just(r), st.integers(0, r + 2), st.integers(1, r + 2))))
    def test_vandermonde(self, rik):
        # u^i of sum_j C(r-j, k-1) (1-u)^j, up to sign, in closed form
        r, i, k = rik
        total = sum(math.comb(j, i) * math.comb(r - j, k - 1)
                    for j in range(r + 1))
        assert total == math.comb(r + 1, k + i)

    def test_arguments_validated(self):
        with pytest.raises(DomainError):
            f_r_local(0, 1)
        with pytest.raises(DomainError):
            f_r_local(1, 0)


class TestFrAsConvolution:
    def test_examples(self):
        assert fr_as_convolution(1, 2, 1) == Fraction(-1, 2)
        assert fr_as_convolution(1, 2, 1) == a_local(2, 1, 1) - 2
        assert fr_as_convolution(2, 3, 1) == Fraction(-8, 9)
        assert fr_as_convolution(2, 5, 3) == 0

    def test_matches_symbolic_polynomial(self, convolve):
        for r in range(1, 6):
            def a_r(p, k):
                return a_local(p, k, r)

            a_r_mu = convolve(a_r, mu_iter(r + 1))
            for k in range(1, r + 4):
                poly = f_r_local(r, k)
                for p in (2, 3, 5, 7):
                    value = poly_at(poly, Fraction(1, p))
                    assert value == fr_as_convolution(r, p, k)
                    assert value == a_r_mu(p, k)


class TestVerifyFrStructure:
    """The check of A_r = tau_{r+1} * f_r at p^k, k = 1..k_max."""

    def test_r1_all_pass(self):
        assert verify_fr_structure(1, 6) == {}
        # f_1(p^k) is the zero polynomial for every k >= 2
        assert all(f_r_local(1, k) == () for k in range(2, 7))

    def test_r4_kmax10_passes(self):
        assert verify_fr_structure(4, 10) == {}

    def test_r2_constant_terms_zero(self):
        assert verify_fr_structure(2, 2) == {}
        assert all(f_r_local(2, k)[0] == 0 for k in (1, 2))

    def test_names_every_violation(self, monkeypatch):
        line = "(r=2, k={k}): A_2(p^{k}) != (tau_3 * f_2)(p^{k}) at u = {u}"
        # a nonzero constant is wrong at every k, already at u = 0
        monkeypatch.setattr(dirichlet, "f_r_local", lambda r, k: (1, 0, 0, 1))
        assert verify_fr_structure(2, 3) == {
            k: line.format(k=k, u=0) for k in (1, 2, 3)}
        # the zero polynomial everywhere leaves tau_3 alone, which is
        # A_2(p^k) only at u = 0
        monkeypatch.setattr(dirichlet, "f_r_local", lambda r, k: ())
        assert verify_fr_structure(2, 3) == {
            k: line.format(k=k, u=1) for k in (1, 2, 3)}

    def test_arguments_validated(self):
        with pytest.raises(DomainError):
            verify_fr_structure(0, 3)
        with pytest.raises(DomainError):
            verify_fr_structure(2, 0)


class TestConvolution:
    def test_phibar_conv_one_is_a1(self, convolve):
        phibar_one = convolve(phi_normalized, one)
        assert eval_int(phibar_one, 4) == 2
        for n in range(1, 200):
            assert eval_int(phibar_one, n) == a_eval(n, 1)

    def test_mu_conv_tau_is_one(self, convolve):
        for n in (1, 12, 360, 1024, 9699690):
            assert eval_int(convolve(mu, tau_k(2)), factorize(n)) == 1

    def test_tau2_conv_f1_at_primes(self, convolve):
        f1 = f_r(1)
        for p in (2, 3, 5, 101):
            assert convolve(tau_k(2), f1)(p, 1) == 2 - Fraction(1, p)

    def test_factorization_identity(self, convolve):
        for r in (1, 2, 3):
            a_r = convolve(tau_k(r + 1), f_r(r))
            for n in range(1, 501):
                fi = factorize(n)
                assert eval_int(a_r, fi) == a_eval(fi, r)

    def test_chained_convolution_builds_a_r(self, convolve):
        # r applications of h -> (phibar * h) conv one, starting from one
        for r in (1, 2, 3):
            h = one
            for _ in range(r):
                h = convolve(pointwise_product(phi_normalized, h), one)
            for n in range(1, 2001):
                fi = factorize(n)
                assert eval_int(h, fi) == a_eval(fi, r)


class TestPowerSumCancellation:
    def test_alternating_power_sums_vanish(self):
        # sum_{l=0}^{n} (-1)^l l^j C(n, l) = 0 for 0 <= j <= n-1
        for n in range(1, 13):
            for j in range(0, n):
                total = sum(
                    (-1 if l % 2 else 1) * l**j * math.comb(n, l)
                    for l in range(n + 1)
                )
                assert total == 0
