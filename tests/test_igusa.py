import math

import mpmath
import numpy as np
import pytest

from gcdzeta.errors import DomainError, NumericalError, ResourceError
from gcdzeta.igusa import (
    IgusaQuery,
    evaluate,
    hurwitz_zeta,
    igusa_direct,
    igusa_hurwitz,
)


def brute_hurwitz(s: float, a: float, terms: int = 10**7) -> tuple[float, float]:
    """Partial sum plus an integral tail bracket, fully independent."""
    m = np.arange(terms, dtype=np.float64)
    head = float(np.sum((m + a) ** -s))
    # integral bracket for the tail: between the two shifted integrals
    lo = (terms + a) ** (1 - s) / (s - 1)
    hi = (terms - 1 + a) ** (1 - s) / (s - 1)
    return head + lo, hi - lo


class TestHurwitzZeta:
    def test_reduces_to_basel_sum(self):
        assert hurwitz_zeta(2, 1) == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_half_shift_identity(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        for s in (2, 3, 4):
            lhs = hurwitz_zeta(s, 0.5)
            rhs = (2**s - 1) * hurwitz_zeta(s, 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)
        assert hurwitz_zeta(2, 0.5) == pytest.approx(math.pi**2 / 2, abs=1e-12)

    def test_apery_value_against_brute_sum(self):
        value = hurwitz_zeta(3, 1)
        head, width = brute_hurwitz(3, 1.0, 10**7)
        assert abs(value - head) <= width + 1e-12
        assert value == pytest.approx(1.2020569031595942, abs=1e-12)

    def test_against_mpmath_grid(self):
        for s in (1.5, 2.0, 2.5, 3.0, 5.0, 10.0):
            for a in (0.1, 0.25, 0.5, 1.0):
                ours = hurwitz_zeta(s, a, tolerance=1e-13)
                ref = float(mpmath.zeta(s, a))
                assert ours == pytest.approx(ref, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 1.5)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.5, tolerance=-1.0)
        with pytest.raises(DomainError, match="finite"):
            hurwitz_zeta(math.inf, 0.5)

    def test_unreachable_tolerance(self):
        with pytest.raises(NumericalError):
            hurwitz_zeta(1.0000001, 1e-300 + 1e-12, tolerance=1e-300)


class TestIgusaDirect:
    def test_n1_is_plain_zeta(self):
        value, tail = igusa_direct(1, (2.0,), 10**4)
        assert abs(value - math.pi**2 / 6) <= tail
        assert tail < 1e-3

    def test_n2_splits_into_parities(self):
        value, tail = igusa_direct(2, (2.0,), 10**4)
        assert abs(value - 5 * math.pi**2 / 24) <= tail

    def test_r2_agrees_with_hurwitz(self):
        value, tail = igusa_direct(2, (2.0, 2.0), 300)
        reference = igusa_hurwitz(2, (2.0, 2.0))
        assert abs(value - reference) <= tail + 1e-8

    def test_truncated_sum_underestimates(self):
        value, _ = igusa_direct(3, (2.0,), 1000)
        reference = igusa_hurwitz(3, (2.0,))
        assert value < reference

    def test_guards(self):
        with pytest.raises(ResourceError):
            igusa_direct(2, (2.0, 2.0, 2.0, 2.0), 10)
        with pytest.raises(DomainError):
            igusa_direct(10, (2.0,), 5)  # truncation below n
        with pytest.raises(ResourceError):
            igusa_direct(2, (2.0, 2.0, 2.0), 1000)  # 1e9 terms
        with pytest.raises(DomainError):
            igusa_direct(2, (1.0,), 100)  # s on the boundary


class TestIgusaHurwitz:
    def test_two_term_closed_form(self):
        # 2^-2 [ gcd(1,2) zeta(2, 1/2) + gcd(2,2) zeta(2, 1) ] = 5 pi^2 / 24
        value = igusa_hurwitz(2, (2.0,))
        assert value == pytest.approx(5 * math.pi**2 / 24, abs=1e-9)

    def test_n1_single_term(self):
        assert igusa_hurwitz(1, (3.0,)) == pytest.approx(
            1.2020569031595942, abs=1e-9
        )

    def test_r2_cross_method(self):
        direct, tail = igusa_direct(4, (2.0, 2.0), 300)
        hur = igusa_hurwitz(4, (2.0, 2.0))
        assert abs(hur - direct) <= tail + 1e-8

    def test_envelope(self):
        # prod zeta(s_j) <= Z <= n prod zeta(s_j), since 1 <= gcd <= n
        for n in (1, 2, 3, 4, 6):
            for s in ((2.0,), (2.5,), (2.0, 3.0)):
                z = igusa_hurwitz(n, s)
                plain = math.prod(hurwitz_zeta(sj, 1.0) for sj in s)
                assert plain - 1e-9 <= z <= n * plain + 1e-9

    def test_symmetry_in_exponents(self):
        for n in (2, 3, 6):
            a = igusa_hurwitz(n, (2.0, 3.0))
            b = igusa_hurwitz(n, (3.0, 2.0))
            assert a == pytest.approx(b, rel=1e-10)

    def test_guards(self):
        with pytest.raises(ResourceError):
            igusa_hurwitz(200, (2.0, 2.0, 2.0, 2.0))
        with pytest.raises(DomainError):
            igusa_hurwitz(2, (0.5,))
        with pytest.raises(DomainError):
            igusa_hurwitz(0, (2.0,))
        with pytest.raises(DomainError):
            igusa_hurwitz(2, ())
        with pytest.raises(DomainError, match="s_2 = inf"):
            igusa_hurwitz(2, (2.0, math.inf))


class TestQueryRecord:
    def test_evaluate_hurwitz_record(self):
        record = evaluate(IgusaQuery(2, (2.0,)))
        assert record["method"] == "hurwitz"
        assert record["terms_evaluated"] == 2
        assert record["value"] == pytest.approx(5 * math.pi**2 / 24, abs=1e-9)

    def test_evaluate_direct_record(self):
        record = evaluate(IgusaQuery(2, (2.0,), method="direct"), truncation=5000)
        assert record["terms_evaluated"] == 5000
        assert record["tail_bound"] > 0

    def test_query_validation(self):
        with pytest.raises(DomainError):
            IgusaQuery(2, (2.0,), method="magic")
        with pytest.raises(DomainError):
            IgusaQuery(2, (2.0,), tolerance=0.0)
