import math
from fractions import Fraction
from itertools import product

import hypothesis
import numpy as np
import pytest

from gcdzeta import analytic
from gcdzeta.arith import FactoredInteger, divisors, factorize, prime_array
from gcdzeta.gcdsum import a_local_sum
from gcdzeta.multfun import MultiplicativeFunction, eval_int, phi

hypothesis.settings.register_profile(
    "gcdzeta", deadline=None, max_examples=100
)
hypothesis.settings.load_profile("gcdzeta")


def poly_at(coeffs: tuple[int, ...], u: Fraction) -> Fraction:
    """An ascending coefficient tuple, as dirichlet.f_r_local returns it,
    evaluated exactly at u by Horner."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def f_r_local_expanded(r: int, k: int) -> tuple[int, ...]:
    """f_r(p^k) as the trimmed ascending coefficient tuple in u = 1/p,

        (-1)^k [C(r+1, k) - sum_{j=0}^{r-k+1} C(r-j, k-1) (1-u)^j],

    with every (1-u)^j expanded by binomials and trailing zeros trimmed:
    the oracle for the closed form of dirichlet.f_r_local."""
    sign = -1 if k % 2 else 1
    coeffs = [sign * math.comb(r + 1, k)] + [0] * r
    for j in range(r - k + 2):
        c = sign * math.comb(r - j, k - 1)
        for i in range(j + 1):
            coeffs[i] -= (-1 if i % 2 else 1) * c * math.comb(j, i)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def mu() -> MultiplicativeFunction:
    """Moebius function: -1 at primes, 0 at higher prime powers."""
    return MultiplicativeFunction("mu", lambda p, k: -1 if k == 1 else 0)


def mu_iter(j: int) -> MultiplicativeFunction:
    """j-fold Dirichlet self-convolution of mu, with local value
    (-1)^k C(j, k): the oracle for A_r * mu^(*(r+1)) = f_r."""
    return MultiplicativeFunction(
        f"mu_iter_{j}",
        lambda p, k: (-1 if k % 2 else 1) * math.comb(j, k),
    )


def a_local(p: int, k: int, r: int) -> Fraction:
    """A_r(p^k) as a Fraction: the local sum at t = 1 - 1/p."""
    # Fraction() keeps the carrier type at r = 0, where the sum is the int 1
    return Fraction(a_local_sum(Fraction(p - 1, p), k, r))


def a_eval_product(n: int | FactoredInteger, r: int) -> Fraction:
    """A_r(n) as a product of Fraction local values, one reduction per
    prime: the oracle for gcdsum.a_numerator and gcdsum.a_eval."""
    fi = n if isinstance(n, FactoredInteger) else factorize(n)
    out = Fraction(1)
    for p, k in fi.factors:
        out *= a_local(p, k, r)
    return out


def a_recursion_fraction(n: int, r: int) -> Fraction:
    """A_r(n) by the divisor recursion in Fractions,

        A_r(n) = sum_{d | n} phi(d) A_{r-1}(d) / d,  A_0 = 1:

    the oracle for the integer recursion of gcdsum.a_recursion."""
    divs = divisors(n)
    phi_over_d = {d: Fraction(eval_int(phi(), d), d) for d in divs}
    sub = {d: [e for e in divs if d % e == 0] for d in divs}
    level = {d: Fraction(1) for d in divs}
    for _ in range(r):
        level = {
            d: sum((phi_over_d[e] * level[e] for e in sub[d]), Fraction(0))
            for d in divs
        }
    return level[n]


def menon_sum_loop(n: int, a: int) -> int:
    """One Menon sum, sum of gcd(a k - 1, n) over the units k in [1, n],
    by a Python loop: the oracle for the numpy gcdsum.menon_sum."""
    total = 0
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            total += math.gcd((a * k - 1) % n, n)
    return total


def gcd_row(n: int, lo: int, hi: int) -> np.ndarray:
    """gcd(c, n) for c in [lo, hi) by np.gcd, the form the brute forces
    read before arith.gcd_table: the oracle for the table."""
    return np.gcd(np.arange(lo, hi, dtype=np.int64), n)


def menon_sum_gcd_blocks(n: int, a) -> list[int]:
    """gcdsum.menon_sum as it was before arith.gcd_table: k over [1, n] in
    blocks of 2^16 // len(a), each block's units and gcd((a k - 1) mod n,
    n) taken by np.gcd.  The oracle for the table's block loop."""
    units = np.array([x % n for x in a], dtype=np.int64)
    totals = np.zeros(len(units), dtype=np.int64)
    step = max(1, 2**16 // len(units))
    for start in range(1, n + 1, step):
        k = np.arange(start, min(start + step, n + 1), dtype=np.int64)
        k = k[np.gcd(k, n) == 1]
        totals += np.gcd((units[:, None] * k - 1) % n, n).sum(axis=1)
    return totals.tolist()


def geometric_checkpoints_set(x_max: int, count: int) -> list[int]:
    """analytic._geometric_checkpoints by a set of Python ints, the form
    before np.unique: the oracle for the vectorized points."""
    x_min = max(10, x_max // 1000)
    if x_min >= x_max:
        return [x_max]
    pts = np.geomspace(x_min, x_max, count)
    cps = sorted(set(int(round(v)) for v in pts))
    cps[-1] = x_max
    return sorted(set(cps))


def value_table(local, x_max: int) -> np.ndarray:
    """f(0..x_max) as one array: copies of analytic._value_windows'
    windows, which reuse one buffer, joined in order, from a plan on a
    new sieve as analytic._checkpoint_sums builds it."""
    plan = analytic._window_plan(local, x_max, prime_array(x_max))
    windows = analytic._value_windows(plan, x_max, 0, x_max + 1)
    return np.concatenate([window.copy() for _, window in windows])


@pytest.fixture(scope="session")
def primes_between():
    """Primes p with lo < p <= hi, by a sieve independent of gcdzeta.arith."""

    def primes(lo: int, hi: int) -> list[int]:
        sieve = bytearray([1]) * (hi + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(hi) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, hi + 1, p)))
        return [p for p in range(lo + 1, hi + 1) if sieve[p]]

    return primes


@pytest.fixture(scope="session")
def convolve():
    """Dirichlet convolution f * g of multiplicative functions.

    The product is multiplicative, so it is built prime power by prime
    power: (f * g)(p^k) = sum_{l=0}^{k} f(p^l) g(p^(k-l)), with
    f(1) = g(1) = 1.
    """

    def conv(f: MultiplicativeFunction, g: MultiplicativeFunction):
        def local(p: int, k: int) -> Fraction:
            acc = Fraction(0)
            for l in range(k + 1):
                fv = f.local(p, l) if l > 0 else Fraction(1)
                gv = g.local(p, k - l) if k - l > 0 else Fraction(1)
                acc += fv * gv
            return acc

        return MultiplicativeFunction(f"({f.name}*conv*{g.name})", local)

    return conv


# Bernoulli numbers B_2, B_4, ..., B_18, for shifted_zeta.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798)


def shifted_zeta(s: float, a: float, tolerance: float) -> float:
    """Hurwitz zeta(s, a) = sum_{m >= 0} (m + a)^-s for real s > 1 and
    0 < a <= 1, in float64, independent of gcdzeta.

    The first N terms are summed directly, plus the Euler-Maclaurin tail

        (N+a)^(1-s)/(s-1) + (N+a)^(-s)/2 + Bernoulli corrections,

    with N doubling from 16 until the first omitted Bernoulli term, which
    bounds the remainder for real s, falls below tolerance.  (A plain
    mpmath.zeta(s, a) costs about 0.7 ms a call, which would slow the
    hypothesis tests that use it by seconds.)
    """
    n_cut = 16
    while True:
        base = n_cut + a
        terms = []
        poch = s  # s (s+1) ... (s + 2i - 2)
        for i, b in enumerate(_BERNOULLI, start=1):
            terms.append(b / math.factorial(2 * i) * poch
                         * base ** (-s - 2 * i + 1))
            poch *= (s + 2 * i - 1) * (s + 2 * i)
        if abs(terms[-1]) < tolerance:
            break
        n_cut *= 2
        assert n_cut <= 10**7, f"tolerance {tolerance} unreachable"
    head = math.fsum((m + a) ** -s for m in range(n_cut))
    tail = base ** (1 - s) / (s - 1) + 0.5 * base**-s
    return head + tail + math.fsum(terms[:-1])


def _hurwitz_reduction(n: int, s, tolerance: float = 1e-9) -> float:
    """Exact finite reduction to Hurwitz zeta values:

        Z = n^-(s_1+...+s_r) sum over k_j in [1, n]^r of
            gcd(k_1...k_r, n) zeta(s_1, k_1/n) ... zeta(s_r, k_r/n).

    The weight gcd(., n) has period n in each variable, so n terms per
    variable capture the whole series; only the zeta factors carry any
    truncation error, and each is evaluated well below the share of the
    requested tolerance it could contribute.  It enumerates n^r tuples and
    shares no code with igusa_euler, which it checks.
    """
    s = tuple(float(v) for v in s)
    r = len(s)
    nn = n
    # crude per-factor magnitude bound: n^-s zeta(s, k/n) <= 1 + zeta(s)
    factor_cap = max(1.0 + shifted_zeta(sj, 1.0, 1e-12) for sj in s)
    factor_tol = tolerance / (nn**r * nn * r * factor_cap ** max(r - 1, 0))
    factor_tol = min(factor_tol, 1e-12)

    factors = {}
    for j, sj in enumerate(s):
        scale = float(nn) ** -sj
        for k in range(1, nn + 1):
            factors[(j, k)] = scale * shifted_zeta(sj, k / nn, factor_tol)
    terms = []
    for ks in product(range(1, nn + 1), repeat=r):
        g = 1
        for k in ks:
            g = g * k % nn
        term = float(math.gcd(g, nn))
        for j, k in enumerate(ks):
            term *= factors[(j, k)]
        terms.append(term)
    return math.fsum(terms)


@pytest.fixture(scope="session")
def hurwitz_reduction():
    """The n^r Hurwitz-zeta reduction of Z(s; n), a reference for igusa."""
    return _hurwitz_reduction
