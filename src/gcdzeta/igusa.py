"""The multivariable gcd-weighted zeta function of a cyclic group, for
real exponents s_j > 1.

Counting homomorphisms from Z/nZ into Z/(m_1...m_r)Z gives the weight
gcd(m_1...m_r, n), so the object is

    Z(s_1, ..., s_r; n) = sum over all m_j >= 1 of
                          gcd(m_1...m_r, n) / (m_1^s_1 ... m_r^s_r).

The weight is multiplicative in n, so Z is prod_j zeta(s_j) times one
finite local sum per prime power p^e || n; igusa_euler evaluates that
product with an error bound it computes.  igusa_direct, a truncated
direct sum with a rigorous tail bound, shares only the zeta(s_j) values
with it, so the two cross-validate each other.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce

import numpy as np

from .arith import (FactoredInteger, ProductTable, _check_loop_guard,
                    _convolution_steps, factorize)
from .errors import DomainError, NumericalError

# Unit roundoff of float64.
_EPS = 2.0**-53
# Terms of zeta(s) summed directly; the Euler-Maclaurin tail starts after.
_EM_CUT = 16

# Bernoulli numbers B_2, B_4, ..., B_18; index i holds B_{2(i+1)}.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
)
# Bernoulli corrections applied; the one after them bounds the error.
_EM_TERMS = len(_BERNOULLI) - 1


def _checked_exponents(n: int, s) -> tuple[float, ...]:
    """Check n >= 1 and real exponents s_j > 1; return s as floats."""
    s = tuple(float(v) for v in s)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if len(s) < 1:
        raise DomainError("at least one exponent is required")
    if any(not v > 1 for v in s):
        raise DomainError(f"every exponent must be > 1, got {s}")
    for j, v in enumerate(s, start=1):
        if not math.isfinite(v):
            raise DomainError(f"exponent s_{j} = {v} is not finite")
    return s


def _em_corrections(s: float, base: float, count: int) -> list[float]:
    """Bernoulli correction terms of the Euler-Maclaurin tail at base."""
    terms = []
    poch = s
    for i in range(1, count + 1):
        # poch = s (s+1) ... (s + 2i - 2)
        b = float(_BERNOULLI[i - 1]) / math.factorial(2 * i)
        power = base ** (-s - 2 * i + 1)
        # for huge s poch overflows where power underflows; the term is 0
        terms.append(b * poch * power if power else 0.0)
        poch *= (s + 2 * i - 1) * (s + 2 * i)
    return terms


def hurwitz_zeta(s: float) -> float:
    """zeta(s) = sum_{m >= 1} m^-s for real s > 1.

    Direct summation of the first 16 terms plus the Euler-Maclaurin tail
    at N = 17:

        N^(1-s)/(s-1) + N^(-s)/2 + Bernoulli corrections.

    The first omitted Bernoulli term bounds the remainder for real s.  It
    stays below 1e-21 from just above s = 1 to 1e300, far under the _EPS
    that the callers' bounds allow for it; a NumericalError guards that.
    """
    if not s > 1:
        raise DomainError(f"s must be > 1, got {s}")
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    base = _EM_CUT + 1.0
    terms = _em_corrections(s, base, _EM_TERMS + 1)
    if not abs(terms[-1]) < _EPS:
        raise NumericalError(
            f"the omitted Euler-Maclaurin term {terms[-1]:.3g} at s = {s!r} "
            f"is not below {_EPS:.3g}"
        )
    head = math.fsum(float(m) ** -s for m in range(1, _EM_CUT + 1))
    tail = base ** (1 - s) / (s - 1) + 0.5 * base**-s
    return head + tail + math.fsum(terms[:-1])


def _direct_steps(n: int, r: int, truncation: int) -> int:
    """Steps of igusa_direct with T = truncation: r T powers summed into
    residue classes, then their ProductTable chain (_convolution_steps)."""
    return r * truncation + _convolution_steps(n, r)


def igusa_direct(
    n: int, s: tuple[float, ...] | list[float], truncation: int,
) -> tuple[float, float]:
    """Truncated direct sum over all m_j <= truncation, with a bound.

    gcd(m_1...m_r, n) depends only on the product mod n.  So each variable
    is summed into its class sums W_j[d] = sum of m^-s_j over m <= T with
    m = d (mod n), the classes are convolved under multiplication mod n
    (ProductTable's chain, in float64), and residue c is weighted by
    gcd(c, n), the table's gcds.  The loop guard checks _direct_steps.

    The bound is the truncation tail, from gcd <= n on every omitted
    tuple,

        0 <= Z - Z_truncated <= n (prod_j zeta(s_j) - prod_j S_j),

    S_j being the truncated one-variable sums, plus the float rounding to
    first order, counted from the operations.  Every term is positive, so
    each rounding error is relative.
    """
    s = _checked_exponents(n, s)
    r = len(s)
    if truncation < n:
        raise DomainError(f"truncation {truncation} must be >= n = {n}")
    _check_loop_guard(_direct_steps(n, r, truncation), "igusa_direct")
    rows = [np.array([
        math.fsum(float(m) ** -sj for m in range(d, truncation + 1, n))
        for d in range(1, n + 1)
    ]) for sj in s]
    full = math.prod(hurwitz_zeta(sj) for sj in s)
    trunc = math.prod(math.fsum(row) for row in rows)
    table = ProductTable(n)
    gcds, chain = table.gcds, table.chain(rows)
    # an overflow to inf is the NumericalError below, not a warning
    with np.errstate(over="ignore"):
        value = math.fsum(gcds * next(itertools.islice(chain, r - 1, None)))
    # Relative rounding of the value: a pow (one ulp, 2 eps) and a class
    # fsum per variable; r - 1 convolution rounds, each bin summing at
    # most sum(gcds) products, the count that lands on residue 0; the
    # final products and fsum.  The tail's rounding is relative to
    # n prod_j zeta(s_j): 9 eps per zeta value (its omitted term and 8 eps),
    # 4 eps per S_j, r - 1 products in each product and 2 eps for the
    # difference and the factor n, 15 r eps in all.  Underflow needs no
    # term: each of the at most two operations per step loses at most
    # 2^-1075, magnified at most n prod_j S_j <= n value times, and with
    # n and the steps below 1e7 that is under 1e-300 value.
    rel = (3 * r + (r - 1) * int(gcds.sum()) + 2) * _EPS
    bound = n * (full - trunc) + n * full * 15 * r * _EPS + value * rel
    if not math.isfinite(value + bound):
        raise NumericalError(
            f"the direct sum {value!r} or its bound {bound!r} is not finite"
        )
    return value, bound


def _euler_steps(fi: FactoredInteger, r: int) -> int:
    """Steps of igusa_euler: per p^e || n, (j e + 1)(e + 1) products for
    the convolution adding table j + 1, j < r, and r e + 1 summed terms."""
    return sum((e + 1) * (r + e * r * (r - 1) // 2) + r * e + 1
               for _, e in fi.factors)


def _exponent_sum_weights(tables) -> np.ndarray:
    """c[k] = sum over a with a_1 + ... + a_r = k of prod_j tables[j][a_j].

    The tables are convolved one after another, starting from the empty
    product [1], which is also the result for no tables.  Any carrier
    numpy can multiply and add runs the same np.convolve calls in the
    same order: float64 here, Fraction object arrays in the tests.
    """
    return reduce(np.convolve, tables, np.ones(1, dtype=np.int64))


def _exp_error(x: float) -> float:
    """Relative error of exp at an exponent x formed by a few roundings.

    x carries at most 6 eps of relative rounding (three roundings of its
    differences and products, and log p within 3 eps), which moves exp(x)
    by 6 eps |x|; exp itself adds one ulp, 2 eps.  Beyond |x| = 746 the
    value is below 2^-1076 and falls under the absolute underflow
    allowance instead.
    """
    return (6 * min(abs(x), 746.0) + 2) * _EPS


def igusa_euler(
    n: int | FactoredInteger, s: tuple[float, ...] | list[float],
) -> tuple[float, float]:
    """Z = prod_j zeta(s_j) prod_{p^e || n} L_p, with one finite local sum

        L_p = sum over a in [0, e]^r of p^(min(a_1+...+a_r, e) - a.s)
              prod_{a_j < e} (1 - p^-s_j).

    gcd(m_1...m_r, n) is multiplicative in n.  The m_j with p^a || m_j
    carry the share p^(-a s_j) (1 - p^-s_j) of zeta(s_j), and every
    a_j >= e gives the same gcd, so those collapse into a_j = e.  A term
    depends on a only through its total k = a_1 + ... + a_r and the
    product of one table entry per variable, so L_p = sum_k g[k] c[k],
    c being the r tables' convolution (_exponent_sum_weights).

    Returns the value and a computed bound on its error: the zeta
    truncation errors relative to zeta(s_j), plus the float rounding
    counted from the operations.  Every local term is positive, so each
    rounding error is relative.  The loop guard checks _euler_steps.  A
    value or bound that overflows, as prod_j zeta(s_j) does for many s_j
    near 1, is a NumericalError.
    """
    s = _checked_exponents(1, s)  # s first; factorize checks n and may refuse it
    fi = factorize(n)
    r = len(s)
    steps = _euler_steps(fi, r)
    _check_loop_guard(steps, "igusa_euler")

    zetas = [hurwitz_zeta(sj) for sj in s]
    # hurwitz_zeta is taken as good to _EPS (its omitted term) plus 8 eps
    # of rounding (positive pow terms, one ulp each, summed by fsum)
    rel = math.fsum(_EPS / z + 8 * _EPS for z in zetas)
    locals_ = []
    for p, e in fi.factors:
        log_p = math.log(p)
        # g[k] = p^(min(k, e) - k) and v_j[a] = p^(a (1 - s_j))
        # (1 - p^-s_j)^[a < e], every factor at most 1.  Each table's
        # largest exponent bounds the error of all its entries.
        # -expm1(-y) = 1 - p^-s_j is good to 8 eps, since the exponent's
        # 6 eps |y| shrinks by y e^-y / (1 - e^-y) <= 1; its product with
        # the power adds one.
        g = np.array([math.exp((e - k) * log_p) if k > e else 1.0
                      for k in range(r * e + 1)])
        entry_err = _exp_error((1 - r) * e * log_p)
        tables = []
        for sj in s:
            slope = (1 - sj) * log_p
            one_minus_q = -math.expm1(-sj * log_p)
            tables.append([math.exp(a * slope) * one_minus_q for a in range(e)]
                          + [math.exp(e * slope)])
            entry_err += _exp_error(e * slope) + 9 * _EPS
        c = _exponent_sum_weights(tables)
        local = math.fsum(g * c)
        # Rounding: the first convolution multiplies by 1, exactly; each
        # later entry sums at most e + 1 positive products, (e + 1) eps;
        # the products with g and the fsum add 2 eps.  Underflow: sums of
        # subnormals are exact, and a product or exp below 2^-1022 loses
        # at most 2^-1075.  v_j[a] = p^a P(a_j = a), a_j being m_j's
        # valuation capped at e, so L_p is the mean of p^min(sum a, e),
        # and an error in a table or convolution entry reaches L_p
        # weighted by such a mean over fewer variables, at most L_p:
        # 2^-1074 relative for each of the 2 r (e + 1) table operations
        # and the products (fewer than steps).  An underflowed g[k] is
        # weighted by c[k].
        underflow = 2.0**-1074 * (
            steps + 2 * r * (e + 1) + math.fsum(c[g < 2.0**-1022]) / local
        )
        rel += entry_err + ((r - 1) * (e + 1) + 2) * _EPS + underflow
        locals_.append(local)
    value = math.prod(zetas) * math.prod(locals_)
    rel += (r + len(locals_)) * _EPS
    bound = value * rel / (1 - rel)
    if not math.isfinite(value + bound):
        raise NumericalError(
            f"the Euler product {value!r} or its bound {bound!r} is not finite"
        )
    return value, bound


# perfbench/tracer.py wraps this function under the name igusa_hurwitz;
# both names bind the same object, so calls through either are traced.
igusa_hurwitz = igusa_euler


def evaluate(
    n: int,
    s: tuple[float, ...] | list[float],
    method: str = "euler",
    tolerance: float = 1e-9,
    truncation: int | None = None,
) -> dict:
    """Evaluate Z(s; n) with the chosen method; returns a plain record.

    tolerance must be positive for either method, though only the Euler
    product tests its bound against it, relative to the value: Z > 1 (the
    term with every m_j = 1 alone is 1), so a bound below tolerance passes.
    """
    if method not in ("euler", "direct"):
        raise DomainError(f"unknown method {method!r}")
    s = _checked_exponents(n, s)
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    if method == "direct":
        trunc = max(n, 10**4) if truncation is None else truncation
        value, tail = igusa_direct(n, s, trunc)
        terms = _direct_steps(n, len(s), trunc)
    else:
        fi = factorize(n)
        value, tail = igusa_euler(fi, s)
        terms = _euler_steps(fi, len(s))
        if tail > tolerance * value:
            raise NumericalError(
                f"the computed error bound {tail:.3g} exceeds the tolerance "
                f"{tolerance:.3g} relative to the value {value:.6g}"
            )
    return {
        "n": n,
        "s": list(s),
        "method": method,
        "value": value,
        "tail_bound": tail,
        "terms_evaluated": terms,
    }
