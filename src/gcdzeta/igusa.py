"""The multivariable gcd-weighted zeta function of a cyclic group, for
real exponents s_j > 1.

Counting homomorphisms from Z/nZ into Z/(m_1...m_r)Z gives the weight
gcd(m_1...m_r, n), so the object is

    Z(s_1, ..., s_r; n) = sum over all m_j >= 1 of
                          gcd(m_1...m_r, n) / (m_1^s_1 ... m_r^s_r).

Two evaluators are provided: a truncated direct sum with a rigorous tail
bound, and an exact finite reduction to Hurwitz zeta values (the weight
has period n in each variable, leaving n terms per variable).  They share
nothing beyond gcd, so they can cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DomainError, NumericalError, ResourceError

# Direct summation refuses beyond this many terms.
DIRECT_TERM_GUARD = 10**8
# The Hurwitz reduction enumerates n^r tuples; refuse beyond this.
HURWITZ_TERM_GUARD = 10**7
# Euler-Maclaurin cutoff growth stops here.
_EM_MAX_N = 10**7

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


@dataclass(frozen=True)
class IgusaQuery:
    """One evaluation request: modulus n, real exponents s_j > 1."""

    n: int
    s: tuple[float, ...]
    method: str = "hurwitz"
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if len(self.s) < 1:
            raise DomainError("at least one exponent is required")
        if any(not v > 1 for v in self.s):
            raise DomainError(f"every exponent must be > 1, got {self.s}")
        for j, v in enumerate(self.s, start=1):
            if not math.isfinite(v):
                raise DomainError(f"exponent s_{j} = {v} is not finite")
        if self.method not in ("hurwitz", "direct"):
            raise DomainError(f"unknown method {self.method!r}")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")


def _em_corrections(s: float, base: float, count: int) -> list[float]:
    """Bernoulli correction terms of the Euler-Maclaurin tail at N+a."""
    terms = []
    poch = s
    for i in range(1, count + 1):
        # poch = s (s+1) ... (s + 2i - 2)
        b = float(_BERNOULLI[i - 1]) / math.factorial(2 * i)
        terms.append(b * poch * base ** (-s - 2 * i + 1))
        poch *= (s + 2 * i - 1) * (s + 2 * i)
    return terms


def hurwitz_zeta(s: float, a: float, tolerance: float = 1e-12) -> float:
    """zeta(s, a) = sum_{m >= 0} (m + a)^-s for real s > 1, 0 < a <= 1.

    Direct summation of the first N terms plus the Euler-Maclaurin tail:

        (N+a)^(1-s)/(s-1) + (N+a)^(-s)/2 + Bernoulli corrections.

    N grows until the first omitted Bernoulli term (which bounds the
    remainder for real s) falls below tolerance.
    """
    if not s > 1:
        raise DomainError(f"s must be > 1, got {s}")
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    if not 0 < a <= 1:
        raise DomainError(f"a must lie in (0, 1], got {a}")
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    n_cut = 16
    while True:
        base = n_cut + a
        terms = _em_corrections(s, base, _EM_TERMS + 1)
        if abs(terms[-1]) < tolerance:
            break
        n_cut *= 2
        if n_cut > _EM_MAX_N:
            raise NumericalError(
                f"tolerance {tolerance} unreachable with "
                f"{_EM_TERMS} Bernoulli terms"
            )
    head = math.fsum((m + a) ** -s for m in range(n_cut))
    tail = base ** (1 - s) / (s - 1) + 0.5 * base**-s
    return head + tail + math.fsum(terms[:-1])


def _zeta(s: float) -> float:
    return hurwitz_zeta(s, 1.0)


def igusa_direct(
    n: int, s: tuple[float, ...] | list[float], truncation: int,
) -> tuple[float, float]:
    """Truncated direct sum over all m_j <= truncation, with a tail bound.

    The bound uses gcd <= n on every omitted tuple:

        0 <= Z - Z_truncated <= n (prod_j zeta(s_j) - prod_j S_j),

    S_j being the truncated one-variable sums.  Cost is truncation^r, so
    r is capped at 3.
    """
    s = tuple(float(v) for v in s)
    query = IgusaQuery(n, s, method="direct")
    r = len(s)
    if r > 3:
        raise ResourceError(f"direct summation is limited to r <= 3, got r={r}")
    if truncation < n:
        raise DomainError(f"truncation {truncation} must be >= n = {n}")
    if truncation**r > DIRECT_TERM_GUARD:
        raise ResourceError(
            f"{truncation}^{r} terms exceed the guard of {DIRECT_TERM_GUARD:.0e}"
        )
    nn = query.n
    weights = [
        [float(m) ** -sj for m in range(1, truncation + 1)] for sj in s
    ]
    if r == 1:
        value = math.fsum(
            math.gcd(m, nn) * weights[0][m - 1] for m in range(1, truncation + 1)
        )
    else:
        # gcd depends only on the product's residue mod n
        gcd_of_residue = [math.gcd(c, nn) if c else nn for c in range(nn)]
        chunks = []
        wl = weights[-1]
        for head in product(range(1, truncation + 1), repeat=r - 1):
            w = 1.0
            res = 1
            for j, m in enumerate(head):
                w *= weights[j][m - 1]
                res = res * m % nn
            chunks.append(
                w
                * math.fsum(
                    gcd_of_residue[res * m % nn] * wl[m - 1]
                    for m in range(1, truncation + 1)
                )
            )
        value = math.fsum(chunks)
    full = 1.0
    trunc = 1.0
    for j, sj in enumerate(s):
        full *= _zeta(sj)
        trunc *= math.fsum(weights[j])
    tail_bound = nn * (full - trunc)
    return value, max(tail_bound, 0.0)


def igusa_hurwitz(
    n: int,
    s: tuple[float, ...] | list[float],
    tolerance: float = 1e-9,
) -> float:
    """Exact finite reduction to Hurwitz zeta values:

        Z = n^-(s_1+...+s_r) sum over k_j in [1, n]^r of
            gcd(k_1...k_r, n) zeta(s_1, k_1/n) ... zeta(s_r, k_r/n).

    The weight gcd(., n) has period n in each variable, so n terms per
    variable capture the whole series; only the zeta factors carry any
    truncation error, and each is evaluated well below the share of the
    requested tolerance it could contribute.
    """
    s = tuple(float(v) for v in s)
    query = IgusaQuery(n, s, tolerance=tolerance)
    r = len(s)
    nn = query.n
    if nn**r > HURWITZ_TERM_GUARD:
        raise ResourceError(
            f"{nn}^{r} terms exceed the guard of {HURWITZ_TERM_GUARD:.0e}"
        )
    # crude per-factor magnitude bound: n^-s zeta(s, k/n) <= 1 + zeta(s)
    factor_cap = max(1.0 + _zeta(sj) for sj in s)
    factor_tol = tolerance / (nn**r * nn * r * factor_cap ** max(r - 1, 0))
    factor_tol = min(factor_tol, 1e-12)

    factors = {}
    for j, sj in enumerate(s):
        scale = float(nn) ** -sj
        for k in range(1, nn + 1):
            factors[(j, k)] = scale * hurwitz_zeta(sj, k / nn, factor_tol)
    terms = []
    for ks in product(range(1, nn + 1), repeat=r):
        g = 1
        for k in ks:
            g = g * k % nn
        weight = math.gcd(g, nn) if g else nn
        term = float(weight)
        for j, k in enumerate(ks):
            term *= factors[(j, k)]
        terms.append(term)
    return math.fsum(terms)


def evaluate(query: IgusaQuery, truncation: int | None = None) -> dict:
    """Run a query with its chosen method; returns a plain record."""
    if query.method == "direct":
        if truncation is not None:
            trunc = truncation
        elif len(query.s) == 1:
            trunc = max(query.n, 10**4)
        else:
            trunc = max(query.n, 300)
        value, tail = igusa_direct(query.n, query.s, trunc)
        terms = trunc ** len(query.s)
    else:
        value = igusa_hurwitz(query.n, query.s, query.tolerance)
        tail = query.tolerance
        terms = query.n ** len(query.s)
    return {
        "n": query.n,
        "s": list(query.s),
        "method": query.method,
        "value": value,
        "tail_bound": tail,
        "terms_evaluated": terms,
    }
