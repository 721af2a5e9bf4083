"""The generalized gcd-sum A_r and its coprime companion B_r, exactly.

A_r(n) is the mean of gcd(k_1 ... k_r, n) over all r-tuples of indices in
[1, n]; it is computed three independent ways (brute force over residues,
prime-power product formula, divisor recursion) so each can vouch for the
others.  B_r(n) restricts the tuples to products coprime to n and sums
gcd(k_1 ... k_r - 1, n); it collapses to phi(n)^r tau(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .arith import FactoredInteger, divisors, factorize
from .errors import DomainError, ResourceError
from .multfun import binom_multiset, eval_int, phi, tau

# Refuse brute-force enumerations beyond this many tuples.
TUPLE_GUARD = 10**8
# The naive tuple loop is only an oracle for the aggregated brute force.
NAIVE_GUARD = 10**7
# menon_sum runs one gcd per k in [1, n]; refuse beyond this many.
MENON_TERM_GUARD = 10**7


@dataclass(frozen=True)
class GcdSumValue:
    """One evaluation of A_r(n), tagged with the algorithm that produced it."""

    n: int
    r: int
    value: Fraction
    method: str

    def __post_init__(self):
        if self.method not in ("bruteforce", "local_formula", "recursion"):
            raise DomainError(f"unknown method {self.method!r}")
        unnormalized = self.value * self.n**self.r
        if unnormalized.denominator != 1 or unnormalized < 0:
            raise DomainError("n^r * value must be a nonnegative integer")
        if not 1 <= self.value <= self.n:
            raise DomainError("value must lie in [1, n]")


def _check_tuple_guard(base: int, r: int, what: str):
    if r < 1 or base < 2:
        return
    # log prefilter keeps base**r from being evaluated at absurd sizes
    if r * math.log10(base) > 9 or base**r > TUPLE_GUARD:
        raise ResourceError(
            f"{what} needs {base}^{r} tuples, above the guard of {TUPLE_GUARD:.0e}"
        )


def a_bruteforce(n: int, r: int) -> Fraction:
    """A_r(n) summed from the definition, exactly.

    Rather than walking all n^r tuples, accumulate the distribution of
    k_1 ... k_r mod n by r-fold convolution of the uniform factor
    distribution under multiplication mod n (O(r n^2) work).  The guard
    still speaks in tuple counts, since that is the quantity being summed.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    if r == 0:
        return Fraction(1)
    _check_tuple_guard(n, r, "a_bruteforce")
    dist = [0] * n
    dist[1 % n] = 1
    for _ in range(r):
        nxt = [0] * n
        for c, cnt in enumerate(dist):
            if cnt:
                for k in range(1, n + 1):
                    nxt[c * k % n] += cnt
        dist = nxt
    total = sum(
        cnt * (math.gcd(c, n) if c else n) for c, cnt in enumerate(dist) if cnt
    )
    return Fraction(total, n**r)


def a_bruteforce_naive(n: int, r: int) -> Fraction:
    """A_r(n) by literally enumerating every tuple.  Cross-check only."""
    if n < 1 or r < 0:
        raise DomainError(f"invalid arguments n={n}, r={r}")
    if r > 0 and n**r > NAIVE_GUARD:
        raise ResourceError(f"naive loop refuses {n}^{r} tuples")
    total = sum(
        math.gcd(math.prod(t), n) for t in product(range(1, n + 1), repeat=r)
    )
    return Fraction(total, n**r)


@lru_cache(maxsize=None)
def a_local(p: int, k: int, r: int) -> Fraction:
    """A_r at the prime power p^k:

        sum_{j=0}^{r} C(k+j-1, j) (1 - 1/p)^j
    """
    if k < 1:
        raise DomainError(f"exponent must be >= 1, got {k}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    t = Fraction(p - 1, p)
    acc = Fraction(0)
    power = Fraction(1)
    for j in range(r + 1):
        acc += binom_multiset(k, j) * power
        power *= t
    return acc


def a_eval(n: int | FactoredInteger, r: int) -> Fraction:
    """A_r(n) via multiplicativity: product of local values over p^k || n."""
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    fi = n if isinstance(n, FactoredInteger) else factorize(n)
    out = Fraction(1)
    for p, k in fi.factors:
        out *= a_local(p, k, r)
    return out


def a_recursion(n: int, r: int) -> Fraction:
    """A_r(n) by the divisor recursion

        A_r(n) = sum_{d | n} phi(d) A_{r-1}(d) / d,  A_0 = 1,

    memoized level by level over the divisor lattice of n (divisors of a
    divisor are again divisors of n, so one table per level suffices).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
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


def b_bruteforce(n: int, r: int) -> int:
    """B_r(n) summed from the definition.

    Aggregates over residues of unit products, mirroring a_bruteforce:
    convolve the unit distribution r times under multiplication mod n,
    then weight residue c by gcd(c - 1, n), with gcd(0, n) = n.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 1:
        raise DomainError(f"B_r is defined for r >= 1, got {r}")
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    _check_tuple_guard(len(units), r, "b_bruteforce")
    dist = [0] * n
    dist[1 % n] = 1
    for _ in range(r):
        nxt = [0] * n
        for c, cnt in enumerate(dist):
            if cnt:
                for k in units:
                    nxt[c * k % n] += cnt
        dist = nxt
    total = 0
    for c, cnt in enumerate(dist):
        if cnt:
            shifted = (c - 1) % n
            total += cnt * (math.gcd(shifted, n) if shifted else n)
    return total


def b_bruteforce_naive(n: int, r: int) -> int:
    """B_r(n) by enumerating unit tuples.  Cross-check only."""
    if n < 1 or r < 1:
        raise DomainError(f"invalid arguments n={n}, r={r}")
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    if len(units) ** r > NAIVE_GUARD:
        raise ResourceError(f"naive loop refuses {len(units)}^{r} tuples")
    total = 0
    for t in product(units, repeat=r):
        m = (math.prod(t) - 1) % n
        total += math.gcd(m, n) if m else n
    return total


def b_closed(n: int, r: int) -> int:
    """B_r(n) in closed form: phi(n)^r tau(n)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 1:
        raise DomainError(f"B_r is defined for r >= 1, got {r}")
    fi = factorize(n)
    return eval_int(phi(), fi) ** r * eval_int(tau(), fi)


def menon_sum(n: int, a: int) -> int:
    """sum of gcd(a k - 1, n) over k in [1, n] with gcd(k, n) = 1.

    Requires gcd(a, n) = 1; the sum then equals phi(n) tau(n) regardless
    of a.  Evaluated by direct summation, with gcd(0, n) = n.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if math.gcd(abs(a), n) != 1:
        raise DomainError(f"a = {a} is not a unit mod {n}")
    if n > MENON_TERM_GUARD:
        raise ResourceError(
            f"menon_sum needs {n} loop iterations, above the guard of "
            f"{MENON_TERM_GUARD:.0e}"
        )
    total = 0
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            m = (a * k - 1) % n
            total += math.gcd(m, n) if m else n
    return total


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
