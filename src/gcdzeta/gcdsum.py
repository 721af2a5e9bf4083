"""The generalized gcd-sum A_r and its coprime companion B_r, exactly.

A_r(n) is the mean of gcd(k_1 ... k_r, n) over all r-tuples of indices in
[1, n]; it is computed three independent ways (brute force over residues,
prime-power product formula, divisor recursion) so each can vouch for the
others.  B_r(n) restricts the tuples to products coprime to n and sums
gcd(k_1 ... k_r - 1, n); it collapses to phi(n)^r tau(n).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# LOOP_GUARD is re-exported: the brute-force loops here are what it guards
from .arith import (  # noqa: F401
    LOOP_GUARD,
    FactoredInteger,
    _check_loop_guard,
    divisors,
    factorize,
)
from .errors import DomainError
from .multfun import binom_multiset, eval_int, phi, tau


def _product_residues(n: int, residues, r: int) -> list[int]:
    """Counts of the r-tuples drawn from residues by their product mod n.

    An r-fold convolution under multiplication mod n, starting from the
    empty product 1: len(residues) inner steps for the first factor and
    at most n len(residues) for each later one.
    """
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


def a_bruteforce(n: int, r: int) -> Fraction:
    """A_r(n) summed from the definition, exactly.

    gcd(k_1 ... k_r, n) depends only on the product mod n, so rather than
    walking all n^r tuples it weights each residue c of the product by
    gcd(c, n) (gcd(0, n) = n), counted by _product_residues over all
    residues: n + (r - 1) n^2 steps, which is what the guard counts.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    _check_loop_guard(n + (r - 1) * n * n, "a_bruteforce")
    dist = _product_residues(n, range(n), r)
    total = sum(cnt * math.gcd(c, n) for c, cnt in enumerate(dist))
    return Fraction(total, n**r)


def a_local_sum(t, k: int, r: int):
    """The local sum sum_{j=0}^{r} C(k+j-1, j) t^j, which is A_r(p^k) at
    t = 1 - 1/p.

    t may be a Fraction (exact value), a float or a float array (float64
    values); every carrier runs the same operations in the same order.
    """
    acc = 0
    power = 1
    for j in range(r + 1):
        acc += binom_multiset(k, j) * power
        power *= t
    return acc


@lru_cache(maxsize=None)
def a_local(p: int, k: int, r: int) -> Fraction:
    """A_r at the prime power p^k, exactly."""
    if k < 1:
        raise DomainError(f"exponent must be >= 1, got {k}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    # Fraction() keeps the carrier type at r = 0, where the sum is the int 1
    return Fraction(a_local_sum(Fraction(p - 1, p), k, r))


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

    As for a_bruteforce: _product_residues counts the products of unit
    tuples by residue c mod n, and c is weighted by gcd(c - 1, n), which
    is n at c = 1.  The guard counts the n steps that find the units,
    then phi(n) + (r - 1) phi(n)^2 convolution steps.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 1:
        raise DomainError(f"B_r is defined for r >= 1, got {r}")
    _check_loop_guard(n, "b_bruteforce")  # one step per residue for the units
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    count = len(units)
    _check_loop_guard(count + (r - 1) * count * count, "b_bruteforce")
    dist = _product_residues(n, units, r)
    return sum(cnt * math.gcd(c - 1, n) for c, cnt in enumerate(dist))


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
    of a.  Evaluated by direct summation; math.gcd(0, n) = n.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if math.gcd(abs(a), n) != 1:
        raise DomainError(f"a = {a} is not a unit mod {n}")
    _check_loop_guard(n, "menon_sum")
    total = 0
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            total += math.gcd((a * k - 1) % n, n)
    return total

