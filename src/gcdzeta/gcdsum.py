"""The generalized gcd-sum A_r and its coprime companion B_r, exactly.

A_r(n) is the mean of gcd(k_1 ... k_r, n) over all r-tuples of indices in
[1, n]; it is computed three independent ways (brute force over residues,
prime-power product formula, divisor recursion) so each can vouch for the
others.  The product formula and the recursion work on the integer total
n^r A_r(n) and form one Fraction at the end.  B_r(n) restricts the tuples
to products coprime to n and sums gcd(k_1 ... k_r - 1, n); it collapses
to phi(n)^r tau(n).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (FactoredInteger, ProductTable, _check_loop_guard,
                    _convolution_steps, divisors, factorize, gcd_table)
from .errors import DomainError
from .multfun import binom_multiset, eval_int, phi, tau_k

# residues per block of menon_sum: at n near 1e6 a block's int64
# temporaries peak at 0.2 MB, against 1.5 MB at 2^16, in the same 11 ms
# at a prime; 2^12 is 12% slower at n = 8648640 (medians of 15
# in-process runs; 2-vCPU x86-64, Python 3.11)
_BLOCK = 1 << 13


def a_bruteforce(n: int, r: int) -> Fraction:
    """A_r(n) summed from the definition, exactly: the r-th of
    ProductTable(n).totals at shift 0 over n^r.  The guard counts its
    _convolution_steps before the table is built."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    _check_loop_guard(_convolution_steps(n, r), "a_bruteforce")
    if r == 0:  # the empty product 1, and gcd(1, n) = 1
        return Fraction(1)
    totals = ProductTable(n).totals(0, "a_bruteforce")
    return Fraction(next(itertools.islice(totals, r - 1, None)), n**r)


def a_local_sum(t, k: int, r: int, s=1):
    """The local sum sum_{j=0}^{r} C(k+j-1, j) t^j s^(r-j), which is
    A_r(p^k) at t = 1 - 1/p and s = 1, and p^r A_r(p^k) at the ints
    t = p - 1 and s = p.

    t may be a Fraction (exact value), an int (the sum as a polynomial in
    u = 1 - t, at an integer u, as verify fr-vanishing evaluates it), a
    float or a float array (float64 values); every carrier runs the same
    operations in the same order, and at s = 1 each term is multiplied
    by the int 1, which leaves a float unchanged.
    """
    acc = 0
    power = 1
    for j in range(r + 1):
        acc += binom_multiset(k, j) * power * s ** (r - j)
        power *= t
    return acc


@lru_cache(maxsize=None)
def a_local_numerator(p: int, k: int, r: int) -> int:
    """p^(kr) A_r(p^k), the total of gcd(k_1 ... k_r, p^k) over the
    p^(kr) tuples, exactly."""
    if k < 1:
        raise DomainError(f"exponent must be >= 1, got {k}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    return a_local_sum(p - 1, k, r, p) * p ** ((k - 1) * r)


def a_numerator(n: int | FactoredInteger, r: int) -> int:
    """n^r A_r(n), the total of gcd(k_1 ... k_r, n) over the n^r tuples:
    the product of the local numerators over p^k || n."""
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    return math.prod(a_local_numerator(p, k, r) for p, k in factorize(n).factors)


def a_eval(n: int | FactoredInteger, r: int) -> Fraction:
    """A_r(n) via multiplicativity, reduced once: a_numerator over n^r."""
    if r < 0:  # before factorize, which may refuse a hard n
        raise DomainError(f"r must be >= 0, got {r}")
    fi = factorize(n)
    return Fraction(a_numerator(fi, r), fi.value**r)


def a_recursion(n: int, r: int) -> Fraction:
    """A_r(n) by the divisor recursion

        A_r(n) = sum_{d | n} phi(d) A_{r-1}(d) / d,  A_0 = 1,

    run on the integer numerators N_j(d) = d^j A_j(d), as

        N_j(d) = sum_{e | d} phi(e) (d/e)^j N_{j-1}(e),  N_0 = 1,

    memoized level by level over the divisor lattice of n (divisors of a
    divisor are again divisors of n, so one table per level suffices).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    divs = divisors(n)
    phis = {d: eval_int(phi, d) for d in divs}
    sub = {d: [e for e in divs if d % e == 0] for d in divs}
    level = dict.fromkeys(divs, 1)
    for j in range(1, r + 1):
        level = {
            d: sum(phis[e] * (d // e) ** j * level[e] for e in sub[d])
            for d in divs
        }
    return Fraction(level[n], n**r)


def b_bruteforce(n: int, r: int) -> int:
    """B_r(n) summed from the definition: the r-th of ProductTable(n,
    units=True).totals at shift 1.  The guard counts the n steps that
    find the units, then the chain's steps over phi(n) units."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 1:
        raise DomainError(f"B_r is defined for r >= 1, got {r}")
    _check_loop_guard(n, "b_bruteforce")  # one step per residue for the units
    table = ProductTable(n, units=True)
    _check_loop_guard(_convolution_steps(len(table.ks), r), "b_bruteforce")
    return next(itertools.islice(table.totals(1, "b_bruteforce"), r - 1, None))


def b_closed(n: int | FactoredInteger, r: int) -> int:
    """B_r(n) in closed form: phi(n)^r tau(n)."""
    if isinstance(n, int) and n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r < 1:  # before factorize, which may refuse a hard n
        raise DomainError(f"B_r is defined for r >= 1, got {r}")
    fi = factorize(n)
    return eval_int(phi, fi) ** r * eval_int(tau_k(2), fi)


def menon_sums(table: ProductTable) -> list[int]:
    """menon_sum(n, a) at each unit a of a units table, ascending: each
    row of its products weighted by gcd(c - 1, n); guarded by len(ks) n
    steps, the sum of menon_sum's n per unit."""
    _check_loop_guard(len(table.ks) * table.n, "menon_sum")
    weights = table.gcds.take(np.arange(-1, table.n - 1), mode="wrap")
    return weights[table.products].sum(axis=1).tolist()


def menon_sum(n: int, a: int) -> int:
    """sum of gcd(a k - 1, n) over k in [1, n] with gcd(k, n) = 1, for
    the unit a.

    It equals phi(n) tau(n) whatever the unit.  Evaluated by direct
    summation over gcd_table(n): the residues k mod n run in blocks of
    _BLOCK, and each unit k (idx[k] = 0) adds divs[idx[(a k - 1) mod n]].
    The guard counts n steps before the table is built, so n <= 1e7 and,
    with a reduced mod n, a k < 1e14 is exact in int64.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if math.gcd(a, n) != 1:
        raise DomainError(f"a = {a} is not a unit mod {n}")
    _check_loop_guard(n, "menon_sum")
    divs, idx = gcd_table(n)
    a %= n
    total = 0
    for start in range(0, n, _BLOCK):
        k = np.flatnonzero(idx[start : start + _BLOCK] == 0) + start
        total += int(divs[idx[(a * k - 1) % n]].sum())
    return total
