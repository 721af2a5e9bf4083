"""Integer arithmetic: factorization, the prime sieve, the loop guard,
and the residue convolution mod n with its step count.

Everything here is pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

# The prime sieve (and so primes_upto and primes_in_range) refuses beyond
# this bound.
SIEVE_LIMIT = 10**8
# Refuse any loop predicted to run more steps than this.
LOOP_GUARD = 10**7

# Strong-pseudoprime witnesses making Miller-Rabin deterministic below
# 3.317e24; callers stay far under that (see factorize).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _check_loop_guard(steps: int, what: str) -> None:
    if steps > LOOP_GUARD:
        # a count past Python's int-to-str limit could not be printed
        count = steps if steps < 10**100 else f"about 1e{math.log10(steps):.0f}"
        raise ResourceError(
            f"{what} needs {count} loop steps, above the guard of {LOOP_GUARD:.0e}"
        )


def _convolution_steps(size: int, r: int) -> int:
    """Steps of _residue_convolution over r rows of size nonzero weights:
    size for the first row (or the tables at r = 0), size^2 per later row."""
    return size + max(r - 1, 0) * size * size


def _residue_convolution(n: int, rows) -> np.ndarray:
    """Entry c sums prod_j rows[j][k_j - 1] over the tuples of k_j in 1..n
    with k_1 ... k_r = c (mod n); the empty product is 1.

    Each row adds dist[c] row[k - 1] into (c k) mod n, c over the
    current support and k over the row's nonzero weights, in one
    np.add.at in index order (c ascending, then k).  Float rows keep
    their carrier.  Boolean rows count tuples: a count is at most the
    product of the row supports, and a total weighted by gcds up to n
    at most n times that, so counts are int64 while that stays below
    2^63 and Python ints (dtype=object) beyond.
    """
    ks = [np.flatnonzero(row) + 1 for row in rows]
    if all(row.dtype == bool for row in rows):
        dtype = np.int64 if math.prod(map(len, ks)) * n < 2**63 else object
    else:
        dtype = np.result_type(*rows)
    dist = np.zeros(n, dtype=dtype)
    dist[1 % n] = 1
    for row, k in zip(rows, ks):
        c = np.flatnonzero(dist)
        nxt = np.zeros(n, dtype=dtype)
        np.add.at(nxt, (c[:, None] * k % n).ravel(),
                  (dist[c][:, None] * row[k - 1]).ravel())
        dist = nxt
    return dist


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer with its canonical prime factorization.

    factors is a tuple of (prime, exponent) pairs with strictly increasing
    primes and exponents >= 1; the empty tuple encodes 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.value < 1:
            raise DomainError(f"FactoredInteger value must be positive, got {self.value}")
        prod = 1
        prev = 1
        for p, k in self.factors:
            if p <= prev:
                raise DomainError("prime factors must be strictly increasing")
            if k < 1:
                raise DomainError("exponents must be >= 1")
            prod *= p**k
            prev = p
        if prod != self.value:
            raise DomainError(
                f"factor product {prod} does not reproduce value {self.value}"
            )


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below 3.317e24 (fixed witness set)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite n (Brent's cycle variant).

    The parameter sequence is fixed, so results are deterministic.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ResourceError(f"rho factorization failed for {n}")  # pragma: no cover


# Trial-division prime cache, grown geometrically up to 10**6.
_TRIAL_LIMIT_MAX = 10**6
_trial_primes: list[int] = []
_trial_limit = 0


def _trial_primes_upto(limit: int) -> list[int]:
    global _trial_primes, _trial_limit
    limit = min(limit, _TRIAL_LIMIT_MAX)
    if limit > _trial_limit:
        new_limit = min(max(limit, 2 * _trial_limit, 1000), _TRIAL_LIMIT_MAX)
        # Python ints, not int64: n % p must stay exact for any size of n
        _trial_primes = primes_upto(new_limit)
        _trial_limit = new_limit
    return _trial_primes


def factorize(n: int) -> FactoredInteger:
    """Canonical prime factorization of n >= 1.

    Trial division by sieved primes up to 10**6, then Brent's rho with a
    deterministic primality test for any remaining cofactor.  Rho finds a
    prime factor q in about sqrt(q) <= m^(1/4) steps of a composite
    cofactor m, so a cofactor with m^(1/4) above the loop guard is refused
    before rho starts; below it, rho keeps splitting until every factor
    passes the primality test.
    """
    if not isinstance(n, int):
        raise DomainError(f"factorize expects an integer, got {type(n).__name__}")
    if n < 1:
        raise DomainError(f"factorize expects n >= 1, got {n}")
    value = n
    factors: dict[int, int] = {}
    m = n
    trial = _trial_primes_upto(math.isqrt(n) + 1)
    exhausted = True
    for p in trial:
        if p * p > m:
            exhausted = False
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        # an early break means every prime <= sqrt(m) was tried, so m is
        # prime; after exhaustion the same holds up to the squared bound
        if not exhausted or m <= trial[-1] ** 2 or is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            _check_loop_guard(
                math.isqrt(math.isqrt(m)), f"rho on a {m.bit_length()}-bit cofactor"
            )
            stack = [m]
            while stack:
                c = stack.pop()
                if is_prime(c):
                    factors[c] = factors.get(c, 0) + 1
                    continue
                d = _brent_rho(c)
                stack.append(d)
                stack.append(c // d)
    return FactoredInteger(value, tuple(sorted(factors.items())))


def divisors(n: int | FactoredInteger) -> list[int]:
    """All positive divisors, ascending."""
    fi = n if isinstance(n, FactoredInteger) else factorize(n)
    divs = [1]
    for p, k in fi.factors:
        divs = [d * p**e for d in divs for e in range(k + 1)]
    return sorted(divs)


def gcd_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(divs, idx): the divisors of n ascending (int64), and idx[c] the
    position of gcd(c, n) in divs, c = 0..n-1, 1 byte each (2 if tau(n) >
    256).  By trial division, independent of factorize; idx[::d] = i in
    ascending d leaves each c its largest divisor.  Callers guard n."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divs = np.array(sorted({*low, *(n // d for d in low)}), dtype=np.int64)
    idx = np.zeros(n, dtype=np.min_scalar_type(len(divs) - 1))
    for i, d in enumerate(divs.tolist()):
        idx[::d] = i
    return divs, idx


def prime_array(n: int) -> np.ndarray:
    """All primes <= n as an ascending int64 array: Eratosthenes over the
    odd numbers only, index i standing for 2i + 1, then spread over 0..n
    so the primes are read off as positions, with no int64 arithmetic."""
    if n > SIEVE_LIMIT:
        raise ResourceError(f"sieve limit {n} exceeds guard {SIEVE_LIMIT}")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones((n + 1) // 2, dtype=bool)
    sieve[0] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2 :: p] = False
    flags = np.zeros(n + 1, dtype=bool)
    flags[1::2] = sieve
    flags[2] = True
    return np.flatnonzero(flags).astype(np.int64, copy=False)


def primes_upto(n: int) -> list[int]:
    """All primes <= n as Python ints (exact under big-int arithmetic)."""
    return prime_array(n).tolist()


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p <= hi (strict lower bound, inclusive upper)."""
    if lo < 1:
        raise DomainError(f"lower bound must be >= 1, got {lo}")
    if lo > hi:
        raise DomainError(f"empty range: lo={lo} > hi={hi}")
    ps = prime_array(hi)
    return ps[np.searchsorted(ps, lo, side="right") :].tolist()

