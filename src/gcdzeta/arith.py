"""Integer arithmetic: factorization, the prime sieve, the loop guard,
and the product table mod n of every residue brute force.

Everything here is pure and deterministic.
"""

from __future__ import annotations

import functools
import itertools
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
    """Steps of ProductTable.chain over r rows of size weights: size for
    the first row (or the tables at r = 0), size^2 per later row."""
    return size + max(r - 1, 0) * size * size


class ProductTable:
    """The residue table mod n of A_r, B_r, the Menon sums and the direct
    zeta sum, off one gcd_table(n): ks, ascending, are all of 1..n or the
    units, and gcds[c] = gcd(c, n).  Callers guard n and each chain."""

    def __init__(self, n: int, units: bool = False):
        divs, idx = gcd_table(n)
        self.n, self.gcds, ks = n, divs[idx], np.arange(1, n + 1)
        self.ks = ks[idx[ks % n] == 0] if units else ks
        self.residues = self.ks % n if units else ks - 1

    @functools.cached_property
    def products(self) -> np.ndarray:
        """c k mod n, c by row over the residues: 0..n-1, or the units."""
        return self.residues[:, None] * self.ks % self.n

    def chain(self, rows):
        """Yield after each row j the array whose entry c sums, over the
        tuples of ks with k_1 ... k_j = c (mod n), the product of the
        rows' weights (a row weighs ks in order).

        Each row adds dist[c] w[k] into c k mod n in one np.add.at, in
        index order (c ascending, then k): the first from the empty
        product, onto k mod n, the later ones through the table.  A row
        None counts tuples, spread by np.repeat with no multiply: a count
        is at most len(ks)^j and a gcd-weighted total n times that, so
        counts are int64 while that is below 2^63 and Python ints beyond.
        Float rows multiply over their nonzero weights only, so an
        overflowed inf never meets a zero weight."""
        n, size = self.n, len(self.ks)
        for j, row in enumerate(rows, 1):
            if j == 1:
                index = self.ks % n
                values = np.ones(size, dtype=np.int64) if row is None else row
            elif row is None:
                values = dist[self.residues]
                if values.dtype != object and size**j * n >= 2**63:
                    values = values.astype(object)
                index, values = self.products, np.repeat(values, size)
            else:
                k = np.flatnonzero(row)
                index = self.products if len(k) == size else self.products[:, k]
                values = dist[self.residues][:, None] * row[k]
            dist = np.zeros(n, dtype=values.dtype)
            np.add.at(dist, index.ravel(), values.ravel())
            del index, values  # hold no row's temporaries between yields
            yield dist

    def totals(self, shift: int, what: str):
        """Yield, for r = 1, 2, ..., the total of gcd(k_1 ... k_r - shift,
        n) over the r-tuples of ks: the chain's counts weighted by the
        gcds rolled by shift.  Each r first passes the guard on its
        _convolution_steps under the name what."""
        # not np.roll, whose 6 us a call were 7% of verify menon --nmax 300
        weights = self.gcds.take(np.arange(-shift, self.n - shift), mode="wrap")
        chain = self.chain(itertools.repeat(None))
        for r in itertools.count(1):
            _check_loop_guard(_convolution_steps(len(self.ks), r), what)
            yield int((next(chain) * weights).sum())


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


@functools.lru_cache(maxsize=None)
def _trial_primes(limit: int) -> list[int]:
    """The primes up to limit, as Python ints so that n % p stays exact
    for any size of n."""
    return primes_upto(limit)


def _trial_division(m: int, limit: int, factors: dict[int, int]) -> int:
    """Divide the primes up to limit out of m into factors, and return
    what is left of m: 1 once it is settled, else a composite cofactor.

    An early break means every prime up to sqrt(m) was tried, so m is 1
    or prime; once the list is exhausted the same holds up to the last
    prime squared, and past it the primality test decides.
    """
    trial = _trial_primes(limit)
    for p in trial:
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    else:
        if m > trial[-1] ** 2 and not is_prime(m):
            return m
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return 1


def factorize(n: int | FactoredInteger) -> FactoredInteger:
    """Canonical prime factorization of n >= 1; a FactoredInteger, which
    was validated when it was built, is returned as it is.

    Trial division by the primes up to 2^10, then Brent's rho with a
    deterministic primality test for any remaining composite cofactor.
    Rho finds a prime factor q in about sqrt(q) <= m^(1/4) steps of a
    composite cofactor m, so only a cofactor with m^(1/4) above the loop
    guard goes on to trial division by the primes up to 10^6 (each list
    one cached sieve); what that leaves is refused before rho starts if
    it still passes the guard.  Below it, rho keeps splitting until every
    factor passes the primality test.
    """
    if isinstance(n, FactoredInteger):
        return n
    if not isinstance(n, int):
        raise DomainError(f"factorize expects an integer, got {type(n).__name__}")
    if n < 1:
        raise DomainError(f"factorize expects n >= 1, got {n}")
    factors: dict[int, int] = {}
    m = _trial_division(n, 2**10, factors)
    if math.isqrt(math.isqrt(m)) > LOOP_GUARD:
        m = _trial_division(m, 10**6, factors)
        _check_loop_guard(
            math.isqrt(math.isqrt(m)), f"rho on a {m.bit_length()}-bit cofactor"
        )
    stack = [m] if m > 1 else []
    while stack:
        c = stack.pop()
        if is_prime(c):
            factors[c] = factors.get(c, 0) + 1
            continue
        d = _brent_rho(c)
        stack.append(d)
        stack.append(c // d)
    return FactoredInteger(n, tuple(sorted(factors.items())))


def divisors(n: int | FactoredInteger) -> list[int]:
    """All positive divisors, ascending."""
    divs = [1]
    for p, k in factorize(n).factors:
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
    odd numbers only, index i standing for 2i + 1, read off in place,
    with index 0 (for 1) read as 2."""
    if n > SIEVE_LIMIT:
        raise ResourceError(f"sieve limit {n} exceeds guard {SIEVE_LIMIT}")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones((n + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(n) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2 :: p] = False
    primes = np.flatnonzero(sieve).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


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

