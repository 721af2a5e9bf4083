"""Multiplicative arithmetic functions as prime-power local functions.

A multiplicative function is pinned down by its values at prime powers:
f(1) = 1 and f(n) is the product of f(p^k) over the factorization of n.
So each one here is its local function (p, k) -> f(p^k), and eval_int
gives f(n).  Two are defined, the ones the paper's identities compute
with: Euler's phi (B_r = phi^r tau, Menon) and the Piltz tau_k
(A_r = tau_{r+1} * f_r).  Both take integer values, so their local
functions return plain ints; eval_int multiplies whatever the local
values are, so a function with rational local values gives a Fraction.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .arith import FactoredInteger, factorize
from .errors import DomainError


@functools.lru_cache(maxsize=1024)  # tau_k and a_local_sum repeat few (n, k)
def binom_multiset(n: int, k: int) -> int:
    """Number of k-multisets drawn from n >= 1 symbols: C(n+k-1, k)."""
    if n < 1 or k < 0:
        raise DomainError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    return math.comb(n + k - 1, k)


def eval_int(local: Callable[[int, int], int], n: int | FactoredInteger) -> int:
    """f(n) for the multiplicative f with f(p^k) = local(p, k): the
    product of the local values over the factorization of n.

    The product starts from the int 1 and takes the local values' type.
    """
    return math.prod(local(p, k) for p, k in factorize(n).factors)


def phi(p: int, k: int) -> int:
    """Euler's totient at p^k: p^k - p^(k-1)."""
    return p**k - p ** (k - 1)


def tau_k(m: int) -> Callable[[int, int], int]:
    """The local function of the Piltz divisor function tau_m, which
    counts ordered factorizations into m parts.

    tau_m(p^k) counts the k-multisets of m symbols, C(k + m - 1, k),
    computed directly rather than by repeated convolution so large
    exponents stay O(1).
    """
    if m < 1:
        raise DomainError(f"tau_k order must be >= 1, got {m}")
    return lambda p, k: binom_multiset(m, k)
