"""The correction factor linking A_r to the (r+1)-fold divisor function.

A_r factors as tau_{r+1} * f_r under Dirichlet convolution.  The local
values f_r(p^k) are polynomials in u = 1/p with integer coefficients; they
vanish identically for k >= r+1 and have zero constant term for k <= r,
which is what makes the associated Dirichlet series converge on Re(s) > 0.
Those vanishing statements are exact polynomial identities, so the
polynomials are kept with integer coefficients rather than floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .multfun import binom


@dataclass(frozen=True)
class LocalPolynomial:
    """Integer-coefficient polynomial in u = 1/p, coefficients ascending.

    Trailing zeros are trimmed; the zero polynomial is the empty tuple.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def constant_term(self) -> int:
        return self.coefficients[0] if self.coefficients else 0

    def evaluate(self, u: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * u + c
        return acc

    def __add__(self, other: "LocalPolynomial") -> "LocalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return LocalPolynomial(tuple(out))

    def scaled(self, c: int) -> "LocalPolynomial":
        return LocalPolynomial(tuple(c * x for x in self.coefficients))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                var = "u" if i == 1 else f"u^{i}"
                term = f"{'-' if c < 0 else ''}{mag}{var}"
                if parts:
                    term = f"+ {mag}{var}" if c > 0 else f"- {mag}{var}"
            parts.append(term)
        return " ".join(parts)


@lru_cache(maxsize=None)
def _one_minus_u_pow(j: int) -> LocalPolynomial:
    """(1 - u)^j expanded with exact integer coefficients."""
    return LocalPolynomial(
        tuple((-1 if i % 2 else 1) * binom(j, i) for i in range(j + 1))
    )


@lru_cache(maxsize=None)
def f_r_local(r: int, k: int) -> LocalPolynomial:
    """f_r(p^k) as a polynomial in u = 1/p:

        sum_{j=0}^{r} (1-u)^j  sum_{l=0}^{k} (-1)^l C(r+1, l) C(j+k-l-1, j)

    Degree is at most r; the polynomial is identically zero once k > r.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    total = LocalPolynomial(())
    for j in range(r + 1):
        inner = sum(
            (-1 if l % 2 else 1) * binom(r + 1, l) * binom(j + k - l - 1, j)
            for l in range(k + 1)
        )
        if inner:
            total = total + _one_minus_u_pow(j).scaled(inner)
    return total


def verify_fr_structure(r: int, k_max: int) -> list[str]:
    """Audit the vanishing and cancellation structure of f_r up to k_max.

    Checks, per k: identically zero once k >= r+1, zero constant term for
    k <= r, and degree at most r.  Returns one message per violated
    (r, k); the empty list means the audit passed.
    """
    if r < 1 or k_max < 1:
        raise DomainError(f"r and k_max must be >= 1, got r={r}, k_max={k_max}")
    failures = []
    for k in range(1, k_max + 1):
        poly = f_r_local(r, k)
        if k >= r + 1 and not poly.is_zero:
            failures.append(f"(r={r}, k={k}): expected zero polynomial")
        if k <= r and poly.constant_term != 0:
            failures.append(f"(r={r}, k={k}): constant coefficient nonzero")
        if poly.degree > r:
            failures.append(f"(r={r}, k={k}): degree {poly.degree} > {r}")
    return failures
