"""The correction factor linking A_r to the (r+1)-fold divisor function.

A_r factors as tau_{r+1} * f_r under Dirichlet convolution.  The local
values f_r(p^k) are polynomials in u = 1/p with integer coefficients, in
closed form sum_{i=1}^{r+1-k} (-1)^(k+i+1) C(r+1, k+i) u^i; they vanish
identically for k >= r+1 and have zero constant term for k <= r, which
is what makes the associated Dirichlet series converge on Re(s) > 0.
Those vanishing statements are exact polynomial identities, so each
polynomial is kept as its tuple of integer coefficients, ascending in u,
ending in a nonzero one: the zero polynomial is ().  verify_fr_structure
checks the convolution itself against gcdsum.a_local_sum.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .gcdsum import a_local_sum
from .multfun import binom_multiset


def format_poly(coeffs: tuple[int, ...]) -> str:
    """An ascending coefficient tuple in u, as text: "4u - u^2"; "0" for ()."""
    parts = []
    for i, c in enumerate(coeffs):
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
    return " ".join(parts) if parts else "0"


def f_r_local(r: int, k: int) -> tuple[int, ...]:
    """f_r(p^k) as the coefficient tuple of a polynomial in u = 1/p.

    With x marking the exponent, sum_k A_r(p^k) x^k is
    1 + x sum_{j=0}^{r} (1-u)^j (1-x)^-(j+1), and tau_{r+1} contributes
    (1-x)^-(r+1), so f_r(p^k) is the x^k coefficient of
    (1-x)^(r+1) + x sum_j (1-u)^j (1-x)^(r-j):

        (-1)^k [C(r+1, k) - sum_{j=0}^{r} C(r-j, k-1) (1-u)^j].

    Expanding (1-u)^j, u^i collects (-1)^i sum_j C(r-j, k-1) C(j, i),
    which is (-1)^i C(r+1, k+i) by Vandermonde's identity.  So the
    constant terms cancel, c_i = (-1)^(k+i+1) C(r+1, k+i) for i >= 1,
    and the top coefficient, at i = r+1-k, is +-1: the degree is
    r+1-k <= r, and the polynomial is identically zero once k > r.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > r:
        return ()
    return (0, *((-1) ** (k + i + 1) * math.comb(r + 1, k + i)
                 for i in range(1, r + 2 - k)))


def verify_fr_structure(r: int, k_max: int) -> dict[int, str]:
    """Check A_r = tau_{r+1} * f_r at p^k for k = 1..k_max.

    With f_r(p^0) = 1, both sides are integer polynomials in u = 1/p:
    a_local_sum at t = 1 - u, and sum_{i<=k} C(r+k-i, k-i) f_r(p^i).
    Their degree is at most D, the larger of r and every tuple's degree,
    so agreeing at u = 0..D, where each tuple is evaluated once, they are
    equal.  Returns what failed, by k: {} means it passed.
    """
    if r < 1 or k_max < 1:
        raise DomainError(f"r and k_max must be >= 1, got r={r}, k_max={k_max}")
    fr = {0: (1,)} | {i: c for i in range(1, k_max + 1)
                      if (c := f_r_local(r, i))}
    points = range(max(r, *(len(c) - 1 for c in fr.values())) + 1)
    at = {i: [sum(c * u**j for j, c in enumerate(t)) for u in points]
          for i, t in fr.items()}
    failures = {}
    for k in range(1, k_max + 1):
        terms = [(binom_multiset(r + 1, k - i), v) for i, v in at.items()
                 if i <= k]
        bad = [u for u in points if a_local_sum(1 - u, k, r)
               != sum(b * v[u] for b, v in terms)]
        if bad:
            failures[k] = (f"(r={r}, k={k}): A_{r}(p^{k}) != (tau_{r + 1} * "
                           f"f_{r})(p^{k}) at u = {bad[0]}")
    return failures
