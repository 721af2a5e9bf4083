"""gcdzeta: exact gcd-sum functions and their analytic companions.

The package computes the normalized gcd-sum A_r(n), the coprime companion
B_r(n) with its Menon-type closed form, the Dirichlet-convolution
structure tying A_r to the Piltz divisor function, sieved summatory scans
with main-term fitting, maximal-order probes, and the gcd-weighted
multivariable zeta function of a cyclic group.  Every identity is backed
by an independent brute-force oracle in the test suite.
"""

from .arith import FactoredInteger, factorize
from .errors import DomainError, NumericalError, ResourceError
from .gcdsum import (a_bruteforce, a_eval, a_recursion, b_bruteforce, b_closed,
                     menon_sum)

__all__ = [
    "FactoredInteger",
    "factorize",
    "DomainError",
    "NumericalError",
    "ResourceError",
    "a_bruteforce",
    "a_eval",
    "a_recursion",
    "b_bruteforce",
    "b_closed",
    "menon_sum",
]

__version__ = "0.1.0"
