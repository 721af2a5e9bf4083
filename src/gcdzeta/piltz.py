"""D_k(x), the summatory function of the Piltz divisor function tau_k,
exactly at a list of points.

Each point c is either read off the Dirichlet hyperbola on its floor grid
{c // m}, or chained from the point before it by a segment sum of tau_k
over the numbers between them, whichever a cost model puts cheaper: at
the default 40 points every point is read, and where points crowd, as at
hundreds of them by 1e8, the near ones are chained.  The hyperbola reads
tau_j up to y, about 2 x^(2/3), from a table (no sieve to x, no value
table of x entries) and takes every larger grid value one level of a
doubling chain tau_1 -> tau_k at a time, vectorized over the whole grid.
Segments are sieved in windows of _SEGMENT numbers.  Both count in
uint64 mod 2^64 and, past 2^64, mod primes below 2^24 joined by the
Chinese remainder theorem against a float64 estimate.  Only tau scans
import this module, so no other command compiles it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .arith import _check_loop_guard, is_prime
from .errors import NumericalError, ResourceError
from .multfun import tau_k

# D_k is counted up to this many.  A pair of the floor grid sums isqrt(x)
# terms, below 2^14 here, each below 2^49 mod a prime below 2^24, so a
# pair's sum mod such a prime stays below 2^63 before it is reduced.
_X_MAX = 10**8
_CHUNK = 2**16  # _floor_grid's terms go in chunks of this many
_SEGMENT = 2**20  # _segment_sums sieves windows of this many numbers
# divisor_sums' tables reach this many times M^(2/3), M the checkpoints'
# sum (about 2 x^(2/3) at 40 checkpoints, where a table entry and a grid
# term cost about the same), and at most _TABLE_MAX entries
_TABLE_SCALE = 0.6
_TABLE_MAX = 2**20
# the largest odd number below 2^24, where divisor_sums' residue primes
# start going down
_RESIDUE_PRIME = 2**24 - 1
# a residue sum that far off its float64 estimate, relatively, is refused
_ESTIMATE_TOL = 1e-6
# the floor grid's index arrays take 6 bytes a term: at most 48 MB
_GRID_TERMS = 2**23
# A pass of the hyperbola (one chain level in one column) takes about
# 180 us, 14.5 ns per table entry and 10 ns per floor-grid term; the
# build takes two passes (fit over x = 1e6 to 1e8, 5 to 2000
# checkpoints, k = 2 to 171, within 0.75-1.8 of each run; 2-vCPU x86-64,
# Python 3.11, numpy 2.4):
# 700 loop-guard steps, plus one per this many entries and terms.
_LEVEL_STEPS = 700
_ENTRIES_PER_STEP = 16
_TERMS_PER_STEP = 24
# A segment sum takes 27-31 ns a number to sieve plus about 4 ns a
# number per column (x = 1e7 to 1e8, same box), and a step is about
# 240 ns: steps per this many numbers.
_SIEVED_PER_STEP = 8
_LOOKED_UP_PER_STEP = 60

# n's code has one digit per exponent e = 1..26, counting the primes p
# with p^e || n, _WIDTHS[e - 1] bits wide.  For n <= 1e8 no digit
# carries: 2^26 <= 1e8 < 2^27, and the largest counts are 8 (e = 1:
# 2 3 ... 19 <= 1e8 < 2 3 ... 23), 5 (e = 2), 4 (e = 3), 3 (e = 4, 5),
# 2 (e = 6..10: 6^10 <= 1e8 < 6^11) and 1.
_WIDTHS = (4, 3, 3, 2) + (2,) * 6 + (1,) * 16
_SHIFTS = tuple(sum(_WIDTHS[:i]) for i in range(len(_WIDTHS)))
# the digits of exponents 1..4 take the low 12 bits; n has a digit above
# them only when some p^5 divides it, for about 1 n in 28
_LOW_DIGITS = 4
_LOW_BITS = _SHIFTS[_LOW_DIGITS]
# at a multiple of p^e, one count moves from digit e - 1 to digit e
_CODE_STEPS = (1,) + tuple((1 << b) - (1 << a)
                           for a, b in zip(_SHIFTS, _SHIFTS[1:]))


def _codes(lo: int, hi: int, primes: list[int] | None = None) -> np.ndarray:
    """The code of each n in lo..hi - 1 (hi - 1 <= _X_MAX), as int64: the
    multiset of n's prime exponents, on which tau_j(n) alone depends (see
    _WIDTHS).  primes holds every prime up to isqrt(hi - 1), or is None
    for lo = 0, when each is found as the entry no smaller prime has
    touched.  The code of 0 reads as that of 1.

    A strided add per prime power p^e up to hi - 1 moves n's count of p
    to digit e, and one more at digit 1 is added where a prime above
    isqrt(hi - 1) is left in n."""
    top = math.isqrt(hi - 1)
    code = np.zeros(hi - lo, dtype=np.int64)
    part = np.ones(hi - lo, dtype=np.int32)  # n's part over p <= top
    for p in range(2, top + 1) if primes is None else primes:
        if p > top:
            break
        if primes is None and code[p]:
            continue
        pe, e = p, 0
        while pe < hi:
            code[-lo % pe :: pe] += _CODE_STEPS[e]
            part[-lo % pe :: pe] *= p
            pe, e = pe * p, e + 1
    code += np.arange(lo, hi, dtype=np.int32) > part
    if not lo:
        code[0] = 0
    return code


@dataclass(frozen=True)
class _Shapes:
    """Codes (_codes) split for _tau_values: low holds each code's low
    _LOW_BITS bits, and the rare entries, those with a digit above them,
    have the high part highs[high_of[i]], as (exponent, count) pairs."""

    low: np.ndarray
    rare: np.ndarray
    high_of: np.ndarray
    highs: list[list[tuple[int, int]]]


def _shapes(code: np.ndarray) -> _Shapes:
    rare = np.flatnonzero(code >> _LOW_BITS)
    highs, high_of = np.unique(code[rare] >> _LOW_BITS, return_inverse=True)
    digits = [[(e, c >> _SHIFTS[e - 1] - _LOW_BITS & (1 << _WIDTHS[e - 1]) - 1)
               for e in range(_LOW_DIGITS + 1, len(_WIDTHS) + 1)]
              for c in highs.tolist()]
    return _Shapes((code & (1 << _LOW_BITS) - 1).astype(np.int16), rare,
                   high_of, [[(e, c) for e, c in d if c] for d in digits])


def _tau_values(shapes: _Shapes, j: int, dtype, mod: int | None
                ) -> np.ndarray:
    """tau_j of each number of shapes in one arithmetic: float64 (mod
    None), uint64 wrapping mod 2^64 (mod None) or uint64 mod a prime
    below 2^24.  tau_j(n) is the product over p^e || n of tau_j(p^e),
    from multfun.tau_k, which does not depend on p."""
    loc = tau_k(j)

    def reduced(v):
        return float(v) if dtype is np.float64 else v % (mod or 1 << 64)

    def times(a, b):
        return a * b % dtype(mod) if mod else a * b

    low = np.ones(1, dtype=dtype)  # tau_j at every code below 2^_LOW_BITS
    for e, width in enumerate(_WIDTHS[:_LOW_DIGITS], 1):
        digit = np.array([reduced(loc(2, e) ** c) for c in range(1 << width)],
                         dtype=dtype)
        low = times(digit[:, None], low[None, :]).ravel()
    out = low[shapes.low]
    if shapes.rare.size:
        high = np.array([reduced(math.prod(loc(2, e) ** c for e, c in h))
                         for h in shapes.highs], dtype=dtype)
        out[shapes.rare] = times(out[shapes.rare], high[shapes.high_of])
    return out


@dataclass(frozen=True)
class _FloorGrid:
    """The hyperbola's index arrays for one checkpoint list and table
    size y (see _tau_column): pair g, a (c, m) with c // m > y, is entry
    y + 1 + g of a level's values X.  Its terms n = 1..roots[g] are
    ns[starts[g]:starts[g + 1]], and at holds the index in X of each
    D(c // (m n)).  chunks are (pairs, terms) slices of about _CHUNK
    terms each; points[i] is the index in X of D(cps[i])."""

    values: np.ndarray  # c // m, the grid of D_1
    roots: np.ndarray  # isqrt(c // m)
    starts: np.ndarray
    ns: np.ndarray
    at: np.ndarray
    chunks: list[tuple[slice, slice]]
    points: np.ndarray


def _floor_grid(cps: list[int], y: int, guard) -> _FloorGrid:
    """The grid of the checkpoints above y, pairs (c, m) for m up to
    c // (y + 1), in checkpoint order; c // (m n) > y exactly when
    m n <= c // (y + 1), and then it is pair (c, m n)'s value.

    guard(terms) sees the count of terms before any term is made."""
    cs = np.array([c for c in cps if c > y], dtype=np.int64)
    lens = cs // (y + 1)
    offs = np.cumsum(lens) - lens
    c = np.repeat(cs, lens)
    m = np.arange(c.size) - np.repeat(offs, lens) + 1
    top = np.repeat(lens, lens)
    base = np.repeat(y + offs, lens)  # pair (c, q) sits at base + q
    values = c // m
    roots = np.sqrt(values).astype(np.int64)
    roots -= roots * roots > values
    roots += (roots + 1) ** 2 <= values
    starts = np.concatenate([[0], np.cumsum(roots)])
    total = int(starts[-1])
    guard(total)
    edges = np.searchsorted(starts, np.arange(0, total, _CHUNK)).tolist()
    edges = sorted({*edges, c.size})
    ns = np.empty(total, dtype=np.int16)  # n <= isqrt(_X_MAX) < 2^15
    at = np.empty(total, dtype=np.int32)
    chunks = []
    for lo, hi in zip(edges, edges[1:]):
        terms = slice(int(starts[lo]), int(starts[hi]))
        pair = np.repeat(np.arange(lo, hi), roots[lo:hi])
        n = np.arange(terms.stop - terms.start) + 1
        n -= np.repeat(starts[lo:hi] - terms.start, roots[lo:hi])
        q = m[pair] * n
        ns[terms] = n
        at[terms] = np.where(q <= top[pair], base[pair] + q, c[pair] // q)
        chunks.append((slice(lo, hi), terms))
    points = np.array(cps, dtype=np.int64)
    points[points > y] = y + 1 + offs
    return _FloorGrid(values, roots, starts, ns, at, chunks, points)


def _hyperbola_steps(entries: int, terms: int, levels: int,
                     columns: int) -> int:
    """Loop-guard steps of the hyperbola over a table of entries entries
    and a floor grid of terms terms: one pass over both per chain level
    per column, and two to build them."""
    per_pass = (entries // _ENTRIES_PER_STEP + terms // _TERMS_PER_STEP
                + _LEVEL_STEPS)
    return (levels * columns + 2) * per_pass


def _tau_chain(k: int) -> list[int]:
    """The orders tau_k is reached through from tau_1: each doubles the
    one before (tau_2j = tau_j * tau_j) or adds one (tau_(j+1) =
    tau_j * tau_1), by the binary digits of k."""
    chain = [1]
    for bit in bin(k)[3:]:
        chain.append(2 * chain[-1])
        if bit == "1":
            chain.append(chain[-1] + 1)
    return chain


def _tau_column(grid: _FloorGrid, table: _Shapes, chain: list[int],
                dtype, mod: int | None) -> np.ndarray:
    """D_k at the grid's checkpoints in one arithmetic (see _tau_values).

    A level's values X are D_j(0..y), the prefix sums of tau_j over the
    table's shapes (of n = 0..y), and then D_j at the
    grid's pairs, each by the hyperbola

        D_(a+b)(v) = sum_{n <= s} tau_a(n) D_b(v // n)
                   + sum_{n <= s} tau_b(n) D_a(v // n) - D_a(s) D_b(s),

    s = isqrt(v), every D_b(v // n) read from X_b (mod p, see _X_MAX).
    """
    n_max = grid.roots.max(initial=0)  # the terms read tau_j(n <= n_max)

    def level(j, pairs):
        tau = _tau_values(table, j, dtype, mod)
        tau[0] = 0
        x = np.empty(tau.size + pairs.size, dtype=dtype)
        d = np.cumsum(tau, out=x[: tau.size])
        if mod:
            d %= dtype(mod)
        x[tau.size :] = pairs
        return tau[: n_max + 1].copy(), x

    values = grid.values.astype(dtype)
    one = level(1, values % dtype(mod) if mod else values)
    tau_a, x_a = one
    for j, nxt in zip(chain, chain[1:]):
        tau_b, x_b = (tau_a, x_a) if nxt == 2 * j else one
        pairs = np.empty(grid.roots.size, dtype=dtype)
        for span, terms in grid.chunks:
            n, at = grid.ns[terms], grid.at[terms]
            part = tau_a[n] * x_b[at]
            if x_b is x_a:
                part += part
            else:
                part += tau_b[n] * x_a[at]
            pairs[span] = np.add.reduceat(
                part, grid.starts[span] - terms.start)
        corr = x_a[grid.roots] * x_b[grid.roots]
        if mod:
            p = dtype(mod)
            pairs = (pairs % p + p - corr % p) % p
        else:
            pairs -= corr
        tau_a, x_a = level(nxt, pairs)
    return x_a[grid.points]


def _segment_sums(k: int, segments: list[tuple[int, int]],
                  primes: list[int], columns: list[tuple]) -> list[np.ndarray]:
    """For each column (dtype, mod), see _tau_values, the sum of tau_k(n)
    over lo < n <= hi for each (lo, hi) of segments, ascending and
    disjoint: uint64 sums wrap mod 2^64, and sums mod a prime p < 2^24
    are left unreduced, below 2^51 (p 1e8), for the caller to reduce.
    Each run of adjoining segments is sieved _SEGMENT numbers at a time,
    with primes every prime up to isqrt of the last hi."""
    los = np.array([lo for lo, _ in segments], dtype=np.int64) + 1
    his = np.array([hi for _, hi in segments], dtype=np.int64) + 1
    sums = [np.zeros(len(segments), dtype=dtype) for dtype, _ in columns]
    ends = np.flatnonzero(los[1:] != his[:-1]).tolist()
    for first, last in zip([0] + [e + 1 for e in ends],
                           ends + [len(segments) - 1]):
        for lo in range(int(los[first]), int(his[last]), _SEGMENT):
            hi = min(lo + _SEGMENT, int(his[last]))
            shapes = _shapes(_codes(lo, hi, primes))
            a = int(np.searchsorted(his, lo, side="right"))
            b = int(np.searchsorted(los, hi))
            starts = np.maximum(los[a:b], lo) - lo
            for total, column in zip(sums, columns):
                total[a:b] += np.add.reduceat(
                    _tau_values(shapes, k, *column), starts)
    return sums


def _table_size(cps: list[int]) -> int:
    """The tau_j tables' last entry y for the checkpoints cps: the grid
    has about 2 sum(c) / sqrt(y) terms, so y grows with the checkpoints'
    sum; at least sqrt(x), so a level reads D_a(s) from it, and at most
    x, x = cps[-1]."""
    y = int(_TABLE_SCALE * sum(cps) ** (2 / 3))
    return min(cps[-1], max(math.isqrt(cps[-1]), min(y, _TABLE_MAX)))


def _plan(cps: list[int], y: int, levels: int, columns: int,
          budget: int) -> list[bool]:
    """Which checkpoints the hyperbola reads (True) and which are
    chained from the one before by a segment sum (False), the first
    from 0, for columns columns within budget loop-guard steps.

    A checkpoint c above y is read when its grid, at most 2 sqrt(c L)
    terms for its L = c // (y + 1) pairs (sum over m <= L of
    sqrt(c / m)), costs fewer steps over the chain than its segment
    from the checkpoint before; the read ones go in ascending order of
    that ratio as long as their bounds fit _GRID_TERMS and the budget.
    The checkpoints up to y are read with them from the table, and
    chained when none is read."""
    c = np.array(cps, dtype=np.int64)
    pairs = c // (y + 1)
    bound = np.ceil(2 * np.sqrt((c * pairs).astype(np.float64)))
    grid_steps = bound * (levels * columns) / _TERMS_PER_STEP
    segment_steps = np.diff(c, prepend=0) * (
        1 / _SIEVED_PER_STEP + columns / _LOOKED_UP_PER_STEP)
    ratio = grid_steps / segment_steps
    cheaper = np.flatnonzero((pairs > 0) & (ratio < 1))
    order = cheaper[np.argsort(ratio[cheaper], kind="stable")]
    room = (budget // (levels * columns + 2) - _LEVEL_STEPS
            - (y + 1) // _ENTRIES_PER_STEP) * _TERMS_PER_STEP
    read = order[np.cumsum(bound[order]) <= min(room, _GRID_TERMS)]
    direct = np.zeros(c.size, dtype=bool)
    if read.size:
        direct[read] = True
        direct[pairs == 0] = True
    return direct.tolist()


def _checkpoint_columns(k: int, cps: list[int], y: int, table,
                        primes: list[int], columns: list[tuple], steps: int
                        ) -> tuple[list[list], int]:
    """([D_k(c) for c in cps] in each column (dtype, mod), see
    _tau_values, as Python numbers; the loop-guard steps so far).

    table() gives the shapes of 0..y, called only when the hyperbola
    reads a checkpoint, and primes holds every prime up to
    isqrt(cps[-1]).  The checkpoints the hyperbola reads (_plan) are
    charged _hyperbola_steps before any grid term is made; the segment
    sums are not charged, since they cover at most x <= _X_MAX numbers
    in all, as a sieve to x would."""
    chain = _tau_chain(k)
    levels = len(chain) - 1
    direct = _plan(cps, y, levels, len(columns), arith.LOOP_GUARD - steps)
    out = [[0] * len(cps) for _ in columns]
    if any(direct):
        def guard(terms):
            _check_loop_guard(
                steps + _hyperbola_steps(y + 1, terms, levels, len(columns)),
                "summatory_scan")

        grid = _floor_grid([c for c, d in zip(cps, direct) if d], y, guard)
        steps += _hyperbola_steps(y + 1, grid.ns.size, levels, len(columns))
        at = [i for i, d in enumerate(direct) if d]
        for sums, (dtype, mod) in zip(out, columns):
            got = _tau_column(grid, table(), chain, dtype, mod).tolist()
            for i, s in zip(at, got):
                sums[i] = s
        del grid  # before the segments' windows are sieved
    chained = [i for i, d in enumerate(direct) if not d]
    if chained:
        parts = _segment_sums(
            k, [(cps[i - 1] if i else 0, cps[i]) for i in chained], primes,
            columns)
        for sums, part, (dtype, mod) in zip(out, parts, columns):
            modulus = mod or 1 << 64
            for i, s in zip(chained, part.tolist()):
                s += sums[i - 1] if i else 0
                sums[i] = s if dtype is np.float64 else s % modulus
    return out, steps


def divisor_sums(k: int, cps: list[int], steps: int) -> list[int]:
    """[D_k(c) for c in cps], exactly; cps ascending, at most _X_MAX.

    Each checkpoint is read off the hyperbola or chained by a segment
    sum (_checkpoint_columns), in one pass over every column.  The
    uint64 column gives each D_k(c) mod 2^64, and so exactly while
    x (1 + ln x)^(k-1), which bounds D_k(x), is below 2^64.  Past that a
    float64 run of the same sums at x alone estimates D_k(x), the
    largest, and columns mod primes below 2^24, enough for twice that
    estimate, give the rest.  The Chinese remainder theorem joins them,
    and a D_k(x) off its estimate by more than _ESTIMATE_TOL relative
    raises NumericalError: a modulus too small for it would leave it
    anywhere in [0, modulus).  The loop guard starts from steps.
    """
    x = cps[-1]
    if x > _X_MAX:
        raise ResourceError(f"sieve limit {x} exceeds guard {_X_MAX}")
    y = _table_size(cps)
    # every prime up to isqrt(x), the n <= isqrt(x) coded as one prime
    primes = np.flatnonzero(_codes(0, math.isqrt(x) + 1) == 1).tolist()
    table = functools.cache(lambda: _shapes(_codes(0, y + 1, primes)))
    # D_k(x) <= sum_{n <= x} (x / n) (1 + ln x)^(k-2) by induction on k;
    # it lies far enough below the bound for its rounding not to matter
    if x * (1 + math.log(x)) ** (k - 1) < 2.0**64:
        return _checkpoint_columns(k, cps, y, table, primes,
                                   [(np.uint64, None)], steps)[0][0]
    (est,), steps = _checkpoint_columns(k, [x], y, table, primes,
                                        [(np.float64, None)], steps)
    residue_primes, modulus, p = [], 1 << 64, _RESIDUE_PRIME
    while modulus <= 2 * est[0]:
        if is_prime(p):
            residue_primes.append(p)
            modulus *= p
        p -= 2
    (sums, *residues), _ = _checkpoint_columns(
        k, cps, y, table, primes,
        [(np.uint64, None)] + [(np.uint64, p) for p in residue_primes], steps)
    modulus = 1 << 64
    for p, rs in zip(residue_primes, residues):
        # Garner: the value mod modulus * p from it mod modulus and mod p
        inv = pow(modulus, -1, p)
        sums = [s + modulus * ((r - s) * inv % p) for s, r in zip(sums, rs)]
        modulus *= p
    if abs(sums[-1] - est[0]) > _ESTIMATE_TOL * est[0]:
        raise NumericalError(
            f"D_{k}({x}) = {sums[-1]} by residues but about {est[0]!r} "
            "in float64")
    return sums
