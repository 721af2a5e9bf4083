"""Sieved summatory scans, main-term fitting, and extremal-order probes.

The partial sums of both A_r and the Piltz divisor function tau_k behave
like x times a polynomial in log x.  Only the leading coefficient has a
closed form (an Euler product for A_r, 1/(k-1)! for tau_k); the lower
coefficients here are fitted, never derived, and the reports keep the two
provenances separate.  The values f(n), all >= 1 and so multiples of
2^-52, are sieved and summed one 2 MB window at a time, never all held:
each block between checkpoints and window edges is summed exactly as a
count of 2^-52 (_grid_total).  The windows are split into one contiguous
run per usable CPU, each run in its own process (forked, and so only
where os.fork exists), and the runs' exact int totals are merged in
window order.  Each checkpoint rounds the merged total once, to
math.fsum(f(1..x)), byte-identical on rerun and on any CPU count.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import sys
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .arith import _check_loop_guard, prime_array, primes_in_range
from .errors import DomainError, NumericalError, ResourceError
from .gcdsum import a_local_sum
from .multfun import tau_k

_GRID_BITS = 52  # table entries are >= 1, so multiples of 2^-52
# _grid_total splits entries into integer limbs of this many bits on that
# grid and sums each limb in float64 over chunks of this many entries:
# the chunk sums stay below 2^(36 + 16) = 2^52, inside float64's exact
# integers.  A_r and tau_k entries (r, k <= 4, x <= 1e7) lie below 2^19
# (tau_4 peaks at 470400), so a block takes two limbs.
_LIMB_BITS = 36
_CHUNK = 2**16
# One block sum of 1 to 100 entries takes 18.5-19.5 us (2-vCPU x86-64,
# Python 3.11, numpy 2.4): about this many loop-guard steps of 0.25 us.
_BLOCK_SUM_STEPS = 75
# Building 1e5 to 3e6 checkpoints takes 64-168 ns a point: under a step.
_POINT_STEPS = 1
_WINDOW = 2**18  # _value_windows' window: 2 MB of float64, inside L2
# One pass of extremal_statistic's local sum over omega primes takes
# 2.5-6.5 us (the most at r near 1e6, where the powers of 1 - 1/p turn
# subnormal) plus 1.3-5.4 ns a prime (omega = 134 to 5.4e6, same box):
# this many loop-guard steps, plus one per _PASS_PRIMES primes.
_PASS_STEPS = 24
_PASS_PRIMES = 50


@dataclass
class SummatoryReport:
    """Checkpointed partial sums of one function plus the fitted main term.

    fitted_poly lists Q's coefficients ascending in log x, with the leading
    coefficient pinned to fixed_leading (the closed-form value).
    fitted_leading_free comes from a companion fit with the leading
    coefficient left free, so it can cross-validate the closed form.
    Residuals are S(x) - x Q(log x) at every checkpoint.  Fit fields stay
    empty when the checkpoint span is too narrow to condition the fit.
    """

    kind: str
    r_or_k: int
    x_max: int
    checkpoints: list[tuple[int, float]]
    degree: int
    fixed_leading: float
    euler_tail_bound: float
    fitted_poly: list[float] = field(default_factory=list)
    fitted_leading_free: float = math.nan
    residuals: list[tuple[int, float]] = field(default_factory=list)

    def main_term(self, x: float) -> float:
        if not self.fitted_poly:
            raise NumericalError("report carries no fitted main term")
        t = math.log(x)
        acc = 0.0
        for c in reversed(self.fitted_poly):
            acc = acc * t + c
        return x * acc


@dataclass(frozen=True)
class ExtremalSample:
    """The normalized growth statistic at the squarefree extremal modulus.

    The modulus is the product of all primes in (x/log x, x]; it is never
    materialized, everything stays in the log domain.
    """

    x: int
    log_n_x: float
    omega_n_x: int
    log_a_r: float
    statistic: float


def _scan_local(kind: str, order: int):
    """(p, k) -> f(p^k) in float64 for A_order or tau_order."""
    if kind == "A":
        return lambda p, k: a_local_sum(1.0 - 1.0 / p, k, order)
    tau = tau_k(order)
    return lambda p, k: float(tau.local(p, k))


def _window_plan(local, x_max: int, primes: np.ndarray):
    """What every window of f(0..x_max) reads, from local(p, k) = f(p^k)
    (p an int or an int64 array of primes) and the ascending primes up
    to x_max (any past it go unused): the small-prime ratios, the
    large primes with local(p, 1), their cofactors ms and head =
    f(0..ms[-1]).  head takes the ratios in window 0's order, so it is
    bit-identical to window 0's entries there."""
    split = int(np.searchsorted(primes, math.isqrt(x_max), side="right"))
    ratios = []
    for p in primes[:split].tolist():
        pk, k, prev = p, 1, 1.0
        while pk <= x_max:
            loc = local(p, k)
            ratios.append((pk, loc / prev))
            prev, pk, k = loc, pk * p, k + 1
    big = primes[split:]
    loc = np.broadcast_to(local(big, 1), big.shape)
    ms = np.arange(1, x_max // int(big[0]) + 1)
    head = np.ones(ms.size + 1)
    head[0] = 0.0
    for pk, ratio in ratios:
        head[::pk] *= ratio
    return ratios, big, loc, ms, head


def _value_windows(plan, x_max: int, start: int, stop: int):
    """Yield (lo, window) with window[i] = f(lo + i) (f(0) = 0), one final
    _WINDOW of 0..x_max at a time, all in one reused float64 buffer, for
    the windows with start <= lo < stop; plan is _window_plan's for f.

    Each prime p <= sqrt(x_max) multiplies local(p, k) / local(p, k-1)
    into the entries divisible by p^k, leaving local(p, v_p(n)) in each
    n.  A larger prime p divides n at most once, and m = n / p <
    sqrt(x_max) then has n's small-prime valuations, so f(n) =
    f(m) local(p, 1), with f(m) read from head: scatters of a quarter
    window each (small index arrays) write it without reading the entry.
    Each entry takes its factors in ascending prime order, so the values
    are bit-identical to a pass per prime, and a window depends on no
    other window.
    """
    ratios, big, loc, ms, head = plan
    buf = np.empty(min(_WINDOW, x_max + 1))
    for lo in range(start, stop, _WINDOW):
        window = buf[: min(_WINDOW, x_max + 1 - lo)]
        window.fill(1.0)
        window[0] = 1.0 if lo else 0.0  # f(0) = 0: from 1 it would overflow
        for pk, ratio in ratios:
            window[-lo % pk :: pk] *= ratio
        # big[a[j]:b[j]] are the large primes p with begin <= ms[j] p < end
        b = np.searchsorted(big, (lo - 1) // ms, side="right")
        for begin in range(lo, lo + window.size, _WINDOW // 4):
            end = min(begin + _WINDOW // 4, lo + window.size)
            a, b = b, np.searchsorted(big, (end - 1) // ms, side="right")
            m = np.repeat(ms, b - a)
            idx = np.repeat(b - np.cumsum(b - a), b - a) + np.arange(m.size)
            window[m * big[idx] - lo] = head[m] * loc[idx]
        yield lo, window


def _grid_total(block: np.ndarray) -> int:
    """The exact sum of a block of table entries, in units of 2^-52.

    Every entry is at least 1, so it is a multiple of 2^-52 (the ulp of
    1) and lies below 2^hi, hi the frexp exponent of the block maximum.
    So splitting it from the top into _LIMB_BITS-bit integer limbs by
    power-of-two scaling, floor and subtraction is exact.  Each limb is
    summed exactly in float64 one _CHUNK at a time and the limb totals
    are combined as Python ints.
    """
    lo_val = float(block.min())
    hi_val = float(block.max())
    if not (lo_val >= 1 and hi_val < math.inf):
        raise NumericalError(
            "exact block sum needs finite entries of at least 1, "
            f"got a range [{lo_val!r}, {hi_val!r}]"
        )
    hi = math.frexp(hi_val)[1]
    # the limbs above the lowest one, top first
    lo = -_GRID_BITS
    shifts = range(lo + _LIMB_BITS * ((hi - lo - 1) // _LIMB_BITS), lo,
                   -_LIMB_BITS)
    totals = [0] * (len(shifts) + 1)
    for start in range(0, block.size, _CHUNK):
        rest = block[start : start + _CHUNK]
        for j, shift in enumerate(shifts):
            limb = np.floor(np.ldexp(rest, -shift))
            totals[j] += int(limb.sum())
            rest = rest - np.ldexp(limb, shift)
        # what is left is below 2^(lo + _LIMB_BITS) and a multiple of 2^lo
        totals[-1] += int(np.ldexp(rest, -lo).sum())
    total = 0
    for t in totals:
        total = (total << _LIMB_BITS) + t
    return total


def _checkpoint_sums(local, x_max: int, primes: np.ndarray,
                     cps: list[int]) -> list[tuple[int, float]]:
    """[(x, math.fsum(f(1..x))) for x in cps], f given by local as in
    _window_plan and primes its sieve through x_max.

    The windows are split into one contiguous run per usable CPU, each
    run summed in its own process (_in_processes).  The runs' exact int
    sums are merged in window order and each checkpoint is rounded once,
    so the result does not depend on the split.  The plan's arrays are
    freed when this returns, before the Euler product runs.
    """
    plan = _window_plan(local, x_max, primes)
    windows = x_max // _WINDOW + 1
    procs = min(_usable_cpus(), windows)
    bounds = [j * windows // procs * _WINDOW for j in range(procs + 1)]
    runs = _in_processes(
        lambda start, stop: _sum_run(
            _value_windows(plan, x_max, start, stop), cps),
        list(zip(bounds, bounds[1:])),
    )
    checkpoints, base = [], 0  # base: the exact sum of the runs before
    for points, total in runs:
        # int / int division is correctly rounded, half to even
        checkpoints += [(x, (base + t) / (1 << _GRID_BITS)) for x, t in points]
        base += total
    return checkpoints


def _sum_run(windows, cps: list[int]) -> tuple[list[tuple[int, int]], int]:
    """The exact sums, in 2^-52, of f over a run of consecutive windows:
    [(x, the sum from the run's first entry to x)] for the checkpoints x
    in the run, and the sum over the whole run.  Each block between
    checkpoints and window edges is one _grid_total; f(0) = 0, off the
    grid, is left out."""
    points, total = [], 0
    for lo, window in windows:
        done = 0 if lo else 1
        for x in cps[bisect_left(cps, lo) : bisect_left(cps, lo + window.size)]:
            total += _grid_total(window[done : x + 1 - lo])
            points.append((x, total))
            done = x + 1 - lo
        total += _grid_total(window[done:]) if done < window.size else 0
    return points, total


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _in_processes(fn, calls: list[tuple]) -> list:
    """[fn(*args) for args in calls], each of calls[1:] in a forked child
    while this process runs calls[0].

    A child pickles (True, result) or (False, exception) into a pipe and
    leaves by os._exit, so it never flushes this process's inherited
    stdout buffer or runs its exit handlers; a child's exception is
    raised here.  Every child is reaped before this returns or raises,
    and killed first if this is unwinding.  fn runs numpy's own loops,
    no BLAS, so no lock that another thread held at the fork is taken.
    """
    children = []  # (pid, read end of its pipe)
    try:
        for args in calls[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    try:
                        data = pickle.dumps((True, fn(*args)))
                    except BaseException as exc:
                        data = pickle.dumps((False, exc))
                    with open(write, "wb") as fh:
                        fh.write(data)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [fn(*calls[0])]
        for pid, fh in children:
            data = fh.read()
            if not data:
                raise ResourceError(f"scan worker {pid} ended with no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        from signal import SIGKILL  # imported on this path alone

        for pid, _ in children:
            os.kill(pid, SIGKILL)  # not yet reaped: pid is still this child
        raise
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)


def _geometric_checkpoints(x_max: int, count: int) -> list[int]:
    x_min = max(10, x_max // 1000)
    if x_min >= x_max:
        return [x_max]
    pts = np.rint(np.geomspace(x_min, x_max, count)).astype(np.int64)
    pts[-1] = x_max
    return sorted(set(pts.tolist()))


def summatory_scan(
    kind: str,
    r_or_k: int,
    x_max: int,
    checkpoint_count: int = 40,
) -> SummatoryReport:
    """Scan partial sums of A_r (kind="A") or tau_k (kind="tau") to x_max.

    Checkpoints are geometrically spaced.  When they span at least two
    decades the main term is fitted (leading coefficient pinned to the
    closed form) and residuals are recorded; otherwise the fit fields are
    left empty and only the sums are reported.  The loop guard counts
    _POINT_STEPS per checkpoint asked for and _BLOCK_SUM_STEPS per block
    summed: one per distinct checkpoint and one more per window.
    """
    if kind not in ("A", "tau"):
        raise DomainError(f"unknown scan kind {kind!r}")
    if r_or_k < 1:
        raise DomainError(f"function order must be >= 1, got {r_or_k}")
    # the leading coefficient divides by degree!, and 171! overflows a float
    degree = r_or_k if kind == "A" else r_or_k - 1
    if degree > 170:
        raise DomainError(
            f"function order must be <= {170 + (kind == 'tau')} for a float "
            f"leading coefficient, got {r_or_k}"
        )
    if x_max < 10:
        raise DomainError(f"x_max must be >= 10, got {x_max}")
    if checkpoint_count < 1:
        raise DomainError(
            f"checkpoint count must be >= 1, got {checkpoint_count}"
        )
    blocks = min(checkpoint_count, x_max - max(10, x_max // 1000) + 1)
    blocks += x_max // _WINDOW + 1  # and a piece at each window's end
    steps = blocks * _BLOCK_SUM_STEPS + checkpoint_count * _POINT_STEPS
    _check_loop_guard(steps, "summatory_scan")

    cps = _geometric_checkpoints(x_max, checkpoint_count)
    primes = prime_array(max(x_max, 100))  # the Euler product reads to 100
    checkpoints = _checkpoint_sums(_scan_local(kind, r_or_k), x_max, primes,
                                   cps)
    if kind == "A":
        limit = max(100, min(x_max, 10**6))
        fixed, euler_tail = euler_leading_coefficient(r_or_k, limit, primes)
    else:
        fixed, euler_tail = 1.0 / math.factorial(degree), 0.0

    report = SummatoryReport(
        kind=kind,
        r_or_k=r_or_k,
        x_max=x_max,
        checkpoints=checkpoints,
        degree=degree,
        fixed_leading=fixed,
        euler_tail_bound=euler_tail,
    )
    xs = [x for x, _ in checkpoints]
    wide_enough = len(checkpoints) >= degree + 2 and xs[-1] >= 100 * xs[0]
    if wide_enough:
        report.fitted_poly = fit_main_term(checkpoints, degree, fixed)
        free = fit_main_term(checkpoints, degree, None)
        report.fitted_leading_free = free[-1]
        report.residuals = [
            (x, s - report.main_term(x)) for x, s in checkpoints
        ]
    return report


def write_checkpoint_csv(path: str, report: SummatoryReport) -> None:
    """Write the checkpoint table as CSV: x, sum, main_term, residual.

    The fit columns stay empty when the report carries no fitted main
    term.  Floats go through repr, so reruns are byte-identical.
    """
    residuals = dict(report.residuals)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "sum", "main_term", "residual"])
        for x, s in report.checkpoints:
            if x in residuals:
                writer.writerow(
                    [x, repr(s), repr(report.main_term(x)), repr(residuals[x])]
                )
            else:
                writer.writerow([x, repr(s), "", ""])


def fit_main_term(
    checkpoints: list[tuple[int, float]],
    degree: int,
    fixed_leading: float | None,
) -> list[float]:
    """Least-squares fit of S(x) = x Q(log x), coefficients ascending.

    With fixed_leading given, the leading coefficient of Q is constrained
    to it and only the lower coefficients are solved for.  The fit
    minimizes the absolute residuals S(x) - x Q(log x); weighting the
    relative form S(x)/x by anything less keeps the small-x noise from
    leaking a linear-in-x bias into the large-x residuals.
    """
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    if len(checkpoints) < degree + 2:
        raise DomainError(
            f"need at least {degree + 2} checkpoints, got {len(checkpoints)}"
        )
    xs = np.array([float(x) for x, _ in checkpoints])
    sums = np.array([s for _, s in checkpoints])
    if xs.max() < 100 * xs.min():
        raise DomainError("checkpoints must span at least two decades")
    logs = np.log(xs)

    n_free = degree + 1 if fixed_leading is None else degree
    if n_free == 0:
        return [fixed_leading]
    design = np.column_stack([xs * logs**j for j in range(n_free)])
    target = sums.copy()
    if fixed_leading is not None:
        target = target - fixed_leading * xs * logs**degree

    scale = np.linalg.norm(design, axis=0)
    cond = np.linalg.cond(design / scale)
    if not np.isfinite(cond) or cond > 1e10:
        raise NumericalError(
            f"fit is ill-conditioned (cond={cond:.2e}); "
            "use more or wider checkpoints"
        )
    coef, *_ = np.linalg.lstsq(design / scale, target, rcond=None)
    coef = coef / scale
    out = list(coef)
    if fixed_leading is not None:
        out.append(fixed_leading)
    return [float(c) for c in out]


def euler_leading_coefficient(
    r: int, limit: int, primes: np.ndarray | None = None
) -> tuple[float, float]:
    """Leading coefficient of the A_r main-term polynomial:

        (1/r!) prod_p (1 - 1/p)^r (1 + r/p),

    over the primes up to limit, read from primes (ascending, through
    limit at least) when the caller has sieved them, else sieved here.
    That factor is the local factor 1 + sum_{k=1}^{r} f_r(p^k) / p^k of
    sum A_r(n) n^-s / zeta(s)^(r+1) at s = 1, in closed form.  The product is taken as
    exp(fsum(r log1p(-1/p) + log1p(r/p))) at every prime at once.

    The returned bound is the truncation tail plus the float rounding.
    The tail is one-sided: with g(u) = r log(1 - u) + log(1 + ru),
    g(0) = 0 and g'(u) = -r(r+1) u / ((1 - u)(1 + ru)) <= 0, so every
    omitted log factor lies in [-r(r+1) / (2p(p-1)), 0], and
    sum_{m>P} 1/(m(m-1)) = 1/P puts the full product in
    [value exp(-r(r+1) / (2P)), value].

    A value below the least normal float (from r = 125 at P >= 500)
    raises NumericalError: a subnormal or zero value has lost the
    relative accuracy the bound is stated in.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if limit < 100:
        raise DomainError(f"prime limit must be >= 100, got {limit}")
    if primes is None:
        primes = prime_array(limit)
    u = 1.0 / primes[: np.searchsorted(primes, limit, side="right")]
    down = np.log1p(-u)
    up = np.log1p(r * u)
    log_sum = math.fsum((r * down + up).tolist())
    # past r = 170, r! overflows a float and the value is far below 1e-308
    value = math.exp(log_sum) / math.factorial(r) if r <= 170 else 0.0
    if value < sys.float_info.min:
        raise NumericalError(
            f"the leading coefficient of A_{r} is below the least normal "
            f"float, {sys.float_info.min!r}"
        )

    # Rounding, to first order in eps = 2^-53.  Rounding 1/p moves
    # log1p(-u) by at most eps u / (1 - u) <= 2 eps |down| (p >= 2) and
    # log1p(ru) by eps up, as does rounding r u; log1p is taken as good to
    # one ulp (2 eps), and the product r down and the sum cost one eps
    # each, so every summand is off by at most 6 eps (r |down| + up).
    # fsum is correctly rounded (eps |log_sum|), exp is good to one ulp
    # and the division by r! (r! itself rounded) costs 2 eps.
    eps = 2.0**-53
    log_err = (
        6 * eps * (math.fsum(up.tolist()) - r * math.fsum(down.tolist()))
        + eps * abs(log_sum)
        + 4 * eps
    )
    rounding = value * math.expm1(2 * log_err)
    tail = -value * math.expm1(-r * (r + 1) / (2 * limit))
    return value, tail + rounding


def residual_exponent_estimate(report: SummatoryReport) -> float:
    """Slope of log |R(x)| against log x over the report's residuals.

    Points with |R| < 1 are ignored (they sit inside the rounding floor
    and their logs would swamp the regression).
    """
    residuals = report.residuals
    if len(residuals) < 10:
        raise NumericalError(
            f"need at least 10 residual points, got {len(residuals)}"
        )
    xs_all = [x for x, _ in residuals]
    if max(xs_all) < 100 * min(xs_all):
        raise NumericalError("residuals must span at least two decades")
    usable = [(x, abs(res)) for x, res in residuals if abs(res) >= 1.0]
    if len(usable) < 2:
        raise NumericalError("not enough residuals with |R| >= 1")
    lx = np.log([x for x, _ in usable])
    ly = np.log([v for _, v in usable])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def omega_bound_exponents(r: int) -> tuple[float, float, float]:
    """The three exponents of the lower-bound reference curve b_r."""
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    e1 = r / (2 * r + 2)
    e2 = ((r + 2) / (2 * r + 2)) * ((r + 1) ** ((2 * r + 2) / (r + 2)) - 1)
    e3 = -(3 * r + 2) / (4 * r + 4)
    return e1, e2, e3


def omega_bound(r: int, x: float) -> float:
    """Reference curve b_r(x) = (x log x)^e1 (log2 x)^e2 (log3 x)^e3.

    Emitted for comparison plots only; nothing asserts that residuals
    exceed it at finite x, since the underlying statement is about
    infinitely many x.
    """
    if x < 20:
        raise DomainError(f"x must be >= 20 so log3 x > 0, got {x}")
    e1, e2, e3 = omega_bound_exponents(r)
    l1 = math.log(x)
    l2 = math.log(l1)
    l3 = math.log(l2)
    return (x * l1) ** e1 * l2**e2 * l3**e3


def extremal_statistic(r: int, x: int) -> ExtremalSample:
    """Evaluate log A_r at the product of all primes in (x/log x, x].

    That modulus is squarefree, so each prime contributes the local value
    A_r(p) = sum_{j=0}^{r} (1 - 1/p)^j, summed term by term because the
    closed form p (1 - (1 - 1/p)^(r+1)) cancels badly; sums of logs
    replace the (astronomically large) modulus itself.  The statistic
    log A_r(n) log log n / log n approaches log(r+1) along this family,
    from above.  Each local value is below r+1, so with
    kappa(x) = omega(n) log log n / log n the statistic stays below
    kappa(x) log(r+1); kappa(x) exceeds 1 and falls toward it (about
    1.086 at x = 1e3, 1.066 at 1e5, 1.058 at 1e6), which sets the
    overshoot at finite x.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if x < 100:
        raise DomainError(f"x must be >= 100, got {x}")
    # r + 1 passes over omega <= pi(x) < 1.25506 x / log x primes, bounded
    # in ints: a float x / log x overflows past 1e308, before the sieve
    omega = x * 125506 // int(100000 * math.log(x))
    _check_loop_guard((r + 1) * (_PASS_STEPS + omega // _PASS_PRIMES),
                      "extremal_statistic")
    lo = int(x / math.log(x))
    ps = primes_in_range(lo, x)
    log_n = math.fsum(math.log(p) for p in ps)
    local = a_local_sum(1.0 - 1.0 / np.array(ps, dtype=np.float64), 1, r)
    log_a = math.fsum(np.log(local).tolist())
    statistic = log_a * math.log(log_n) / log_n
    return ExtremalSample(
        x=x,
        log_n_x=log_n,
        omega_n_x=len(ps),
        log_a_r=log_a,
        statistic=statistic,
    )
