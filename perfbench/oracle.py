"""Independent correctness oracles for the benchmark's commands.

    python3 oracle.py PLAN PASS_DIR

PLAN is the JSON list of {"id", "check"} written by run.py; PASS_DIR
holds each command's stdout (`<id>.out`) and artifacts.  Prints one JSON
object mapping each command id to null (correct) or a failure message.

Nothing here calls gcdzeta.  Floats are compared with tolerances, never
with digests of one commit's output, so a correct reordering of float
work in the program still passes:

- A_r scan sums: A_r(n) from this file's own smallest-prime-factor
  sieve and the local formula, block sums at the report's checkpoints.
- tau_3 scan sum: the exact count of triples abc <= x (hyperbola method).
- A_r leading coefficient: prod_p (1-1/p)^r (1+r/p) / r!, the local
  factor of sum_n A_r(n)/n^s times zeta(s)^-(r+1) at s = 1, to primes
  1e7 plus a tail term; it must lie within the report's tail bound.
- Z(s; n): prod_j zeta(s_j) times finite local sums over p^e || n,
  in mpmath; Z(2; 2) = 5 pi^2 / 24 is pinned.
- eval and verify: local formulas on known factorizations, and check
  counts derived from the suite definitions.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath
import numpy as np

mpmath.mp.dps = 30
REL = 1e-10  # float sums: the program and the oracle round differently
EULER_PRIMES = 10**7


# ------------------------------------------------------------ sieves


def spf_sieve(n: int) -> np.ndarray:
    """spf[i] = smallest prime factor of i for 2 <= i <= n (int32)."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    spf[:2] = 0
    return spf


def primes_from(spf: np.ndarray) -> np.ndarray:
    idx = np.arange(spf.size, dtype=np.int64)
    return idx[(spf == idx) & (idx >= 2)]


def a_values(spf: np.ndarray, r: int, chunk: int = 1 << 20) -> np.ndarray:
    """A_r(n) in float64 for n < spf.size, by factoring every n.

    Each round strips the smallest remaining prime p with its exponent k
    from every unfinished n and multiplies in the local value
    sum_{j=0}^{r} C(k+j-1, j) (1-1/p)^j.  Chunks bound the temporaries.
    """
    vals = np.ones(spf.size)
    vals[0] = 0.0
    for lo in range(2, spf.size, chunk):
        idx = np.arange(lo, min(lo + chunk, spf.size), dtype=np.int32)
        rem = idx.copy()
        while idx.size:
            p = spf[rem]
            rem //= p
            k = np.ones(idx.size, dtype=np.int32)
            deeper = np.flatnonzero(rem % p == 0)
            while deeper.size:
                rem[deeper] //= p[deeper]
                k[deeper] += 1
                deeper = deeper[rem[deeper] % p[deeper] == 0]
            t = 1.0 - 1.0 / p
            coef = np.ones(idx.size)
            power = np.ones(idx.size)
            local = np.ones(idx.size)
            for j in range(1, r + 1):
                coef *= (k + j - 1) / j
                power *= t
                local += coef * power
            vals[idx] *= local
            keep = rem > 1
            idx, rem = idx[keep], rem[keep]
    return vals


def tau3_summatory(x: int) -> int:
    """#{(a, b, c) >= 1 : abc <= x}, counting a <= b <= c with weights."""
    total = 0
    a = 1
    while a * a * a <= x:
        b = np.arange(a, math.isqrt(x // a) + 1, dtype=np.int64)
        over = x // (a * b) - b  # c with b < c <= x/(ab)
        # a < b: c = b has 3 orders, b < c has 6; a = b (first entry):
        # c = b has 1 order, b < c has 3
        total += 6 * int(over.sum()) + 3 * b.size - (3 * int(over[0]) + 2)
        a += 1
    return total


def factor_small(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


# ------------------------------------------------------------ references


def euler_reference(r: int, primes: np.ndarray) -> float:
    """(1/r!) prod_p (1-1/p)^r (1+r/p) over all p, tail estimated.

    Each factor is 1 - r(r+1)/(2p^2) + O(p^-3), and sum_{p>P} p^-2 is
    about 1/(P log P), so the omitted log mass is about
    -r(r+1)/(2 P log P); its own error is far below the program's bound.
    """
    u = 1.0 / primes.astype(np.float64)
    logs = r * np.log1p(-u) + np.log1p(r * u)
    big = float(primes[-1])
    tail = -r * (r + 1) / 2 / (big * math.log(big))
    return math.exp(math.fsum(logs.tolist()) + tail) / math.factorial(r)


def a_local_exact(p: int, k: int, r: int) -> Fraction:
    t = Fraction(p - 1, p)
    return sum((Fraction(math.comb(k + j - 1, j)) * t**j
                for j in range(r + 1)), Fraction(0))


def igusa_reference(n: int, s: list[float]) -> mpmath.mpf:
    """Z(s; n) = prod_j zeta(s_j) prod_{p^e || n} L_p, where

        L_p = sum over a in [0, e]^r of p^min(sum a, e)
              prod_j p^(-a_j s_j) (1 - p^(-s_j))^[a_j < e].
    """
    value = mpmath.mpf(1)
    for sj in s:
        value *= mpmath.zeta(sj)
    for p, e in factor_small(n):
        local = mpmath.mpf(0)
        for a in product(range(e + 1), repeat=len(s)):
            term = mpmath.mpf(p) ** min(sum(a), e)
            for aj, sj in zip(a, s):
                term *= mpmath.mpf(p) ** (-aj * sj)
                if aj < e:
                    term *= 1 - mpmath.mpf(p) ** (-sj)
            local += term
        value *= local
    return value


def _pin_igusa_reference() -> None:
    got = igusa_reference(2, [mpmath.mpf(2)])
    want = 5 * mpmath.pi**2 / 24
    if abs(got - want) > mpmath.mpf(10) ** -25:
        raise RuntimeError(f"igusa reference broken: Z(2; 2) = {got}")


# ------------------------------------------------------------ checks


class CheckFailed(Exception):
    pass


def _close(got: float, want: float, rel: float, what: str) -> None:
    if not abs(got - want) <= rel * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _stdout_value(text: str, line: int, prefix: str) -> float:
    lines = text.splitlines()
    if len(lines) <= line or prefix not in lines[line]:
        raise CheckFailed(f"stdout line {line + 1} lacks {prefix!r}")
    return float(lines[line].split(prefix, 1)[1].split()[0])


def check_scan_a(spec: dict, out: str, d: Path) -> None:
    r, xmax = spec["r"], spec["xmax"]
    report = json.loads((d / spec["json"]).read_text())
    if (report["kind"], report["r_or_k"], report["x_max"]) != ("A", r, xmax):
        raise CheckFailed("report header does not match the command")
    cps = [(int(x), float(v)) for x, v in report["checkpoints"]]
    xs = [x for x, _ in cps]
    if xs[-1] != xmax or xs != sorted(set(xs)) or xs[0] < 1:
        raise CheckFailed(f"bad checkpoint grid {xs[:3]}...{xs[-1:]}")
    spf = spf_sieve(max(xmax, EULER_PRIMES))
    vals = a_values(spf[: xmax + 1], r)
    prev, blocks = 0, []
    for x, got in cps:
        blocks.append(float(vals[prev + 1 : x + 1].sum()))
        prev = x
        _close(got, math.fsum(blocks), REL, f"S({x})")
    del vals
    ref = euler_reference(r, primes_from(spf))
    bound = report["euler_tail_bound"]
    if not 0 < bound < 1e-2 * ref:
        raise CheckFailed(f"euler_tail_bound {bound!r} is not a usable bound")
    if not abs(report["fixed_leading"] - ref) <= bound + 1e-12 * ref:
        raise CheckFailed(
            f"fixed_leading {report['fixed_leading']!r} is not within "
            f"{bound!r} of {ref!r}")
    with open(d / spec["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x", "sum", "main_term", "residual"]:
        raise CheckFailed(f"CSV header {rows[0]}")
    if [(int(x), float(v)) for x, v, *_ in rows[1:]] != cps:
        raise CheckFailed("CSV rows disagree with the JSON checkpoints")
    if report["fitted_poly"]:
        for x, v, main, res in rows[1:]:
            _close(float(v) - float(main), float(res), 1e-9, f"residual({x})")
        miss = abs(float(rows[-1][3])) / float(rows[-1][1])
        if miss > 1e-3:
            raise CheckFailed(f"main term misses S(x_max) by {miss:.2e}")
    _close(_stdout_value(out, 0, f"S({xmax}) = "), cps[-1][1], 0.0,
           "stdout S(x_max)")


def check_scan_tau3(spec: dict, out: str, d: Path) -> None:
    xmax = spec["xmax"]
    _close(_stdout_value(out, 0, f"S({xmax}) = "), tau3_summatory(xmax),
           1e-12, f"tau_3 sum to {xmax}")
    _close(_stdout_value(out, 1, "(closed form) = "), 0.5, 1e-15,
           "tau_3 leading coefficient")


def check_extremal(spec: dict, out: str, d: Path) -> None:
    r, x = spec["r"], spec["x"]
    rec = json.loads(out)
    lo = int(x / math.log(x))
    ps = primes_from(spf_sieve(x))
    ps = ps[ps > lo].astype(np.float64)
    log_n = math.fsum(np.log(ps).tolist())
    t = 1.0 - 1.0 / ps
    local = sum(t**j for j in range(r + 1))
    log_a = math.fsum(np.log(local).tolist())
    if rec["x"] != x or rec["omega_n_x"] != ps.size:
        raise CheckFailed(f"x/omega {rec['x']}/{rec['omega_n_x']}, "
                          f"expected {x}/{ps.size}")
    _close(rec["log_n_x"], log_n, 1e-12, "log n_x")
    _close(rec["log_a_r"], log_a, 1e-12, "log A_r(n_x)")
    _close(rec["statistic"], log_a * math.log(log_n) / log_n, 1e-12,
           "statistic")
    _close(rec["reference"], math.log(r + 1), 1e-15, "reference")


def _igusa_record(spec: dict, out: str) -> tuple[dict, mpmath.mpf]:
    rec = json.loads(out)
    s = [float(v) for v in spec["s"]]
    if rec["n"] != spec["n"] or rec["s"] != s:
        raise CheckFailed(f"record is for n={rec['n']}, s={rec['s']}")
    return rec, igusa_reference(spec["n"], [mpmath.mpf(v) for v in s])


def check_igusa(spec: dict, out: str, d: Path) -> None:
    rec, ref = _igusa_record(spec, out)
    err = abs(mpmath.mpf(rec["value"]) - ref)
    if not err <= spec["tolerance"] + 1e-12 * ref:
        raise CheckFailed(f"Z = {rec['value']!r}, reference "
                          f"{mpmath.nstr(ref, 17)}, error {mpmath.nstr(err, 3)}")


def check_igusa_direct(spec: dict, out: str, d: Path) -> None:
    """0 <= Z - value <= n (prod zeta(s_j) - prod S_j), S_j the truncated
    one-variable sums; the reported bound must cover the true error."""
    rec, ref = _igusa_record(spec, out)
    s = [mpmath.mpf(float(v)) for v in spec["s"]]
    full = trunc = mpmath.mpf(1)
    for sj in s:
        full *= mpmath.zeta(sj)
        trunc *= mpmath.fsum(mpmath.mpf(m) ** -sj
                             for m in range(1, spec["trunc"] + 1))
    bound = spec["n"] * (full - trunc)
    err = ref - mpmath.mpf(rec["value"])
    slack = 1e-12 * ref
    if not -slack <= err <= bound + slack:
        raise CheckFailed(f"truncation error {mpmath.nstr(err, 3)} outside "
                          f"[0, {mpmath.nstr(bound, 3)}]")
    if not rec["tail_bound"] >= err - slack:
        raise CheckFailed(f"tail_bound {rec['tail_bound']!r} below the "
                          f"true error {mpmath.nstr(err, 3)}")


def _phi_tau(factors) -> tuple[int, int]:
    phi = math.prod(p**k - p ** (k - 1) for p, k in factors)
    return phi, math.prod(k + 1 for _, k in factors)


def check_eval(spec: dict, out: str, d: Path) -> None:
    target, n = spec["target"], spec["n"]
    factors = spec.get("factors") or factor_small(n)
    if math.prod(p**k for p, k in factors) != n:
        raise CheckFailed("factorization in the plan does not match n")
    phi, tau = _phi_tau(factors)
    if target == "menon":
        want = Fraction(phi * tau)
    elif target == "A":
        want = math.prod((a_local_exact(p, k, spec["param"])
                          for p, k in factors), start=Fraction(1))
    elif target == "B":
        want = Fraction(phi ** spec["param"] * tau)
    else:
        want = Fraction(math.prod(math.comb(k + spec["param"] - 1, k)
                                  for _, k in factors))
    text = want.numerator if want.denominator == 1 else want
    if out.strip() != str(text):
        raise CheckFailed(f"eval {target} printed {out.strip()[:60]!r}, "
                          f"expected {str(text)[:60]!r}")


def check_verify(spec: dict, out: str, d: Path) -> None:
    suite = spec["suite"]
    parts = out.split()
    if len(parts) != 2 or parts[0] != "PASS":
        raise CheckFailed(f"suite {suite} printed {out.strip()[:80]!r}")
    done, _, total = parts[1].partition("/")
    checked = int(done)
    if checked != int(total):
        raise CheckFailed(f"suite {suite} printed {parts[1]}")
    nmax, rmax = spec.get("nmax"), spec.get("rmax")
    if suite == "menon":
        phi = sum(_phi_tau(factor_small(n))[0] for n in range(1, nmax + 1))
        want = phi + nmax * rmax
    elif suite in ("a-threeway", "domination"):
        want = nmax * (rmax + 1)
    elif suite == "squarefree":
        free = sum(all(k == 1 for _, k in factor_small(n))
                   for n in range(1, nmax + 1))
        want = free * (rmax + 1)
    elif suite == "fr-vanishing":
        want = rmax * spec["kmax"]
    else:  # mult: a fixed number of functions per coprime sample pair
        rng = random.Random(spec["seed"])
        pairs = sum(math.gcd(rng.randrange(1, 10**4), rng.randrange(1, 10**4))
                    == 1 for _ in range(spec["samples"]))
        if pairs and checked > 0 and checked % pairs == 0:
            return
        want = pairs
    if checked != want:
        raise CheckFailed(f"suite {suite} ran {checked} checks, expected {want}")


CHECKS = {
    "scan_A": check_scan_a,
    "scan_tau3": check_scan_tau3,
    "extremal": check_extremal,
    "igusa": check_igusa,
    "igusa_direct": check_igusa_direct,
    "eval": check_eval,
    "verify": check_verify,
}


def verdicts(plan: list[dict], pass_dir: Path) -> dict[str, str | None]:
    """Command id -> None when its output is correct, else the reason."""
    _pin_igusa_reference()
    result = {}
    for item in plan:
        spec = item["check"]
        try:
            out = (pass_dir / f"{item['id']}.out").read_text()
            CHECKS[spec["kind"]](spec, out, pass_dir)
            result[item["id"]] = None
        except Exception as exc:  # any malformed output is a failed check
            result[item["id"]] = f"{type(exc).__name__}: {exc}"
    return result


if __name__ == "__main__":
    plan = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps(verdicts(plan, Path(sys.argv[2]))))
