"""The benchmark's workloads: seeded CLI command lists with oracle specs.

Each workload is a fixed sequence of `gcdzeta` commands.  The seed only
moves the inputs inside narrow bands, so every seed costs about the same
and no command is expected to fail.  Each command carries a `check` spec
that `oracle.py` turns into an independent correctness check; eval
moduli are built from seed-chosen primes, so their factorizations are
known here without asking the program.

Standard library only: run.py imports this module and must stay small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WHY = {
    "scan": "research hot path: sieve, value table, block sums, Euler "
    "product and fit at x ~ 1e7; the tau scan shares the sieve and table "
    "but has no Euler product",
    "zeta": "cyclic-group zeta Z(s; n) by the default method at n^r ~ 1e6 "
    "plus the direct oracle; bypasses the sieve, value table and Euler "
    "product",
    "exact": "exact-Fraction identity suites and evals on 17-18-digit "
    "moduli: many small factorizations and no float layer",
}

# Witnesses that make Miller-Rabin deterministic far beyond 64 bits.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv for `gcdzeta`, its artifacts, its check."""

    id: str
    argv: list[str]
    artifacts: list[str] = field(default_factory=list)
    check: dict = field(default_factory=dict)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_between(rng: random.Random, lo: int, hi: int, avoid=()) -> int:
    while True:
        p = rng.randrange(lo, hi + 1)
        if p not in avoid and is_prime(p):
            return p


def _exponents(rng: random.Random, count: int) -> list[str]:
    """count exponents from [2, 3] with two decimals."""
    return [f"{2 + rng.randrange(0, 101) / 100:.2f}" for _ in range(count)]


def _scan(rng: random.Random, tiny: bool) -> list[Command]:
    xa = 20_000 if tiny else 10_000_000 - rng.randrange(0, 100_000)
    xt = 20_000 if tiny else 10_000_000 - rng.randrange(0, 100_000)
    xe = 2_000 if tiny else 1_000_000 - rng.randrange(0, 10_000)
    return [
        Command(
            "scan.A",
            ["scan", "A", "--r", "2", "--xmax", str(xa),
             "--csv", "scan_A.csv", "--json", "scan_A.json"],
            ["scan_A.csv", "scan_A.json"],
            {"kind": "scan_A", "r": 2, "xmax": xa,
             "csv": "scan_A.csv", "json": "scan_A.json"},
        ),
        Command(
            "scan.tau",
            ["scan", "tau", "--k", "3", "--xmax", str(xt)],
            check={"kind": "scan_tau3", "xmax": xt},
        ),
        Command(
            "scan.extremal",
            ["scan", "extremal", "--r", "2", "--x", str(xe)],
            check={"kind": "extremal", "r": 2, "x": xe},
        ),
    ]


def _zeta(rng: random.Random, tiny: bool) -> list[Command]:
    n1 = rng.randrange(26, 35) if tiny else rng.randrange(996, 1005)
    n2 = rng.randrange(7, 10) if tiny else rng.randrange(119, 121)
    n3 = rng.randrange(10, 15)
    trunc = 100 if tiny else 2000
    s1, s2, s3 = _exponents(rng, 2), _exponents(rng, 3), _exponents(rng, 2)
    cmds = []
    for cid, n, s in (("igusa.hurwitz.r2", n1, s1),
                      ("igusa.hurwitz.r3", n2, s2)):
        cmds.append(Command(
            cid, ["igusa", "--n", str(n), "--s", ",".join(s)],
            check={"kind": "igusa", "n": n, "s": s, "tolerance": 1e-9},
        ))
    cmds.append(Command(
        "igusa.direct",
        ["igusa", "--n", str(n3), "--s", ",".join(s3),
         "--method", "direct", "--trunc", str(trunc)],
        check={"kind": "igusa_direct", "n": n3, "s": s3, "trunc": trunc},
    ))
    return cmds


def _eval_moduli(rng: random.Random) -> dict[str, list[list[int]]]:
    """Three 17-18-digit moduli as factorizations [[p, k], ...].

    rho: two primes above 3e8, so trial division to 1e6 cannot finish
    and factorize falls through to Brent rho.  smooth: a 7-smooth part
    times one prime above 1e12, settled by the primality test.  powers:
    a cube, a square and a prime sized to land in [1e17, 9e17].
    """
    p = _prime_between(rng, 320_000_000, 940_000_000)
    q = _prime_between(rng, 320_000_000, 940_000_000, avoid=(p,))
    small = [[2, rng.randrange(3, 7)], [3, rng.randrange(2, 5)],
             [5, rng.randrange(1, 4)], [7, rng.randrange(1, 3)]]
    part = math.prod(b**e for b, e in small)
    big = _prime_between(rng, -(-10**17 // part), 9 * 10**17 // part)
    p1 = _prime_between(rng, 200, 400)
    p2 = _prime_between(rng, 2000, 4000)
    rest = p1**3 * p2**2
    p3 = _prime_between(rng, -(-10**17 // rest), 9 * 10**17 // rest,
                        avoid=(p1, p2))
    return {
        "rho": sorted([[p, 1], [q, 1]]),
        "smooth": small + [[big, 1]],
        "powers": sorted([[p1, 3], [p2, 2], [p3, 1]]),
    }


def _exact(rng: random.Random, seed: int, tiny: bool) -> list[Command]:
    sizes = (
        {"menon": 30, "threeway": 20, "squarefree": 100, "domination": 100,
         "eval_menon": 1_000}
        if tiny else
        {"menon": 300, "threeway": 100, "squarefree": 5_000,
         "domination": 3_000, "eval_menon": 1_000_000}
    )
    cmds = [
        Command("verify.menon",
                ["verify", "menon", "--nmax", str(sizes["menon"])],
                check={"kind": "verify", "suite": "menon",
                       "nmax": sizes["menon"], "rmax": 3}),
        Command("verify.a-threeway",
                ["verify", "a-threeway", "--nmax", str(sizes["threeway"]),
                 "--rmax", "3"],
                check={"kind": "verify", "suite": "a-threeway",
                       "nmax": sizes["threeway"], "rmax": 3}),
        Command("verify.squarefree",
                ["verify", "squarefree", "--nmax", str(sizes["squarefree"]),
                 "--rmax", "4"],
                check={"kind": "verify", "suite": "squarefree",
                       "nmax": sizes["squarefree"], "rmax": 4}),
        Command("verify.domination",
                ["verify", "domination", "--nmax", str(sizes["domination"]),
                 "--rmax", "4"],
                check={"kind": "verify", "suite": "domination",
                       "nmax": sizes["domination"], "rmax": 4}),
        Command("verify.fr-vanishing", ["verify", "fr-vanishing"],
                check={"kind": "verify", "suite": "fr-vanishing",
                       "rmax": 3, "kmax": 10}),
        Command("verify.mult", ["verify", "mult", "--seed", str(seed)],
                check={"kind": "verify", "suite": "mult", "seed": seed,
                       "samples": 200}),
    ]
    n = sizes["eval_menon"] - rng.randrange(0, sizes["eval_menon"] // 1000)
    a = rng.randrange(2, n)
    while math.gcd(a, n) != 1:
        a = rng.randrange(2, n)
    cmds.append(Command("eval.menon",
                        ["eval", "menon", "--n", str(n), "--a", str(a)],
                        check={"kind": "eval", "target": "menon", "n": n}))
    moduli = _eval_moduli(rng)
    for cid, target, name, param, value in (
        ("eval.A.rho", "A", "rho", "--r", rng.randrange(2, 4)),
        ("eval.A.powers", "A", "powers", "--r", rng.randrange(2, 5)),
        ("eval.B.smooth", "B", "smooth", "--r", rng.randrange(1, 4)),
        ("eval.tau.powers", "tau", "powers", "--k", rng.randrange(3, 6)),
    ):
        factors = moduli[name]
        m = math.prod(p**k for p, k in factors)
        cmds.append(Command(
            cid, ["eval", target, "--n", str(m), param, str(value)],
            check={"kind": "eval", "target": target, "n": m,
                   "factors": factors, "param": value},
        ))
    return cmds


def build(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The command list of one workload; tiny shrinks every size for tests."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        return _scan(rng, tiny)
    if workload == "zeta":
        return _zeta(rng, tiny)
    if workload == "exact":
        return _exact(rng, seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")
