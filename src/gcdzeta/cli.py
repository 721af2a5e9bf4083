"""Command-line surface: evaluation, verification suites, scans, exports.

Exit codes: 0 success, 1 verification failure, 2 usage error (output
that cannot be written included), 3 domain error, 4 resource guard; a
stderr line that cannot be written does not change them.
Exact rationals are always printed as p/q and serialized as strings in
JSON; floats go through repr, so identical configurations reproduce
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import analytic, dirichlet, gcdsum, igusa, multfun
from .arith import LOOP_GUARD, ProductTable, _check_loop_guard, factorize
from .errors import DomainError, NumericalError, ResourceError

DEFAULT_SEED = 987654321
# One check of verify fr-vanishing at r, with f_r's tuples evaluated
# once per r, takes 0.4-1.7 us per (r + 2)^2 (r = 1..300, the most at
# large r where the values grow; 2-vCPU x86-64, Python 3.11): about this
# many loop-guard steps of 0.25 us.
_FR_CHECK_STEPS = 4
# verify a-threeway's check at (n, r) runs r levels of a_recursion and
# a_eval's r + 1 local terms, and one carried chain row; a level with its
# share of the rest takes 1.0-2.7 us at n <= 4 (r = 300..780, the most at
# large r where the numerators grow; same box), within this many
# loop-guard steps.
_THREEWAY_ROW_STEPS = 32


def _write_line(text: str, stream) -> None:
    """Print text as one line to stream and flush it.  If the stream is
    closed or full, what stays buffered goes to devnull, so the flush at
    interpreter exit does not fail a second time; the OSError is raised."""
    try:
        print(text, file=stream, flush=True)
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def _diagnose(line: str) -> None:
    """Write one line to stderr.  A line that cannot be written is
    dropped, so it does not change the exit code."""
    with contextlib.suppress(OSError):
        _write_line(line, sys.stderr)


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        return
    _write_line(text, sys.stdout)


def _finish_value(args, payload: dict, text_value: str) -> int:
    """Render a single computed value and honor --expect."""
    if args.format == "json":
        _emit(args, json.dumps(payload, sort_keys=True))
    else:
        _emit(args, text_value)
    if args.expect is not None and args.expect != text_value:
        _diagnose(f"verification failure: computed {text_value}, expected {args.expect}")
        return 1
    return 0


# ---------------------------------------------------------------- eval


def _check_digits(digits: float) -> float:
    """Refuse an exact result whose digit bound passes the limit, else
    return the bound.

    Python refuses to convert ints longer than
    sys.get_int_max_str_digits() (0 means no limit).
    """
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ResourceError(
            f"the result may have {digits:.0f} digits, "
            f"above the int-to-str limit of {limit}"
        )
    return digits


def _check_fr_size(r: int, k_lo: int, k_hi: int) -> None:
    """Refuse printing f_r(p^k) for k_lo <= k <= k_hi if it is too long.

    For 1 <= k <= r the polynomial has the r + 2 - k coefficients
    C(r+1, k+i) (up to sign, c_0 = 0), each below 2^(r+1), so
    (r+1) log10 2 + 1 bounds each one's digits; past r it has none.
    The text is predicted as the count times that bound, in characters.
    """
    lo, hi = max(k_lo, 1), min(k_hi, r)
    count = (hi - lo + 1) * (2 * r + 4 - lo - hi) // 2 if hi >= lo else 0
    chars = count * _check_digits((r + 1) * math.log10(2) + 1) if count else 0
    if chars > LOOP_GUARD:
        raise ResourceError(
            f"eval fr would print about {chars:.1e} characters, "
            f"above the guard of {LOOP_GUARD:.0e}"
        )


# the eval targets of n, each with its second parameter
_EVAL_PARAMS = {"A": "r", "B": "r", "menon": "a", "tau": "k"}


def _cmd_eval(args) -> int:
    target = args.target
    if target == "fr":
        if args.kmax is None and args.csv:
            _diagnose("usage error: eval fr --csv writes the --kmax table")
            return 2
        if args.kmax is not None:
            if args.format is not None or args.expect is not None:
                _diagnose("usage error: eval fr --kmax prints a table and "
                          "takes neither --format nor --expect")
                return 2
            if args.r < 1:
                raise DomainError(f"r must be >= 1, got {args.r}")
            # f_r(p^k) is identically zero past k = r
            ks = range(1, min(args.kmax, args.r) + 1)
            _check_fr_size(args.r, 1, args.kmax)
            rows = [(args.r, k, i, c) for k in ks
                    for i, c in enumerate(dirichlet.f_r_local(args.r, k))]
            if args.csv:
                with open(args.csv, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["r", "k", "i", "c_i"])
                    writer.writerows(rows)
            lines = [f"r={r} k={k} c_{i}={c}" for r, k, i, c in rows]
            _emit(args, "\n".join(lines) if lines else "all zero")
            return 0
        _check_fr_size(args.r, args.k, args.k)
        coeffs = dirichlet.f_r_local(args.r, args.k)
        text = dirichlet.format_poly(coeffs)
        payload = {"target": "fr", "r": args.r, "k": args.k,
                   "coefficients": list(coeffs), "value": text}
        return _finish_value(args, payload, text)
    if target in ("A", "B"):
        # both are at most n^(r+1): A_r(n) over a denominator dividing n^r
        _check_digits((args.r + 1) * math.log10(args.n) + 1 if args.n > 1
                      else 1)
    if target == "A":
        text = str(gcdsum.a_eval(args.n, args.r))
    elif target == "B":
        text = str(gcdsum.b_closed(args.n, args.r))
    elif target == "menon":
        text = str(gcdsum.menon_sum(args.n, args.a))
    else:  # tau
        tau, fi = multfun.tau_k(args.k), factorize(args.n)
        # tau_k(p^e) = prod_{i=1}^{e} (k - 1 + i) / i
        _check_digits(math.fsum(math.log10(args.k - 1 + i) - math.log10(i)
                                for _, e in fi.factors
                                for i in range(1, e + 1)) + 1)
        text = str(multfun.eval_int(tau, fi))
    param = _EVAL_PARAMS[target]
    payload = {"target": target, "n": args.n, param: getattr(args, param),
               "value": text}
    return _finish_value(args, payload, text)


# ---------------------------------------------------------------- verify


def _verify_menon(args):
    """menon_sum(n, a) at every unit a and b_bruteforce(n, r) for
    r = 1..rmax against the closed form, with one factorization and one
    units ProductTable per modulus: gcdsum.menon_sums reads its products,
    and B_r is carried to B_(r+1) by one more row of its totals at
    shift 1.  n <= nmax is within the suite's guard, and each Menon sum
    and B_r passes its own."""
    for n in range(1, args.nmax + 1):
        fi = factorize(n)
        expected = gcdsum.b_closed(fi, 1)
        table = ProductTable(n, units=True)
        for a, got in zip(table.ks.tolist(), gcdsum.menon_sums(table)):
            yield n, (f"menon_sum({n}, {a}) = {got} != {expected}"
                      if got != expected else None)
        brute = itertools.islice(table.totals(1, "b_bruteforce"), args.rmax)
        for r, value in enumerate(brute, 1):
            yield n, (f"B_{r}({n}) brute != closed"
                      if value != gcdsum.b_closed(fi, r) else None)


def _verify_threeway(args):
    """A_r(n) by the brute force, a_eval and a_recursion agree, for each
    n and r = 0..rmax in turn: the brute force is one ProductTable per
    modulus, its totals at shift 0 carrying A_r to A_(r+1) by one more
    row, each passing a_bruteforce's guard."""
    for n in range(1, args.nmax + 1):
        # A_0 = 1, the empty product's: no table unless some r >= 1 reads it
        totals = ProductTable(n).totals(0, "a_bruteforce") if args.rmax else None
        for r in range(args.rmax + 1):
            brute = Fraction(next(totals) if r else 1, n**r)
            local = gcdsum.a_eval(n, r)
            rec = gcdsum.a_recursion(n, r)
            yield n, None if brute == local == rec else (
                f"A_{r}({n}): brute={brute} local={local} recursion={rec}")


def _verify_fr_vanishing(args):
    for r in range(1, args.rmax + 1):
        failures = dirichlet.verify_fr_structure(r, args.kmax)
        for k in range(1, args.kmax + 1):
            yield r, failures.get(k)


def _verify_domination(args):
    taus = [multfun.tau_k(r + 1) for r in range(args.rmax + 1)]
    for n in range(1, args.nmax + 1):
        fi = factorize(n)
        for r, tau in enumerate(taus):
            # A_r(n) against tau_{r+1}(n), both times n^r
            scale = n**r
            total = gcdsum.a_numerator(fi, r)
            t = multfun.eval_int(tau, fi)
            bound = t * scale
            # equality holds exactly at n = 1, except that r = 0 makes
            # both sides identically 1
            bad = total > bound or (r >= 1 and (total == bound) != (n == 1))
            yield n, (f"A_{r}({n}) = {Fraction(total, scale)} "
                      f"vs tau_{r+1} = {t}" if bad else None)


def _verify_squarefree(args):
    for n in range(1, args.nmax + 1):
        fi = factorize(n)
        if any(k > 1 for _, k in fi.factors):
            continue
        for r in range(0, args.rmax + 1):
            # n^r prod_p p (1 - (1 - 1/p)^(r+1)) over the primes p | n
            expected = math.prod(p ** (r + 1) - (p - 1) ** (r + 1)
                                 for p, _ in fi.factors)
            yield n, (f"squarefree expansion fails at n={n}, r={r}"
                      if gcdsum.a_numerator(fi, r) != expected else None)


def _verify_mult(args):
    rng = random.Random(args.seed)
    functions = (("phi", multfun.phi), ("tau_2", multfun.tau_k(2)),
                 ("tau_3", multfun.tau_k(3)))
    value = multfun.eval_int
    for _ in range(args.samples):
        m = rng.randrange(1, 10**4)
        n = rng.randrange(1, 10**4)
        if math.gcd(m, n) != 1:
            continue
        for name, f in functions:
            yield m, (f"{name} not multiplicative at ({m}, {n})"
                      if value(f, m * n) != value(f, m) * value(f, n) else None)


def _grid_steps(args) -> int:
    # one check per (n, r) at least; menon has phi(n) + rmax per n
    return args.nmax * (args.rmax + 1)


def _threeway_steps(args) -> int:
    # the checks, and their nmax rmax (rmax + 1) / 2 recursion levels
    rows = args.nmax * args.rmax * (args.rmax + 1) // 2
    return _grid_steps(args) + _THREEWAY_ROW_STEPS * rows


def _fr_steps(args) -> int:
    # _FR_CHECK_STEPS (r + 2)^2 per (r, k), and as much again per r for
    # evaluating the tuples of f_r once
    squares = (args.rmax + 2) * (args.rmax + 3) * (2 * args.rmax + 5) // 6 - 5
    return _FR_CHECK_STEPS * squares * (args.kmax + 1)


# each suite's loop, which yields (where, failure) per check with failure
# None on a pass; the flags it reads, with their defaults and the least
# value that leaves the suite something to check (None: any value); and
# the loop steps it is certain to take, which the guard checks first
_VERIFY_SUITES = {
    "menon": (_verify_menon, {"nmax": (100, 1), "rmax": (3, 0)}, _grid_steps),
    "a-threeway": (_verify_threeway, {"nmax": (100, 1), "rmax": (3, 0)},
                   _threeway_steps),
    "fr-vanishing": (_verify_fr_vanishing, {"rmax": (3, 1), "kmax": (10, 1)},
                     _fr_steps),
    "domination": (_verify_domination, {"nmax": (100, 1), "rmax": (3, 0)},
                   _grid_steps),
    # a factorization per n, and rmax more checks at n = 1
    "squarefree": (_verify_squarefree, {"nmax": (100, 1), "rmax": (3, 0)},
                   lambda args: args.nmax + args.rmax),
    "mult": (_verify_mult,
             {"samples": (200, 1), "seed": (DEFAULT_SEED, None)},
             lambda args: args.samples),
}


def _cmd_verify(args) -> int:
    run, flags, steps = _VERIFY_SUITES[args.suite]
    for flag, (_, least) in flags.items():
        value = getattr(args, flag)
        if least is not None and value < least:
            raise DomainError(
                f"verify {args.suite} needs --{flag} >= {least}, got {value}"
            )
    _check_loop_guard(steps(args), f"verify {args.suite}")
    checked = 0
    for where, failure in run(args):
        if failure:
            _emit(args, f"FAIL after {checked} checks at {where}: {failure}")
            return 1
        checked += 1
    if not checked:
        raise DomainError(f"verify {args.suite} found nothing to check")
    _emit(args, f"PASS {checked}/{checked}")
    return 0


# ---------------------------------------------------------------- scan


def _cmd_scan(args) -> int:
    if args.target == "extremal":
        sample = analytic.extremal_statistic(args.r, args.x)
        payload = dataclasses.asdict(sample)
        payload["reference"] = math.log(args.r + 1)
        text = json.dumps(payload, sort_keys=True)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        _emit(args, text)
        return 0
    kind = "A" if args.target == "A" else "tau"
    order = args.r if kind == "A" else args.k
    report = analytic.summatory_scan(
        kind, order, args.xmax, checkpoint_count=args.checkpoints
    )
    if args.csv:
        analytic.write_checkpoint_csv(args.csv, report)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dataclasses.asdict(report), fh, sort_keys=True)
            fh.write("\n")
    lines = [
        f"{kind}_{order} scan to {report.x_max}: "
        f"S({report.x_max}) = {report.checkpoints[-1][1]!r}",
        f"leading coefficient (closed form) = {report.fixed_leading!r}"
        f" (tail bound {report.euler_tail_bound!r})",
    ]
    if report.fitted_poly:
        lines.append(f"fitted polynomial (ascending) = {report.fitted_poly!r}")
        lines.append(f"fitted leading (free) = {report.fitted_leading_free!r}")
        try:
            slope = analytic.residual_exponent_estimate(report)
            lines.append(f"residual exponent estimate = {slope!r}")
        except NumericalError as exc:
            lines.append(f"residual exponent estimate unavailable: {exc}")
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------- igusa


def _cmd_igusa(args) -> int:
    if args.trunc is not None and args.method != "direct":
        _diagnose("usage error: --trunc applies only to --method direct")
        return 2
    try:
        s = tuple(float(part) for part in args.s.split(","))
    except ValueError:
        _diagnose(
            f"usage error: --s expects comma-separated numbers, got {args.s!r}"
        )
        return 2
    record = igusa.evaluate(
        args.n, s, method=args.method, tolerance=args.tolerance,
        truncation=args.trunc,
    )
    _emit(args, json.dumps(record, sort_keys=True))
    return 0


# ---------------------------------------------------------------- parser


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The gcdzeta parser, with options and nested parsers for argv's
    command only: the top level takes no option with a value, so that is
    the first argument not starting with "-" whenever argparse accepts one."""
    command = next((a for a in argv if not a.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="gcdzeta",
        description="gcd-sum functions, their convolution structure, "
        "summatory scans, and cyclic-group zeta values",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_eval = sub.add_parser("eval", help="evaluate one quantity exactly")
    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_scan = sub.add_parser("scan", help="summatory scan or extremal probe")
    p_igusa = sub.add_parser("igusa", help="evaluate the cyclic-group zeta")
    if command == "eval":
        ev = p_eval.add_subparsers(dest="target", required=True)
        for name, param in _EVAL_PARAMS.items():
            p = ev.add_parser(name)
            p.add_argument("--n", type=int, required=True)
            p.add_argument(f"--{param}", type=int, required=True)
            _value_output(p)
        p = ev.add_parser("fr")
        p.add_argument("--r", type=int, required=True)
        which = p.add_mutually_exclusive_group(required=True)
        which.add_argument("--k", type=int)
        which.add_argument("--kmax", type=int)
        p.add_argument("--csv", help="write the coefficient table as CSV")
        _value_output(p)
    elif command == "verify":
        vs = p_verify.add_subparsers(dest="suite", required=True)
        for name, (_, flags, _) in sorted(_VERIFY_SUITES.items()):
            p = vs.add_parser(name)
            for flag, (default, _) in flags.items():
                p.add_argument(f"--{flag}", type=int, default=default)
            _common_output(p)
    elif command == "scan":
        sc = p_scan.add_subparsers(dest="target", required=True)
        p = sc.add_parser("A")
        p.add_argument("--r", type=int, required=True)
        _scan_common(p)
        p = sc.add_parser("tau")
        p.add_argument("--k", type=int, required=True)
        _scan_common(p)
        p = sc.add_parser("extremal")
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--json", help="also write the record to this path")
        _common_output(p)
    elif command == "igusa":
        p_igusa.add_argument("--n", type=int, required=True)
        p_igusa.add_argument("--s", required=True, help="comma-separated exponents")
        p_igusa.add_argument(
            "--method", choices=("euler", "direct"), default="euler"
        )
        p_igusa.add_argument("--trunc", type=int, default=None)
        p_igusa.add_argument("--tolerance", type=float, default=1e-9)
        _common_output(p_igusa)
    return parser


def _common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write the result to this file")


def _value_output(p: argparse.ArgumentParser) -> None:
    """Output options of the eval targets, which print one value."""
    p.add_argument("--format", choices=("text", "json"))
    _common_output(p)
    p.add_argument("--expect", help="exit 1 unless the text result matches")


def _scan_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--checkpoints", type=int, default=40)
    p.add_argument("--csv", help="write checkpoint table as CSV")
    p.add_argument("--json", help="write the full report as JSON")
    _common_output(p)


# each error class main reports, its stderr label and exit code; OSError is
# output that cannot be written, like argparse's refusal of an unopenable path
_ERRORS = {
    DomainError: ("domain error", 3),
    NumericalError: ("numerical error", 3),
    ResourceError: ("resource guard", 4),
    OSError: ("output error", 2),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    run = {"eval": _cmd_eval, "verify": _cmd_verify, "scan": _cmd_scan,
           "igusa": _cmd_igusa}[args.command]
    try:
        return run(args)
    except tuple(_ERRORS) as exc:
        label, code = next(v for c, v in _ERRORS.items() if isinstance(exc, c))
        _diagnose(f"{label}: {exc}")
        return code


if __name__ == "__main__":
    sys.exit(main())
