"""Outside-in span tracing of gcdzeta's public functions.

The tracer replaces each function named in WRAPPED, in every gcdzeta
module namespace that binds it (so `analytic.primes_upto` and
`cli.factorize` are caught as well as the defining module's own name),
with a wrapper that records a span: name, start, end and parent span.
`lru_cache` objects are wrapped from outside, never unwrapped.  Spans
stay in memory until `write_spans`; `uninstall` puts every original
back.  Nothing in `src/` is edited, so stages inside one function (the
value table and block sums of `summatory_scan`) are not split until the
program grows spans of its own.

Per-layer metrics, their units, and the end-to-end metric each should
move are listed in LAYER_MAP and PER_LAYER_UNITS.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

WRAPPED = {
    "arith": ("primes_upto", "factorize", "primes_in_range"),
    "multfun": ("eval_int",),
    "gcdsum": ("menon_sum", "b_bruteforce", "b_closed", "a_bruteforce",
               "a_eval", "a_recursion"),
    "dirichlet": ("f_r_local", "verify_fr_structure"),
    "analytic": ("summatory_scan", "euler_leading_coefficient",
                 "fit_main_term", "residual_exponent_estimate",
                 "extremal_statistic", "write_checkpoint_csv"),
    "igusa": ("igusa_hurwitz", "hurwitz_zeta", "igusa_direct"),
    "cli": ("main",),
}

# Work counters read from a call's arguments or result: span name ->
# (counter, function of (bound arguments, result)).
COUNTERS = {
    "arith.primes_upto": ("primes", lambda a, result: len(result)),
    "analytic.summatory_scan": ("entries", lambda a, result: a["x_max"] + 1),
    "analytic.write_checkpoint_csv":
        ("bytes", lambda a, result: os.path.getsize(a["path"])),
    "igusa.igusa_hurwitz": ("terms", lambda a, result: a["n"] ** len(a["s"])),
    "igusa.igusa_direct":
        ("terms", lambda a, result: a["truncation"] ** len(a["s"])),
}

# Self time of these spans covers several ROADMAP stages that outside
# wrappers cannot split; it is reported as trace.unattributed_s.
UNSPLIT = ("analytic.summatory_scan",)

PER_LAYER_UNITS = {
    "arith.primes_upto.self_s": "s",
    "arith.primes_upto.calls": "count",
    "arith.primes_upto.primes": "count",
    "arith.factorize.self_s": "s",
    "arith.factorize.calls": "count",
    "arith.primes_in_range.self_s": "s",
    "multfun.eval_int.self_s": "s",
    "multfun.eval_int.calls": "count",
    **{
        f"gcdsum.{fn}.{m}": unit
        for fn in WRAPPED["gcdsum"]
        for m, unit in (("self_s", "s"), ("calls", "count"))
    },
    "dirichlet.f_r_local.calls": "count",
    "dirichlet.verify_fr_structure.self_s": "s",
    "analytic.summatory_scan.self_s": "s",
    "analytic.summatory_scan.entries": "count",
    "analytic.euler_leading_coefficient.self_s": "s",
    "analytic.euler_leading_coefficient.primes": "count",
    "analytic.fit_main_term.self_s": "s",
    "analytic.residual_exponent_estimate.self_s": "s",
    "analytic.extremal_statistic.self_s": "s",
    "analytic.write_checkpoint_csv.self_s": "s",
    "analytic.write_checkpoint_csv.bytes": "B",
    "igusa.igusa_hurwitz.self_s": "s",
    "igusa.igusa_hurwitz.terms": "count",
    "igusa.hurwitz_zeta.self_s": "s",
    "igusa.hurwitz_zeta.calls": "count",
    "igusa.igusa_direct.self_s": "s",
    "igusa.igusa_direct.terms": "count",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "cli.stdout_bytes": "B",
    "proc.cpu_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

# (layer, metrics, the end-to-end metric and workload they should move)
LAYER_MAP = [
    ("arith", "arith.primes_upto.{self_s,calls,primes}", "wall_s on scan"),
    ("arith", "arith.factorize.{self_s,calls}, arith.primes_in_range.self_s",
     "wall_s on exact and scan"),
    ("multfun", "multfun.eval_int.{self_s,calls}", "wall_s on exact"),
    ("gcdsum", "gcdsum.{menon_sum,b_bruteforce,b_closed,a_bruteforce,"
     "a_eval,a_recursion}.{self_s,calls}", "wall_s on exact"),
    ("dirichlet", "dirichlet.f_r_local.calls, "
     "dirichlet.verify_fr_structure.self_s",
     "wall_s on exact, and on scan through the Euler product"),
    ("analytic", "analytic.summatory_scan.{self_s,entries} "
     "(value table plus block sums)", "wall_s and peak_rss_mb on scan"),
    ("analytic", "analytic.euler_leading_coefficient.{self_s,primes}",
     "wall_s on scan"),
    ("analytic", "analytic.fit_main_term.self_s, "
     "analytic.residual_exponent_estimate.self_s, "
     "analytic.extremal_statistic.self_s, "
     "analytic.write_checkpoint_csv.{self_s,bytes}",
     "scan; small, and they must stay small"),
    ("igusa", "igusa.igusa_hurwitz.{self_s,terms} (reduction step), "
     "igusa.hurwitz_zeta.{self_s,calls} (zeta factors)",
     "wall_s and peak_rss_mb on zeta"),
    ("igusa", "igusa.igusa_direct.{self_s,terms}",
     "zeta; the oracle, expected flat"),
    ("cli", "cli.main.{self_s,calls} (parse, format, artifact I/O), "
     "cli.stdout_bytes", "all workloads"),
    ("process and trace", "proc.cpu_s, trace.overhead_frac, "
     "trace.unattributed_s", "diagnostics"),
]


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[int, tuple[str, int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents)
        stack, counters = self._stack, self.counters
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    counters[idx] = (counter[0], counter[1](bound, result))
                except (KeyError, TypeError, OSError):
                    pass  # the program changed shape; the counter reads 0
            return result

        wrapper.perfbench_span = name
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "gcdzeta" or n.startswith("gcdzeta.")]
        for modname, fnames in WRAPPED.items():
            home = sys.modules.get(f"gcdzeta.{modname}")
            for fname in fnames:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for module in modules:
                    bound = [a for a, v in vars(module).items() if v is original]
                    for attr in bound:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> bool:
        """Restore every original; True when no wrapper is left anywhere."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return not leftover_wrappers()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and summed counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so that is the time no child covers.
        """
        child_ns = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += dur / 1e9
            entry["self_s"] += (dur - child_ns[idx]) / 1e9
            if idx in self.counters:
                key, value = self.counters[idx]
                entry[key] = entry.get(key, 0) + value
                parent = self.parents[idx]
                # the Euler product's prime count is the sieve it asked for
                if (name == "arith.primes_upto" and parent >= 0 and
                        self.names[parent] ==
                        "analytic.euler_leading_coefficient"):
                    euler = out.setdefault(
                        self.names[parent],
                        {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    euler["primes"] = euler.get("primes", 0) + value
        return out

    def write_spans(self, path: str, command: str) -> None:
        """One JSON array per line: command, index, parent, name, start, end."""
        with open(path, "w") as fh:
            for idx, name in enumerate(self.names):
                fh.write(json.dumps([command, idx, self.parents[idx], name,
                                     self.starts[idx], self.ends[idx]]))
                fh.write("\n")


def leftover_wrappers() -> list[str]:
    """Names in gcdzeta modules still bound to a tracer wrapper."""
    return [
        f"{n}.{attr}"
        for n, m in list(sys.modules.items())
        if n == "gcdzeta" or n.startswith("gcdzeta.")
        for attr, v in vars(m).items()
        if hasattr(v, "perfbench_span")
    ]
