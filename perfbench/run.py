"""The gcdzeta benchmark: whole-CLI runs with independent oracles.

    python3 perfbench/run.py --workload {scan,zeta,exact} --seed N \\
        --seconds S --trace {0,1}

Each pass runs the workload's commands (workloads.py) one at a time, each
in a fresh interpreter (child.py) with `src/` on PYTHONPATH, so no cache
carries over from one command to the next.  Passes repeat until they
have taken S seconds, and at least MIN_PASSES times.  After the first
pass, oracle.py checks every output in a separate process; every later
pass must reproduce the first pass's stdout and artifacts byte for byte.
A command fails on a nonzero exit, a failed oracle check or a byte
mismatch.

--trace 0 reports the end-to-end metrics:
  wall_s       median over passes of the summed `cli.main` times
  setup_s      median over commands of launch-to-`gcdzeta.cli`-imported
  peak_rss_mb  largest ru_maxrss of any command's process
and prints error_rate (failed / attempted) beside them.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of tracer.py, with trace.overhead_frac = traced / untraced wall_s - 1.

This script imports only the standard library: a child's ru_maxrss
includes the peak RSS of the process that spawned it, so this process
must stay smaller than any command it measures.  Output goes to
perfbench/out/; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import LAYER_MAP, PER_LAYER_UNITS, UNSPLIT

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 2
COMMAND_TIMEOUT = 150


@dataclass
class Execution:
    """One command run once: timings, output digest, trace summary, failure."""

    id: str
    setup_s: float
    main_s: float
    maxrss_kb: int
    cpu_s: float
    stdout_bytes: int
    digest: str
    record: dict
    failure: str | None = None


def _digest(pass_dir: Path, cmd: workloads.Command) -> str:
    h = hashlib.sha256()
    for name in [f"{cmd.id}.out", *cmd.artifacts]:
        path = pass_dir / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def _child_env() -> dict[str, str]:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def run_command(cmd: workloads.Command, pass_dir: Path, trace: bool) -> Execution:
    record_path = pass_dir / f"{cmd.id}.json"
    argv = [sys.executable, str(BENCH / "child.py"), str(record_path),
            "1" if trace else "0", *cmd.argv]
    with open(pass_dir / f"{cmd.id}.out", "wb") as out, \
            open(pass_dir / f"{cmd.id}.err", "wb") as err:
        launch_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=pass_dir, env=_child_env(),
                                stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=COMMAND_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    record = {}
    if record_path.exists():
        record = json.loads(record_path.read_text())
    ex = Execution(
        id=cmd.id,
        setup_s=(record["ready_ns"] - launch_ns) / 1e9 if record else 0.0,
        main_s=record.get("main_s", 0.0),
        maxrss_kb=record.get("maxrss_kb", 0),
        cpu_s=record.get("cpu_s", 0.0),
        stdout_bytes=(pass_dir / f"{cmd.id}.out").stat().st_size,
        digest=_digest(pass_dir, cmd),
        record=record,
    )
    if code != 0:
        ex.failure = f"exit code {code}"
    elif not record:
        ex.failure = "no record written"
    elif trace and not record.get("restored"):
        ex.failure = "tracer left a wrapper installed"
    return ex


def run_oracle(commands, pass_dir: Path) -> dict[str, str | None]:
    plan = pass_dir / "plan.json"
    plan.write_text(json.dumps([{"id": c.id, "check": c.check}
                                for c in commands]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "oracle.py"), str(plan), str(pass_dir)],
        capture_output=True, text=True, timeout=COMMAND_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"oracle crashed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, min_passes: int = MIN_PASSES,
                 commands=None, run_dir: Path | None = None) -> dict:
    """Run passes of one workload and return the full result record."""
    commands = commands or workloads.build(workload, seed, tiny)
    run_dir = run_dir or OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    warm = subprocess.run(
        [sys.executable, str(BENCH / "child.py")], cwd=run_dir,
        env=_child_env(), capture_output=True, text=True,
        timeout=COMMAND_TIMEOUT)
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import gcdzeta.cli:\n{warm.stderr}")

    passes: list[tuple[bool, list[Execution]]] = []
    verdicts: dict[str, str | None] = {}
    first: dict[str, str] = {}
    start = time.monotonic()
    checking = 0.0  # oracle time, which is not part of the measured window
    while (len(passes) < min_passes
           or time.monotonic() - start - checking < seconds):
        traced = trace and len(passes) % 2 == 1
        pass_dir = run_dir / f"p{len(passes):02d}"
        pass_dir.mkdir()
        execs = [run_command(c, pass_dir, traced) for c in commands]
        if not passes:
            oracle_start = time.monotonic()
            verdicts = run_oracle(commands, pass_dir)
            checking = time.monotonic() - oracle_start
            first = {e.id: e.digest for e in execs}
        for e in execs:
            if e.failure is None and verdicts.get(e.id):
                e.failure = f"oracle: {verdicts[e.id]}"
            if e.failure is None and e.digest != first[e.id]:
                e.failure = "output differs from the first pass"
        passes.append((traced, execs))

    everything = [e for _, execs in passes for e in execs]
    failures = [(e.id, e.failure) for e in everything if e.failure]
    plain = [execs for traced, execs in passes if not traced]
    walls = [sum(e.main_s for e in execs) for execs in plain]
    q1, med, q3 = _quartiles(walls)
    result = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "commands": [c.argv for c in commands],
        "attempted": len(everything),
        "failed": len(failures),
        "failures": failures[:20],
        "error_rate": len(failures) / len(everything),
        "wall_s": {"median": med, "q1": q1, "q3": q3, "n": len(walls),
                   "samples": walls},
        "per_command": {
            c.id: {
                "main_s": statistics.median(e.main_s for e in column),
                "setup_s": statistics.median(e.setup_s for e in column),
                "peak_rss_mb": max(e.maxrss_kb for e in column) / 1024,
            }
            for c, column in zip(commands, zip(*plain))
        },
        "provenance": provenance(everything),
        "layer_map": LAYER_MAP,
    }
    if trace:
        traced_walls = [sum(e.main_s for e in execs)
                        for traced, execs in passes if traced]
        result["metrics"] = per_layer(passes, med,
                                      statistics.median(traced_walls))
        merge_spans(run_dir)
    else:
        setups = [e.setup_s for execs in plain for e in execs]
        result["setup_s"] = dict(zip(("q1", "median", "q3"),
                                     _quartiles(setups)), n=len(setups))
        result["metrics"] = {
            "wall_s": {"value": med, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": max(e.maxrss_kb for execs in plain for e in execs)
                / 1024, "unit": "MB"},
        }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def per_layer(passes, untraced_wall: float, traced_wall: float) -> dict:
    """Median over traced passes of each per-layer metric's pass total."""
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}
    for traced, execs in passes:
        if not traced:
            continue
        totals = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        for e in execs:
            for span, fields in e.record.get("layers", {}).items():
                for field, value in fields.items():
                    key = f"{span}.{field}"
                    if key in totals:
                        totals[key] += value
                if span in UNSPLIT:
                    totals["trace.unattributed_s"] += fields["self_s"]
            totals["cli.stdout_bytes"] += e.stdout_bytes
        for name in PER_LAYER_UNITS:
            samples[name].append(totals[name])
    cpu = [sum(e.cpu_s for e in execs) for traced, execs in passes
           if not traced]
    metrics = {name: {"value": statistics.median(v), "unit": PER_LAYER_UNITS[name]}
               for name, v in samples.items()}
    metrics["proc.cpu_s"]["value"] = statistics.median(cpu)
    metrics["trace.overhead_frac"]["value"] = traced_wall / untraced_wall - 1
    return metrics


def merge_spans(run_dir: Path) -> None:
    """Concatenate the traced children's span files into spans.jsonl."""
    with open(run_dir / "spans.jsonl", "wb") as merged:
        for part in sorted(run_dir.glob("p*/*.spans.jsonl")):
            with open(part, "rb") as fh:
                shutil.copyfileobj(fh, merged)
            part.unlink()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def provenance(execs: list[Execution]) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    child = next((e.record for e in execs if e.record), {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": child.get("python", platform.python_version()),
        "numpy": child.get("numpy"),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def print_report(result: dict) -> None:
    head = (f"workload {result['workload']} seed {result['seed']} "
            f"passes {result['passes']} commands {result['attempted']}")
    print(head)
    w = result["wall_s"]
    print(f"  wall_s       {w['median']:.4f} s  (q1 {w['q1']:.4f}, "
          f"q3 {w['q3']:.4f}, n={w['n']})")
    if not result["trace"]:
        s = result["setup_s"]
        print(f"  setup_s      {s['median']:.4f} s  (q1 {s['q1']:.4f}, "
              f"q3 {s['q3']:.4f}, n={s['n']})")
        print(f"  peak_rss_mb  {result['metrics']['peak_rss_mb']['value']:.1f} MB")
    else:
        for name, m in result["metrics"].items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  error_rate   {result['error_rate']:.4f} "
          f"({result['failed']}/{result['attempted']} commands failed)")
    for cid, why in result["failures"]:
        print(f"    FAIL {cid}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gcdzeta" / "cli.py").is_file():
        print(f"no gcdzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
