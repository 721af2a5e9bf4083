#!/usr/bin/env python3
"""Regenerate tests/golden/exact.json, the golden corpus of exact CLI outputs.

    python3 scripts/golden.py

Each argv runs in process through gcdzeta.cli.main, in a fresh temporary
directory.  Its record keeps the exit code, stdout and stderr: each
stream as its text when that is one short line (or nothing), else as the
sha256 of its UTF-8 bytes.  tests/test_golden.py reruns every argv and
compares.  A change that moves an output on purpose regenerates the file
and shows the diff.

The argv are the exact benchmark workload's commands at seeds 1 and 2,
the eval and verify argv that CI pins, the a-threeway guard's edges and
eval menon's argument checks.
Scans and igusa values are left out: their floats pass through libm and
LAPACK, whose last bits may differ between platforms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from gcdzeta import cli  # noqa: E402

CORPUS = ROOT / "tests" / "golden" / "exact.json"
SHORT = 120  # longest line kept as text

K100, K4000 = str(10**100), str(10**4000)
CI_ARGV = [
    "verify menon --nmax 60 --rmax 12",
    "verify a-threeway --nmax 30 --rmax 12",
    "eval menon --n 8648640 --a 17",
    "eval menon --n 999983 --a 2",
    "eval menon --n 10000000 --a 3",
    "eval fr --r 3 --k 2",
    "verify mult --seed 5",
    "verify fr-vanishing",
    "verify mult --samples 1",
    "verify menon --nmax 5 --kmax 99",
    "eval fr --r 300 --k 3",
    "eval fr --r 40 --kmax 45",
    "eval fr --r 1 --kmax 1000000000",
    "eval fr --r 1000 --kmax 1000",
    "verify fr-vanishing --rmax 12 --kmax 15",
    f"eval tau --n 1152921504606846976 --k {K100}",
    f"eval tau --n 1152921504606846976 --k {K100} --format json",
    f"eval tau --n 6 --k {K4000}",
    "verify fr-vanishing --rmax 1 --kmax 1000000000",
    "verify fr-vanishing --rmax 300 --kmax 300",
    f"verify domination --nmax 5 --rmax {K100}",
    f"verify a-threeway --nmax 5 --rmax {K100}",
    f"verify squarefree --nmax 5 --rmax {K100}",
    f"verify menon --nmax 5 --rmax {K100}",
    "eval menon --n 10000001 --a 2",
    "verify mult --samples 100000000000000000",
    "verify squarefree --nmax 5000 --rmax 4",
    "verify domination --nmax 3000 --rmax 4",
    "verify a-threeway --nmax 100 --rmax 3",
    "verify a-threeway --nmax 100 --rmax 20",
    "eval A --n 367463304676036369 --r 2",
    "eval tau --n 999915002889950870417603580143 --k 2",
    "eval A --n 1427247692705959880439315947500961989719490561 --r 2",
    "verify menon --nmax -5",
]
# a-threeway's guard: refused at once, and the largest runs it admits
THREEWAY_ARGV = [
    "verify a-threeway --nmax 2 --rmax 3000",
    "verify a-threeway --nmax 1 --rmax 4000",
    "verify a-threeway --nmax 1 --rmax 1000000",
    "verify a-threeway --nmax 300 --rmax 3",
    "verify a-threeway --nmax 60 --rmax 30",
]
# eval menon's edges: the modulus 1, a negative unit, a non-unit (exit 3),
# and a unit far past int64, which is reduced mod n
MENON_ARGV = [
    "eval menon --n 1 --a 0",
    "eval menon --n 12 --a -1",
    "eval menon --n 12 --a 2",
    "eval menon --n 999983 --a 1000000000000000000000000000001",
]


def corpus_argv() -> list[list[str]]:
    """Every argv of the corpus, each once, in first-seen order."""
    seen = {}
    for seed in (1, 2):
        for cmd in workloads.build("exact", seed):
            seen.setdefault(tuple(cmd.argv), None)
    for line in CI_ARGV + THREEWAY_ARGV + MENON_ARGV:
        seen.setdefault(tuple(line.split()), None)
    return [list(argv) for argv in seen]


def _stream(text: str) -> str | dict:
    if text == "" or (text.count("\n") == 1 and text.endswith("\n")
                      and len(text) <= SHORT + 1):
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def record(argv: list[str]) -> dict:
    """Run argv through cli.main in a fresh temporary directory; its exit
    code with its stdout and stderr as the corpus stores them."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": _stream(out.getvalue()),
            "stderr": _stream(err.getvalue())}


def main() -> int:
    entries = [record(argv) for argv in corpus_argv()]
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} records to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
