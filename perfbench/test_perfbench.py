"""The benchmark's own tests: tiny passes, failure accounting, oracles.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_run(tmp_path, workload, trace=False, commands=None, passes=2):
    return run.run_workload(workload, 11, 0, trace, tiny=True,
                            min_passes=passes, commands=commands,
                            run_dir=tmp_path / workload)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_of_every_workload(tmp_path, workload):
    result = tiny_run(tmp_path, workload)
    assert result["failures"] == []
    assert result["attempted"] == 2 * len(workloads.build(workload, 11, True))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pass_reports_every_layer_metric(tmp_path):
    result = tiny_run(tmp_path, "exact", trace=True, passes=3)
    assert result["failures"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["arith.factorize.calls"]["value"] > 0
    assert result["metrics"]["cli.main.calls"]["value"] == len(
        workloads.build("exact", 11, True))
    spans = (tmp_path / "exact" / "spans.jsonl").read_text().splitlines()
    assert any(json.loads(line)[3] == "cli.main" for line in spans)


def test_wrong_oracle_value_counts_as_failure(tmp_path):
    commands = workloads.build("exact", 11, True)
    target = next(c for c in commands if c.id == "eval.tau.powers")
    wrong = dict(target.check, param=target.check["param"] + 1)
    commands = [dataclasses.replace(c, check=wrong) if c is target else c
                for c in commands]
    result = tiny_run(tmp_path, "exact", commands=commands, passes=1)
    assert result["failed"] == 1
    assert result["failures"][0][0] == "eval.tau.powers"
    assert result["failures"][0][1].startswith("oracle:")


def test_nonzero_exit_counts_as_failure(tmp_path):
    bad = workloads.Command("eval.menon", ["eval", "menon", "--n", "10",
                                           "--a", "2"],
                            check={"kind": "eval", "target": "menon", "n": 10})
    result = tiny_run(tmp_path, "exact", commands=[bad], passes=2)
    assert result["failed"] == 2
    assert result["failures"][0] == ("eval.menon", "exit code 3")


def test_no_wrapper_left_after_a_traced_run(capsys):
    import gcdzeta.cli as cli

    before = {(m, a): getattr(sys.modules[f"gcdzeta.{m}"], a)
              for m, names in tracer.WRAPPED.items() for a in names}
    t = tracer.Tracer()
    t.install()
    assert tracer.leftover_wrappers()
    assert cli.main(["eval", "A", "--n", "360", "--r", "2"]) == 0
    assert t.uninstall()
    assert tracer.leftover_wrappers() == []
    for (m, a), original in before.items():
        assert getattr(sys.modules[f"gcdzeta.{m}"], a) is original
    layers = t.summary()
    assert layers["cli.main"]["calls"] == 1
    assert layers["arith.factorize"]["calls"] >= 1


def test_oracle_pins_and_small_cases():
    assert abs(oracle.igusa_reference(2, [mpmath.mpf(2)])
               - 5 * mpmath.pi**2 / 24) < 1e-25
    spf = oracle.spf_sieve(200)
    for r in (1, 2, 3):
        vals = oracle.a_values(spf, r, chunk=64)
        for n in range(1, 41):
            total = 0
            for ks in range(n**r):  # every r-tuple in [1, n]^r
                prod = 1
                for _ in range(r):
                    ks, k = divmod(ks, n)
                    prod *= k + 1
                total += math.gcd(prod, n)
            want = Fraction(total, n**r)
            assert vals[n] == pytest.approx(float(want), rel=1e-13)
            factors = oracle.factor_small(n)
            assert math.prod((oracle.a_local_exact(p, k, r)
                              for p, k in factors), start=Fraction(1)) == want
    brute = sum(1 for a in range(1, 301) for b in range(1, 301)
                for c in range(1, 301) if a * b * c <= 300)
    assert oracle.tau3_summatory(300) == brute


def test_workload_inputs_follow_the_seed():
    for name in ("scan", "zeta", "exact"):
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert workloads.build(name, 5) != workloads.build(name, 6)
    for cmd in workloads.build("exact", 5):
        factors = cmd.check.get("factors")
        if factors:
            assert all(workloads.is_prime(p) for p, _ in factors)
            assert 10**16 <= cmd.check["n"] < 10**18
