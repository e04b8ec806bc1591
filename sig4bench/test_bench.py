"""Self-test of the benchmark, at tiny sizes.

    python3 -m pytest sig4bench -q

Runs every workload in quick mode, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit; then checks
that the oracle counts an output moved by 1e-6 as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result["metrics"]


def _program():
    sys.path.insert(0, str(ROOT / "src"))
    import sig4

    return sig4


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _run(workload, trace)
        declared = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in metrics.items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
        if trace and workload in ("cell-points", "fresh-lattice"):
            assert metrics["hypergeometric.hyp2f1.calls"]["value"] == 0
            assert metrics["numerics.integrate.calls"]["value"] == 0


@pytest.mark.parametrize("name", ["cell-points", "fresh-lattice", "real-axis"])
def test_oracle_fails_an_output_moved_by_1e_6(name):
    workload = workloads.WORKLOADS[name](_program(), 5, True)
    workload.setup()
    ops = workload.run_pass(0).records
    checker = oracle.Checker()
    failed = oracle.count_failed(ops, checker)
    victim = next(op for op in ops if not op.failed and oracle.count_failed([op], checker) == 0)
    key, arg, value = victim.items[0]
    victim.items[0] = (key, arg, complex(value) + 1e-6 * max(1.0, abs(complex(value))))
    assert oracle.count_failed(ops, checker) == failed + 1
    assert oracle.canary(ops, checker) is True
