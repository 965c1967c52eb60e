"""Smoke test of the benchmark: one shrunken run per trace mode prints every
metric BENCHMARK.json declares, with its unit, and passes its output checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == tracer.metric_specs()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, key):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "n1-suites",
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[key]}
    for name, unit in got.items():
        assert f"  {name} = " in proc.stdout and f" {unit}\n" in proc.stdout
