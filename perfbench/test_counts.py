"""The benchmark's own test: exact counts repeat between two traced runs.

    python3 -m pytest -q perfbench/test_counts.py

Each workload gets two short traced runs with the same seed; every metric
that is a count or computed bytes (not a time) must come out identical,
and both runs must pass their correctness checks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
EXACT = (
    "grid.to_spectral.calls_per_step",
    "grid.to_physical.calls_per_step",
    "grid.transform.computed_mb_per_step",
    "monitors.measure.calls_per_step",
    "stochastic.expm.calls",
    "linops.solver.computed_mb",
    "stochastic.bundle.computed_mb",
    "snapshots.bytes",
    "diagnostics.bytes",
)


def traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
