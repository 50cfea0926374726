"""Smoke test for the benchmark: tiny sizes, names and units only.

Run with ``python -m pytest benchmarks/test_smoke.py``.  Timings are not
checked; every metric named in BENCHMARK.json must be reported with its
unit, and the benchmark must refuse to run without the isvp sources.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace, section):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks")
    out = _run(tmp_path, "dense-sweep", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_weighted_percentile_matches_median_for_equal_weights():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0]
    samples = [(v, 1.0) for v in values]
    assert run.weighted_percentile(samples, 50) == pytest.approx(statistics.median(values))


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(21) == 52
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(1000) == 90


def test_local_speed_factor_uses_the_nearest_samples():
    import numpy as np

    probe = run.SpeedProbe(np, 3, 2, 1, reference_ms=2.0)
    probe.samples_ms = [1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0]
    assert probe.local_factor(0) == pytest.approx(2.0)
    assert probe.local_factor(6) == pytest.approx(0.5)
    assert probe.factor() == pytest.approx(0.5)
