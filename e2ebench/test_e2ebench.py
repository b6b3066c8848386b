"""The benchmark's own test: a tiny-scale run of every workload.

    python -m pytest e2ebench/test_e2ebench.py

Not part of the repository's tier-1 suite (``pytest.ini`` collects only
``tests`` and ``benchmarks``).  It checks that each run prints every
metric named in BENCHMARK.json with its unit, reports attempted and
failed counts, and counts a deliberately corrupted reference answer as a
failed statement.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: the workloads BENCHMARK.json gates, then those run only by hand
GATED = ["paths_indexed", "serve_mixed"]
WORKLOADS = GATED + ["paths_churn", "analytics_scan"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(workload: str, trace: int, *extra: str) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "0.5", "--trace", str(trace),
               "--scale", "0.02", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == GATED


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    result = run(workload, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_reference_counts_as_failed(workload):
    result = run(workload, 0, "--corrupt-reference")
    assert result["failed"] >= 1
    assert result["correct"] is False
