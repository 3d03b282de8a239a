"""Smoke tests of the benchmark at tiny scale.

Run from the repository root (the file is named so the tier-1 collection
skips it)::

    python -m pytest perfbench/smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import pytest

import common
import tracing

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd=common.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_checks_pass(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in spec)
    table = {line.split()[0]: line.split() for line in lines[:-1] if line.split()}
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert table[name][2] == unit and table[name][3].startswith("n=")
    if trace and workload != "serve-mixed":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert not common.WORK_ROOT.exists()


def test_per_layer_spec_matches_tracing() -> None:
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        tracing.per_layer_metrics()
    )


def test_fails_without_sources() -> None:
    """A directory holding only BENCHMARK.json and the benchmark's paths
    must make the command fail without printing a result."""
    with common.WorkDir() as work:
        bare = tempfile.mkdtemp(dir=work)
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(common.ROOT / path, f"{bare}/{path}")
        proc = _run(WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children() -> None:
    spans = [
        tracing.Span("sim.pipeline", "run_trial", 0.0, 10.0, -1),
        tracing.Span("protocols.perturb", "perturb", 1.0, 4.0, 0),
        tracing.Span("protocols.hashing", "hash_items", 3.0, 6.0, 0),
    ]
    summary = tracing.summarize(spans, wall=20.0)
    layers = summary["layers"]
    assert layers["sim.pipeline"]["self_s"] == pytest.approx(5.0)
    assert layers["protocols.perturb"]["share"] == pytest.approx(0.15)
    assert summary["covered_s"] == pytest.approx(10.0)
