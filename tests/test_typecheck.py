"""The mypy gate, exercised when mypy is installed (CI always installs it).

The pinned configuration (``mypy.ini``) covers the determinism-critical
modules: the recovery math, the protocol layer whose attributes the cell
cache fingerprints, the lint subsystem itself, and the cache/shard pair.
Locally the test skips when mypy is absent — it is a dev/CI tool, not a
runtime dependency.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_mypy_gate_is_clean():
    pytest.importorskip("mypy")
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, f"mypy gate failed:\n{result.stdout}{result.stderr}"


def test_mypy_config_is_pinned():
    """The config keeps the knobs the gate depends on."""
    config = (REPO_ROOT / "mypy.ini").read_text()
    assert "check_untyped_defs = True" in config
    assert "warn_unused_ignores = True" in config
    for scoped in ("src/repro/core", "src/repro/protocols", "src/repro/lint",
                   "src/repro/sim/cache.py", "src/repro/sim/shard.py",
                   "src/repro/sim/engine.py", "src/repro/sim/scenarios.py",
                   "src/repro/sim/figures.py", "src/repro/sim/pipeline.py"):
        assert scoped in config
