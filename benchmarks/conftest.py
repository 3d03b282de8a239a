"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's exhibits, prints the row
table (the same rows/series the paper reports) and asserts the qualitative
shape.  ``benchmark.pedantic(..., rounds=1)`` wraps the computation so
pytest-benchmark records wall time without re-running heavy exhibits.

Run with (bench files must be named explicitly — pytest's default
``test_*`` pattern skips ``bench_*`` during directory collection, which
keeps the tier-1 suite fast)::

    pytest benchmarks/bench_*.py --benchmark-only

Scale knobs: set ``REPRO_BENCH_USERS`` / ``REPRO_BENCH_TRIALS`` /
``REPRO_BENCH_WORKERS`` environment variables to override the default
(minutes-level, serial) configuration; unset ``REPRO_BENCH_USERS`` and
pass 0 to use the paper's full populations, ``REPRO_BENCH_WORKERS=0``
to fan trials out over every core.  Set ``REPRO_BENCH_CACHE_DIR`` to a
directory to run every exhibit benchmark against a persistent cell cache
(see :mod:`repro.sim.cache`): a warm directory turns exhibit regeneration
into pure cache reads, which is also what ``bench_cell_cache.py``
measures.  The exhibit benchmarks read both knobs through one
:func:`bench_context`.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.sim.cache import CellCache
from repro.sim.experiment import RunContext, format_table


def bench_users(default: int) -> int | None:
    """Population override from the environment (0 = paper scale)."""
    raw = os.environ.get("REPRO_BENCH_USERS")
    if raw is None:
        return default
    value = int(raw)
    return None if value == 0 else value


def bench_trials(default: int) -> int:
    return int(os.environ.get("REPRO_BENCH_TRIALS", default))


def bench_workers(default: int = 1) -> int:
    """Trial-level parallelism override (``REPRO_BENCH_WORKERS``, 0 = all cores)."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", default))


def bench_cache() -> CellCache | None:
    """Cell cache from ``REPRO_BENCH_CACHE_DIR``, or ``None`` (no caching)."""
    raw = os.environ.get("REPRO_BENCH_CACHE_DIR")
    return CellCache(raw) if raw else None


def bench_context() -> RunContext:
    """The exhibit benchmarks' run context: :func:`bench_workers` workers
    and the :func:`bench_cache` cell cache."""
    return RunContext(workers=bench_workers(), cache=bench_cache())


#: Exhibit tables accumulated during the run; flushed after capture ends.
_EXHIBITS: list[str] = []


def show(title: str, rows: list[dict[str, object]]) -> None:
    """Record one exhibit's table under a banner.

    pytest's fd-level capture swallows per-test prints, so the tables are
    accumulated here and emitted by :func:`pytest_terminal_summary` once
    capture is over — the bench harness's whole point is showing the
    regenerated rows.
    """
    text = f"\n=== {title} ===\n{format_table(rows)}"
    print(text)  # visible immediately under -s
    _EXHIBITS.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Emit every regenerated exhibit table after the test summary."""
    if not _EXHIBITS or config.option.capture == "no":
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("========== regenerated paper exhibits ==========")
    for text in _EXHIBITS:
        terminalreporter.write_line(text)


def column(rows: list[dict[str, object]], key: str) -> np.ndarray:
    return np.array([row[key] for row in rows], dtype=np.float64)


@pytest.fixture()
def run_once(benchmark):
    """Run a zero-arg callable exactly once under pytest-benchmark."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner
