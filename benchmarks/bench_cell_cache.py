"""Cell-cache throughput: cold simulation vs. warm cache-read regeneration.

The point of :mod:`repro.sim.cache` is report-level throughput: a warm
cache turns figure regeneration into pure JSON reads.  This bench runs the
Figure 5 beta sweep cold (simulating and storing every cell) and then warm
(serving every cell from disk), asserts the warm pass executed zero
simulation tasks and returned identical rows, and records the warm pass's
wall time — the number that should stay flat no matter how large the
populations grow.
"""

from __future__ import annotations

from conftest import bench_trials, bench_users, bench_workers, show
from repro.sim.cache import CellCache
from repro.sim.engine import TASK_COUNTER
from repro.sim.experiment import RunContext
from repro.sim.figures import sweep_rows


def test_cell_cache_warm_regeneration(run_once, tmp_path):
    cache = CellCache(tmp_path / "cells")
    kwargs = dict(
        num_users=bench_users(60_000),
        trials=bench_trials(5),
        rng=5,
        ctx=RunContext(workers=bench_workers(), cache=cache),
    )
    cold = sweep_rows("ipums", "beta", **kwargs)
    assert cache.stats.stores == len(cold)

    TASK_COUNTER.reset()
    warm = run_once(lambda: sweep_rows("ipums", "beta", **kwargs))
    assert TASK_COUNTER.count == 0, "warm regeneration must not simulate"
    assert warm == cold, "cached rows must reproduce the cold run exactly"
    assert cache.stats.hits >= len(cold)
    show("Figure 5 beta sweep, served entirely from the cell cache", warm)
