"""Adaptive trial allocation: trials saved vs a fixed budget (Figure 8).

Runs the Figure 8 sweep twice — once with every cell at a fixed trial
count, once under a variance-targeted :class:`~repro.sim.engine.TrialBudget`
derived from the fixed run's own achieved precision — and reports how
many simulation tasks the stopping rule saved.  Quiet cells converge at
an early checkpoint; only noisy cells spend the full cap, so the adaptive
sweep must never cost more than the fixed one and (at the generous
target used here) must cost strictly less.

A warm rerun against the same cache directory then proves the cached
cells: zero tasks, rows identical to the first adaptive pass.

Scale knobs: ``REPRO_BENCH_USERS`` / ``REPRO_BENCH_TRIALS`` (the fixed
cap) / ``REPRO_BENCH_WORKERS`` as everywhere in this suite.
"""

from __future__ import annotations

import numpy as np

from conftest import bench_trials, bench_users, bench_workers, show
from repro.sim import figures
from repro.sim.cache import CellCache
from repro.sim.engine import TASK_COUNTER, TrialBudget
from repro.sim.experiment import RunContext


def test_adaptive_budget_saves_trials(run_once, benchmark, tmp_path):
    num_users = bench_users(20_000)
    max_trials = bench_trials(8)
    workers = bench_workers(1)

    def generate():
        # The fixed reference: every cell runs exactly max_trials.
        TASK_COUNTER.reset()
        fixed = figures.figure8_rows(
            num_users=num_users, trials=max_trials, rng=8,
            ctx=RunContext(workers=workers),
        )
        tasks_fixed = TASK_COUNTER.count
        # Target from the fixed run's own precision: three times the
        # worst cell's achieved CI half-width.  Half-widths shrink like
        # 1/sqrt(n), so every cell reaches the target well before the cap
        # — the saving is structural, not luck.
        widths = [
            max(float(row["mse_mga±"]), float(row["mse_mga_ipa±"])) for row in fixed
        ]
        target = 3.0 * max(widths)
        budget = TrialBudget(
            target_halfwidth=target, min_trials=2, max_trials=max_trials, batch=2
        )
        cache = CellCache(tmp_path / "adaptive-cache")
        ctx = RunContext(workers=workers, cache=cache, budget=budget)
        TASK_COUNTER.reset()
        adaptive = figures.figure8_rows(num_users=num_users, rng=8, ctx=ctx)
        tasks_adaptive = TASK_COUNTER.count
        trials_per_cell = [entry.meta["trials"] for entry in cache.entries()]
        # Warm rerun: the summary entries (and behind them the cells'
        # trial streams) serve the whole sweep without a single task.
        TASK_COUNTER.reset()
        warm = figures.figure8_rows(num_users=num_users, rng=8, ctx=ctx)
        return {
            "cells": len(fixed),
            "tasks_fixed": tasks_fixed,
            "tasks_adaptive": tasks_adaptive,
            "tasks_warm": TASK_COUNTER.count,
            "target_ci": target,
            "mean_trials": float(np.mean(trials_per_cell)),
            "adaptive_rows": adaptive,
            "warm_rows": warm,
        }

    result = run_once(generate)

    assert result["tasks_fixed"] == result["cells"] * max_trials
    assert result["tasks_adaptive"] < result["tasks_fixed"], (
        f"adaptive spend {result['tasks_adaptive']} must beat the fixed "
        f"{result['tasks_fixed']} at a 3x-worst-cell target"
    )
    assert result["tasks_warm"] == 0, "warm rerun must be pure cache reads"
    assert result["warm_rows"] == result["adaptive_rows"], (
        "rows served from trial blocks must equal the freshly simulated rows"
    )

    saved = result["tasks_fixed"] - result["tasks_adaptive"]
    table = [
        {
            "cells": result["cells"],
            "fixed_cap": max_trials,
            "mean_trials": result["mean_trials"],
            "tasks_fixed": result["tasks_fixed"],
            "tasks_adaptive": result["tasks_adaptive"],
            "trials_saved": saved,
            "saved_pct": 100.0 * saved / result["tasks_fixed"],
        }
    ]
    show("Adaptive trial allocation (Figure 8; target = 3x worst cell CI)", table)
    benchmark.extra_info["tasks_fixed"] = result["tasks_fixed"]
    benchmark.extra_info["tasks_adaptive"] = result["tasks_adaptive"]
    benchmark.extra_info["trials_saved"] = saved
    benchmark.extra_info["target_ci"] = result["target_ci"]
