"""Scenario exhibit: heavy-hitter promotion and repair (beyond the paper).

Qualitative shape: MGA's stated goal is planting its targets in the
popular list, and at the paper's epsilon it does — the poisoned top-k is
dominated by promoted tail items.  Target-aware recovery (LDPRecover*)
must evict a substantial share of them and lift top-k precision; the
non-knowledge variant is shown for contrast (its overshooting eta=0.2
distorts the untargeted mass, so it does not reliably repair the top-k —
knowledge is what buys eviction).
"""

from __future__ import annotations

import numpy as np

from conftest import bench_context, bench_trials, bench_users, column, show
from repro.sim.scenarios import heavyhitter_rows


def test_heavyhitter_repair(run_once):
    rows = run_once(
        lambda: heavyhitter_rows(
            num_users=bench_users(120_000),
            trials=bench_trials(3),
            rng=12,
            ctx=bench_context(),
        )
    )
    show("Scenario: heavy-hitter promotion & repair (heavyhitter)", rows)
    promoted_poisoned = column(rows, "promoted_poisoned")
    promoted_star = column(rows, "promoted_recovered_star")
    assert promoted_poisoned.mean() > 2.0, "MGA should plant items into the top-k"
    assert promoted_star.mean() < promoted_poisoned.mean(), (
        "target-aware recovery must evict planted items on average"
    )
    precision_poisoned = column(rows, "precision_poisoned")
    precision_star = column(rows, "precision_recovered_star")
    assert precision_star.mean() > precision_poisoned.mean(), (
        "target-aware recovery must lift top-k precision on average"
    )
