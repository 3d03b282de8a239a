"""Scenario exhibits: evolving-population epochs + defense shoot-out.

Qualitative shape, epochs: the population drifts every epoch while the
scheduled MGA follows its shape (always-on / mid-stream burst / ramp).
Recovery strictly improves the attacked epochs' MSE, the burst schedule's
target frequency gain jumps exactly when the schedule switches on, and
the cross-epoch z-score detector — fitted on each trial's *prior* raw
views — catches the burst epoch far better under a clean history than the
constant schedule's contaminated one.  The fan-in cells (``-c3``) run the
same burst through three round-robin collectors merged into the service.

Qualitative shape, defenses: on each (attack, epsilon, beta) regime every
competing defense repairs the same poisoned rounds; the ``winner`` column
is the lowest-MSE method and must actually improve on the undefended
estimate, with LDPRecover* taking at least one regime.
"""

from __future__ import annotations

import numpy as np

from conftest import bench_context, bench_trials, bench_users, show
from repro.sim.scenarios import (
    DEFENSE_METHODS,
    EPOCH_COUNT,
    EPOCH_SCHEDULES,
    defenses_rows,
    epochs_rows,
)

BURST_AT = EPOCH_SCHEDULES[1].start_epoch


def test_epoch_recovery(run_once):
    rows = run_once(
        lambda: epochs_rows(
            num_users=bench_users(20_000),
            trials=bench_trials(3),
            rng=13,
            ctx=bench_context(),
        )
    )
    show("Scenario: evolving-population epochs", rows)
    assert len(rows) == (3 * len(EPOCH_SCHEDULES) + 3) * EPOCH_COUNT
    cells = {r["cell"] for r in rows}
    assert {"burst-grr-c3", "burst-oue-c3", "burst-olh-c3"} <= cells

    # Recovery strictly improves every solidly attacked epoch's MSE.
    attacked = [r for r in rows if r["beta"] >= 0.05]
    assert attacked
    for row in attacked:
        assert row["mse_recover"] < row["mse_before"], row["cell"]
        assert row["mse_star"] < row["mse_before"], row["cell"]
        assert row["fg_star"] < row["fg_before"], row["cell"]

    # The burst's frequency gain switches on exactly at the burst epoch.
    burst = [r for r in rows if r["cell"].startswith("burst") and r["cell"].endswith("c1")]
    clean_fg = np.array([r["fg_before"] for r in burst if r["epoch"] < BURST_AT])
    hot_fg = np.array([r["fg_before"] for r in burst if r["epoch"] >= BURST_AT])
    assert hot_fg.min() > clean_fg.max(), "the burst must dominate the clean epochs"

    # Detection: the clean pre-burst history beats the constant schedule's
    # contaminated one at the moment the burst lands.
    burst_f1 = np.mean([
        r["detection_f1"]
        for r in rows
        if r["cell"].startswith("burst") and r["cell"].endswith("c1")
        and r["epoch"] == BURST_AT
    ])
    constant_f1 = np.mean([
        r["detection_f1"]
        for r in rows
        if r["cell"].startswith("constant") and r["epoch"] == BURST_AT
    ])
    assert burst_f1 > constant_f1, (
        f"clean-history detection ({burst_f1:.2f}) must beat the "
        f"poisoned-history baseline ({constant_f1:.2f})"
    )
    assert burst_f1 >= 0.5


def test_defense_shootout(run_once):
    rows = run_once(
        lambda: defenses_rows(
            num_users=bench_users(40_000),
            trials=bench_trials(3),
            rng=14,
            ctx=bench_context(),
        )
    )
    show("Scenario: defense shoot-out (winner per regime)", rows)
    assert len(rows) == 8
    for row in rows:
        assert row["winner"] in DEFENSE_METHODS
        # Winning means actually improving on the undefended estimate...
        assert row[f"mse_{row['winner']}"] < row["mse_before"], row
        # ...with a ±95% CI column beside every reported mean.
        for method in ("before",) + DEFENSE_METHODS:
            assert f"mse_{method}±" in row and f"fg_{method}±" in row
    assert any(r["winner"] == "recover_star" for r in rows), (
        "LDPRecover* must take at least one regime"
    )
    # A stronger adversary inflates its targets more, in every regime; the
    # undefended MSE ordering additionally holds for the loud MGA (the
    # adaptive attack's error is small enough to sit in sampling noise).
    for attack in ("mga", "aa"):
        for epsilon in (0.5, 2.0):
            series = sorted(
                (r for r in rows if r["attack"] == attack and r["epsilon"] == epsilon),
                key=lambda r: r["beta"],
            )
            assert series[-1]["fg_before"] > series[0]["fg_before"]
            if attack == "mga":
                assert series[-1]["mse_before"] > series[0]["mse_before"]
