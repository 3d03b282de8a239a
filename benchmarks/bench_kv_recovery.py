"""Scenario exhibit: key-value recovery sweep (beyond the paper).

Qualitative shape: the targeted key-value attack inflates both the
target keys' frequencies and their means; target-aware recovery
(LDPRecover* + malicious-mass deduction on the value channel) crushes
the frequency gain and strictly improves key-frequency MSE and the
attacked keys' mean error wherever the server's eta=0.2 covers the true
attack strength (beta <= 0.15; at beta=0.2 the deduction is
under-budgeted and the mean channel saturates — visible in the rows).
"""

from __future__ import annotations

import numpy as np

from conftest import bench_context, bench_trials, bench_users, column, show
from repro.sim.scenarios import kv_rows


def test_kv_recovery(run_once):
    rows = run_once(
        lambda: kv_rows(
            num_users=bench_users(60_000),
            trials=bench_trials(3),
            rng=11,
            ctx=bench_context(),
        )
    )
    show("Scenario: key-value recovery (kv)", rows)
    strong = [r for r in rows if 0.05 <= r["beta"] <= 0.15]
    assert strong, "the beta grid must cover the covered-attack regime"
    before = np.array([r["freq_mse_before"] for r in strong])
    star = np.array([r["freq_mse_recover_star"] for r in strong])
    assert np.all(star < before), "target knowledge must improve frequency MSE"
    fg_before = column(rows, "fg_before")
    fg_star = column(rows, "fg_recover_star")
    assert np.all(fg_star < fg_before), "recovery must crush the frequency gain"
    mae_before = np.array([r["target_mean_mae_before"] for r in strong])
    mae_star = np.array([r["target_mean_mae_recover_star"] for r in strong])
    assert np.all(mae_star < mae_before), (
        "the value-channel deduction must improve the attacked keys' means"
    )
    # Poisoning strength grows with beta (per epsilon series).
    for epsilon in sorted({r["epsilon"] for r in rows}):
        series = [r for r in rows if r["epsilon"] == epsilon]
        assert series[-1]["freq_mse_before"] > series[0]["freq_mse_before"]
