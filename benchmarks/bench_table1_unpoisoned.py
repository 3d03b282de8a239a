"""Table I: MSE of LDPRecover executed on *unpoisoned* frequencies.

Paper shape (the interesting inversion): on GRR the recovery pipeline
improves even clean data (the simplex projection is the 'consistency'
post-processing of Wang et al.); on OUE and OLH, whose clean estimates are
already tight, deducting the learned malicious sum removes genuine mass
and can reduce accuracy.
"""

from __future__ import annotations

import numpy as np

from conftest import bench_context, bench_trials, bench_users, show
from repro.sim.figures import table1_rows


def test_table1(run_once):
    rows = run_once(
        lambda: table1_rows(
            num_users=bench_users(None),  # full paper populations by default
            trials=bench_trials(5),
            rng=1,
            ctx=bench_context(),
        )
    )
    show("Table I: LDPRecover on unpoisoned frequencies", rows)
    for row in rows:
        if row["protocol"] == "grr":
            assert row["mse_after_recovery"] < row["mse_before_recovery"], (
                f"GRR should improve on clean data ({row['dataset']})"
            )
    # OUE/OLH must not improve dramatically (the paper reports degradation;
    # we assert the absence of a spurious large win).
    for row in rows:
        if row["protocol"] in ("oue", "olh"):
            assert row["mse_after_recovery"] > 0.05 * row["mse_before_recovery"]
