"""Figure 4: frequency gain (FG) of MGA before/after recovery.

Paper shape: FG before recovery is large and positive; LDPRecover cuts it
sharply (near zero); LDPRecover* can push it negative; Detection
over-corrects because it removes genuine users holding target items.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import bench_context, bench_trials, bench_users, column, show
from repro.sim.figures import figure4_rows


@pytest.mark.parametrize("dataset", ["ipums", "fire"])
def test_fig4(dataset, run_once):
    rows = run_once(
        lambda: figure4_rows(
            dataset_name=dataset,
            num_users=bench_users(40_000),
            trials=bench_trials(5),
            rng=4,
            ctx=bench_context(),
        )
    )
    show(f"Figure 4 ({dataset}): MGA frequency gain", rows)
    before = column(rows, "fg_before")
    recover = column(rows, "fg_ldprecover")
    star = column(rows, "fg_ldprecover_star")
    assert np.all(before > 0), "MGA must realize a positive gain"
    assert np.all(np.abs(recover) < before / 2), "LDPRecover must suppress the gain"
    assert np.all(np.abs(star) < before / 2), "LDPRecover* must suppress the gain"
