"""Figure 3: MSE of LDPRecover and LDPRecover* across datasets, protocols
and attacks (before recovery / Detection / LDPRecover / LDPRecover*).

Paper shape: recovered MSE well below poisoned MSE in every cell; both
LDPRecover variants beat Detection; LDPRecover* is the best under MGA.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import bench_context, bench_trials, bench_users, column, show
from repro.sim.figures import figure3_rows


@pytest.mark.parametrize("dataset", ["ipums", "fire"])
def test_fig3(dataset, run_once):
    rows = run_once(
        lambda: figure3_rows(
            dataset_name=dataset,
            num_users=bench_users(40_000),
            trials=bench_trials(5),
            rng=3,
            ctx=bench_context(),
        )
    )
    show(f"Figure 3 ({dataset}): MSE before/after recovery", rows)
    before = column(rows, "mse_before")
    recover = column(rows, "mse_ldprecover")
    star = column(rows, "mse_ldprecover_star")
    detection = column(rows, "mse_detection")
    assert np.all(recover < before), "LDPRecover must beat the poisoned vector"
    assert np.all(recover < detection), "LDPRecover must beat Detection"
    mga_mask = np.array([row["cell"].startswith("mga") for row in rows])
    assert star[mga_mask].mean() < recover[mga_mask].mean(), (
        "LDPRecover* should win under MGA"
    )
