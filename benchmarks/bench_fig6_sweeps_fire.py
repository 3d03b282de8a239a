"""Figure 6: impact of beta / epsilon / eta on recovery from AA (Fire).

Same sweeps as Figure 5 on the larger, flatter Fire workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import bench_context, bench_trials, bench_users, column, show
from repro.sim.figures import sweep_rows


@pytest.mark.parametrize("parameter", ["beta", "epsilon", "eta"])
def test_fig6(parameter, run_once):
    rows = run_once(
        lambda: sweep_rows(
            "fire",
            parameter,
            num_users=bench_users(60_000),
            trials=bench_trials(5),
            rng=6,
            ctx=bench_context(),
        )
    )
    show(f"Figure 6 (Fire): AA sweep over {parameter}", rows)
    before = column(rows, "mse_before")
    recover = column(rows, "mse_ldprecover")
    if parameter == "epsilon":
        # See bench_fig5: at large epsilon recovery on a near-clean vector
        # is a wash, matching the paper's Table I inversion.
        assert np.mean(recover < before) >= 0.8
        assert np.all(recover < 2 * before)
    else:
        assert np.all(recover < before), "recovery must beat poisoned at every point"
