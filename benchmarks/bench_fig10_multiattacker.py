"""Figure 10: LDPRecover against five independent adaptive attackers
(IPUMS, beta in [0.05, 0.25]).

Paper shape: multi-attacker poisoning reduces to single-attacker adaptive
poisoning (mixture of distributions), so LDPRecover keeps working — the
paper reports an average 80.2% MSE improvement for GRR.
"""

from __future__ import annotations

import numpy as np

from conftest import bench_context, bench_trials, bench_users, column, show
from repro.sim.figures import figure10_rows


def test_fig10(run_once):
    rows = run_once(
        lambda: figure10_rows(
            num_users=bench_users(60_000),
            trials=bench_trials(5),
            rng=10,
            ctx=bench_context(),
        )
    )
    show("Figure 10 (IPUMS): multi-attacker AA", rows)
    before = column(rows, "mse_before")
    recover = column(rows, "mse_ldprecover")
    assert np.all(recover < before), "recovery must beat poisoned at every beta"
    grr = [r for r in rows if r["cell"] == "mul-aa-grr"]
    improvement = 1 - column(grr, "mse_ldprecover").mean() / column(grr, "mse_before").mean()
    assert improvement > 0.5, "GRR improvement should be large (paper: 80.2%)"
