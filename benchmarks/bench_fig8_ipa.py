"""Figure 8: MGA vs MGA-IPA poisoning strength (IPUMS, no recovery).

Paper shape: the general (output) poisoning attack is orders of magnitude
stronger than the input poisoning variant — e.g. for GRR the paper reports
MGA at 6.07e-2..1.08 vs MGA-IPA at ~5e-4, a 2-4 order gap.
"""

from __future__ import annotations

import numpy as np

from conftest import bench_context, bench_trials, bench_users, column, show
from repro.sim.figures import figure8_rows


def test_fig8(run_once):
    rows = run_once(
        lambda: figure8_rows(
            num_users=bench_users(60_000),
            trials=bench_trials(5),
            rng=8,
            ctx=bench_context(),
        )
    )
    show("Figure 8 (IPUMS): MGA vs MGA-IPA", rows)
    mga = column(rows, "mse_mga")
    ipa = column(rows, "mse_mga_ipa")
    assert np.all(ipa < mga), "IPA must be weaker at every beta"
    assert (mga / ipa).max() > 10, "the gap must reach an order of magnitude"
    grr = [r for r in rows if r["cell"] == "grr"]
    assert grr[-1]["mse_mga"] > grr[0]["mse_mga"], "MGA grows with beta"
