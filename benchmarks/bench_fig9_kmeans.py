"""Figure 9: LDPRecover-KM vs plain k-means under MGA-IPA (IPUMS).

Paper shape: integrating the k-means cluster statistics into LDPRecover
(LDPRecover-KM) recovers more accurately than the k-means defense alone —
the paper reports a 48.9% improvement for GRR.
"""

from __future__ import annotations

from conftest import bench_context, bench_trials, bench_users, column, show
from repro.sim.figures import figure9_rows


def test_fig9(run_once):
    rows = run_once(
        lambda: figure9_rows(
            num_users=bench_users(20_000),
            trials=bench_trials(3),
            rng=9,
            ctx=bench_context(),
        )
    )
    show("Figure 9 (IPUMS): LDPRecover-KM vs k-means under MGA-IPA", rows)
    km_only = column(rows, "mse_kmeans")
    km_recover = column(rows, "mse_ldprecover_km")
    assert km_recover.mean() < km_only.mean(), "LDPRecover-KM must beat plain k-means"
    # The paper's headline: ~50% improvement; we require at least 30%.
    assert km_recover.mean() < 0.7 * km_only.mean()
