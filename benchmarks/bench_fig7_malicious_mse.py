"""Figure 7: MSE between estimated and true malicious frequencies (IPUMS,
MGA, beta in [0.05, 0.25]).

Paper shape: LDPRecover* (which knows the target items) estimates the
malicious frequencies more accurately than LDPRecover's uniform split at
every beta — the mechanism behind its lower recovery MSE.
"""

from __future__ import annotations

from conftest import bench_context, bench_trials, bench_users, column, show
from repro.sim.figures import figure7_rows


def test_fig7(run_once):
    rows = run_once(
        lambda: figure7_rows(
            num_users=bench_users(60_000),
            trials=bench_trials(5),
            rng=7,
            ctx=bench_context(),
        )
    )
    show("Figure 7 (IPUMS): malicious-frequency estimation MSE", rows)
    plain = column(rows, "malicious_mse_ldprecover")
    star = column(rows, "malicious_mse_ldprecover_star")
    assert star.mean() < plain.mean(), "partial knowledge must estimate f_Y better"
    # Per-protocol averages preserve the ordering too.
    for protocol in ("grr", "oue", "olh"):
        sub = [r for r in rows if r["cell"] == f"mga-{protocol}"]
        assert column(sub, "malicious_mse_ldprecover_star").mean() < column(
            sub, "malicious_mse_ldprecover"
        ).mean()
