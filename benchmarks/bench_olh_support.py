"""OLH support-scan benchmark: per-user-seed grid vs. seed-cohort batching.

Per-user-seed OLH aggregation hashes the full (users x domain) grid —
O(n*d) splitmix64 evaluations per chunk — which is the single most
expensive oracle operation behind the report-level exhibits (Figures 3-7,
Table I).  Seed-cohort mode (``OLH(cohort=K)`` / ``--olh-cohort K``)
draws each chunk's hash keys from K shared seeds, collapsing aggregation
to one domain hash per cohort seed plus per-seed histograms of the
reported values: O(K*d + n) per chunk.

This bench times ``chunked_genuine_counts`` both ways at the accepted
target scale (d=1024, n=1e6 by default; scale n down with
``REPRO_BENCH_USERS``) and asserts the >=5x speedup bar at full scale
(>=2.5x at reduced smoke scale), that both paths estimate the same truth,
that the grouped aggregation is bit-identical to the grid scan on the
same reports, and that a cohort-mode cell stays workers=N bit-identical
to workers=1.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import bench_trials, bench_users, bench_workers, show
from repro.attacks import MGAAttack
from repro.datasets import ipums_like, zipf_dataset
from repro.protocols import OLH
from repro.sim.experiment import RunContext, evaluate_recovery
from repro.sim.pipeline import chunked_genuine_counts

#: The acceptance scale: d=1024, n=1e6 (override n via REPRO_BENCH_USERS).
D = 1024
N_USERS = bench_users(1_000_000) or 1_000_000
COHORT = 256
CHUNK_USERS = 131_072


def test_olh_cohort_support_speedup(run_once):
    """Tentpole acceptance: cohort-mode genuine aggregation is >=5x faster
    than the per-user-seed grid scan at d=1024, n=1e6 (>=2.5x at reduced
    smoke scale), with both paths unbiased against the same truth."""
    dataset = zipf_dataset(domain_size=D, num_users=N_USERS, exponent=1.1, rng=0)
    per_user = OLH(epsilon=0.5, domain_size=D)
    cohort = per_user.with_cohort(COHORT)

    start = time.perf_counter()
    grid_counts = chunked_genuine_counts(
        per_user, dataset.counts, rng=1, chunk_users=CHUNK_USERS
    )
    grid_s = time.perf_counter() - start

    start = time.perf_counter()
    cohort_counts = run_once(
        lambda: chunked_genuine_counts(
            cohort, dataset.counts, rng=1, chunk_users=CHUNK_USERS
        )
    )
    cohort_s = time.perf_counter() - start

    n = dataset.num_users
    grid_mse = float(
        np.mean((per_user.estimate_frequencies(grid_counts, n) - dataset.frequencies) ** 2)
    )
    cohort_mse = float(
        np.mean((cohort.estimate_frequencies(cohort_counts, n) - dataset.frequencies) ** 2)
    )
    # Both unbiased estimates of the same truth: MSE ~ variance/n^2 bound.
    bound = 3.0 * per_user.theoretical_variance(n) / n**2
    assert grid_mse < bound and cohort_mse < bound

    speedup = grid_s / cohort_s if cohort_s else float("nan")
    full_scale = N_USERS * D >= 500_000_000
    floor = 5.0 if full_scale else 2.5
    show(
        f"OLH genuine aggregation (d={D}, n={n}, cohort K={COHORT})",
        [
            {"path": "per-user-seed grid", "seconds": grid_s, "speedup": 1.0},
            {"path": f"seed-cohort (K={COHORT})", "seconds": cohort_s, "speedup": speedup},
        ],
    )
    assert speedup >= floor, f"cohort speedup {speedup:.2f}x below the {floor}x bar"


def test_olh_cohort_grouped_equals_grid_scan():
    """The grouped O(K*d + n) kernel and the per-user grid scan count the
    exact same batch bit for bit (aggregation is deterministic)."""
    n = min(N_USERS, 200_000)
    per_user = OLH(epsilon=0.5, domain_size=D)
    cohort = per_user.with_cohort(COHORT)
    items = np.random.default_rng(2).integers(0, D, size=n)
    reports = cohort.perturb(items, np.random.default_rng(3))
    np.testing.assert_array_equal(
        cohort.support_counts(reports), per_user.support_counts(reports)
    )


def test_olh_cohort_workers_bit_identical():
    """A cohort-mode chunked cell is bit-identical across a worker pool —
    the engine's workers=N == workers=1 guarantee survives the fast path."""
    dataset = ipums_like(num_users=20_000)
    attack = MGAAttack(domain_size=dataset.domain_size, r=10, rng=0)
    trials = bench_trials(4)
    pool_workers = max(2, bench_workers(4))

    def cell(workers):
        return evaluate_recovery(
            dataset,
            OLH(epsilon=0.5, domain_size=dataset.domain_size),
            attack,
            beta=0.05,
            trials=trials,
            rng=7,
            chunk_users=5_000,
            olh_cohort=64,
            ctx=RunContext(workers=workers),
        )

    serial = cell(1)
    pooled = cell(pool_workers)
    assert serial == pooled, "workers must not change cohort-mode results"
