"""Microbenchmarks: protocol kernel throughput and the experiment engine.

Not a paper exhibit, but the substrate the whole evaluation stands on:
perturbation, support counting and the fast distributional path for each
protocol, plus the recovery itself and the parallel/chunked experiment
engine.  Kernels use pytest-benchmark's normal repeated timing; the engine
smoke tests time one fig3-sized cell serially vs. across a worker pool and
report the wall-clock speedup in the exhibit summary.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_trials, bench_users, bench_workers, show
from repro.attacks import MGAAttack
from repro.core.recover import recover_frequencies
from repro.datasets import ipums_like
from repro.protocols import make_protocol
from repro.sim.experiment import RunContext, evaluate_recovery
from repro.sim.pipeline import run_trial

N_USERS = 20_000
DATASET = ipums_like(num_users=N_USERS)
D = DATASET.domain_size


@pytest.fixture(params=["grr", "oue", "olh"])
def protocol(request):
    return make_protocol(request.param, epsilon=0.5, domain_size=D)


def test_perturb_throughput(benchmark, protocol):
    items = np.random.default_rng(0).integers(0, D, size=N_USERS)
    benchmark(lambda: protocol.perturb(items, 1))


def test_support_counts_throughput(benchmark, protocol):
    items = np.random.default_rng(0).integers(0, D, size=N_USERS)
    reports = protocol.perturb(items, 1)
    benchmark(lambda: protocol.support_counts(reports))


def test_subset_support_counts_throughput(benchmark, protocol):
    """Eleven report subsets counted in one call, the shape of a k-means
    defense pass: ten random subsets plus the whole batch."""
    rng = np.random.default_rng(0)
    reports = protocol.perturb(rng.integers(0, D, size=N_USERS), 1)
    masks = rng.random((11, N_USERS)) < 0.1
    masks[-1] = True
    benchmark(lambda: protocol.subset_support_counts(reports, masks))


def test_fast_path_throughput(benchmark, protocol):
    counts = DATASET.counts
    benchmark(lambda: protocol.sample_genuine_counts(counts, 1))


def test_recovery_throughput(benchmark, protocol):
    rng = np.random.default_rng(2)
    poisoned = rng.normal(1.0 / D, 0.05, size=D)
    benchmark(lambda: recover_frequencies(poisoned, protocol))


def test_fast_path_at_paper_scale(benchmark):
    """The headline cost claim: a full-population IPUMS trial in the fast
    path is milliseconds, which is what makes the paper-scale sweeps
    tractable."""
    full = ipums_like()  # 389,894 users
    proto = make_protocol("oue", epsilon=0.5, domain_size=full.domain_size)
    benchmark(lambda: proto.sample_genuine_counts(full.counts, 1))


def test_engine_parallel_speedup(benchmark):
    """Smoke the parallel engine on one fig3-sized cell: time workers=1 vs
    a 4-way pool (override with REPRO_BENCH_WORKERS), assert the results
    are bit-identical, and report the wall-clock speedup."""
    dataset = ipums_like(num_users=bench_users(40_000))
    proto = make_protocol("oue", epsilon=0.5, domain_size=dataset.domain_size)
    attack = MGAAttack(domain_size=dataset.domain_size, r=10, rng=0)
    trials = bench_trials(8)
    pool_workers = bench_workers(4)

    def cell(workers):
        return evaluate_recovery(
            dataset, proto, attack, beta=0.05, trials=trials, mode="sampled",
            rng=3, ctx=RunContext(workers=workers),
        )

    start = time.perf_counter()
    serial = cell(1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    pooled = benchmark.pedantic(lambda: cell(pool_workers), rounds=1, iterations=1)
    pooled_s = time.perf_counter() - start

    assert serial.mse_before == pooled.mse_before
    assert serial.mse_recover == pooled.mse_recover
    assert serial.mse_recover_star == pooled.mse_recover_star
    assert serial.fg_before == pooled.fg_before
    speedup = serial_s / pooled_s if pooled_s else float("nan")
    show(
        f"Engine parallel smoke (fig3-sized cell, {trials} trials)",
        [
            {"workers": 1, "seconds": serial_s, "speedup": 1.0},
            {"workers": pool_workers, "seconds": pooled_s, "speedup": speedup},
        ],
    )


def test_engine_chunked_memory_bound(benchmark):
    """The chunked exact path at paper scale: a full-population OUE trial
    whose live report matrix never exceeds chunk_users x d booleans (the
    unchunked matrix would be n x d)."""
    full = ipums_like(num_users=bench_users(0) or None)  # default: paper scale
    proto = make_protocol("oue", epsilon=0.5, domain_size=full.domain_size)
    attack = MGAAttack(domain_size=full.domain_size, r=10, rng=0)
    trial = benchmark.pedantic(
        lambda: run_trial(
            full, proto, attack, beta=0.05, mode="chunked", rng=1, chunk_users=65_536
        ),
        rounds=1,
        iterations=1,
    )
    assert trial.m > 0
    genuine_mse = float(np.mean((trial.true_frequencies - trial.genuine_frequencies) ** 2))
    # An unbiased estimator's MSE is its variance; allow 3x the theory value.
    expected = proto.theoretical_variance(trial.n) / trial.n**2
    assert genuine_mse < 3.0 * expected
