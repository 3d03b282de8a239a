"""Tests for the parallel, memory-bounded experiment engine."""

from __future__ import annotations

import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from repro.attacks import AdaptiveAttack, MGAAttack
from repro.datasets import zipf_dataset
from repro.exceptions import InvalidParameterError, ReproError
from repro.protocols import OLH, hashing
from repro.sim import engine
from repro.sim.engine import (
    MetricStats,
    Welford,
    aggregate_metrics,
    chunked_genuine_counts,
    chunked_malicious_counts,
    chunked_support_counts,
    parallel_map,
    resolve_workers,
    run_chunked_trial,
)
from repro.sim.experiment import evaluate_recovery
from repro.sim.pipeline import run_trial

D = 16
DATASET = zipf_dataset(domain_size=D, num_users=10_000, exponent=1.0, rng=8)


class TestWelford:
    def test_matches_numpy(self):
        values = np.random.default_rng(0).normal(3.0, 2.0, size=97)
        acc = Welford()
        for v in values:
            acc.add(float(v))
        assert acc.count == values.size
        assert acc.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert acc.variance == pytest.approx(float(np.var(values, ddof=1)), rel=1e-12)

    def test_merge_equals_sequential(self):
        values = np.random.default_rng(1).normal(size=50)
        whole = Welford()
        for v in values:
            whole.add(float(v))
        left, right = Welford(), Welford()
        for v in values[:17]:
            left.add(float(v))
        for v in values[17:]:
            right.add(float(v))
        left.merge(right)
        assert left.count == whole.count
        assert left.mean == pytest.approx(whole.mean, rel=1e-12)
        assert left.variance == pytest.approx(whole.variance, rel=1e-12)

    def test_merge_empty_sides(self):
        acc = Welford()
        acc.add(2.0)
        acc.merge(Welford())
        assert acc.count == 1 and acc.mean == 2.0
        empty = Welford()
        empty.merge(acc)
        assert empty.count == 1 and empty.mean == 2.0

    def test_small_counts_have_no_variance(self):
        acc = Welford()
        assert acc.variance is None and acc.stderr is None
        acc.add(1.0)
        assert acc.variance is None
        snap = acc.snapshot()
        assert isinstance(snap, MetricStats)
        assert snap.ci95_halfwidth is None

    def test_ci95(self):
        acc = Welford()
        for v in (1.0, 2.0, 3.0, 4.0):
            acc.add(v)
        snap = acc.snapshot()
        assert snap.ci95_halfwidth == pytest.approx(1.96 * snap.stderr)


class TestAggregateMetrics:
    def test_missing_metrics_are_absent(self):
        stats = aggregate_metrics([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
        assert stats["a"].count == 2 and stats["a"].mean == 2.0
        assert stats["b"].count == 1
        assert "c" not in stats


def _double(x: float) -> float:
    """Module-level doubling helper (picklable across the pool)."""
    return 2.0 * x


class TestParallelMap:
    def test_inline_and_pool_agree(self):
        tasks = [float(i) for i in range(7)]
        assert parallel_map(_double, tasks, workers=1) == parallel_map(
            _double, tasks, workers=3
        )

    def test_order_preserved(self):
        assert parallel_map(_double, [3.0, 1.0, 2.0], workers=2) == [6.0, 2.0, 4.0]

    def test_workers_validation(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(InvalidParameterError):
            resolve_workers(-2)


#: The test process's pid: pool workers are forked from it, so a task can
#: tell whether it runs in a worker.
_TEST_PID = os.getpid()


def _die_in_worker(x: float) -> float:
    """Module-level task that kills the pool worker running it."""
    if os.getpid() != _TEST_PID:
        os._exit(3)
    raise AssertionError("a pooled task ran inline")


class TestRunScope:
    """One pool per run scope; one pool per call outside any scope; a
    dead worker is a ReproError, and no worker outlives its scope."""

    def test_one_pool_serves_every_call_of_a_scope(self, pool_sizes):
        with engine.run_scope() as pools:
            assert pools == {}
            for n in (3, 7, 2):
                tasks = [float(i) for i in range(n)]
                assert parallel_map(_double, tasks, workers=2) == [2 * t for t in tasks]
            with engine.run_scope() as inner:
                assert inner is pools
                assert parallel_map(_double, [1.0, 2.0], workers=2) == [2.0, 4.0]
            assert parallel_map(_double, [5.0], workers=2) == [10.0]
        assert pool_sizes == [2]
        assert not multiprocessing.active_children()

    def test_calls_outside_a_scope_get_a_pool_each(self, pool_sizes):
        for _ in range(2):
            assert parallel_map(_double, [1.0, 2.0, 3.0], workers=2) == [2.0, 4.0, 6.0]
        assert pool_sizes == [2, 2]
        assert not multiprocessing.active_children()

    def test_a_scope_without_pooled_calls_forks_nothing(self, pool_sizes):
        with engine.run_scope():
            assert parallel_map(_double, [1.0, 2.0], workers=1) == [2.0, 4.0]
        assert pool_sizes == []

    def test_dead_worker_raises_repro_error(self):
        with pytest.raises(ReproError, match="worker process died"):
            parallel_map(_die_in_worker, [1.0, 2.0, 3.0], workers=2)
        assert not multiprocessing.active_children()
        assert parallel_map(_double, [1.0, 2.0], workers=2) == [2.0, 4.0]

    def test_broken_pool_is_dropped_and_replaced_inside_a_scope(self, pool_sizes):
        with engine.run_scope() as pools:
            with pytest.raises(ReproError, match="worker process died"):
                parallel_map(_die_in_worker, [1.0, 2.0], workers=2)
            assert pools == {}
            assert parallel_map(_double, [1.0, 2.0], workers=2) == [2.0, 4.0]
        assert pool_sizes == [2, 2]
        assert not multiprocessing.active_children()


class TestAvailableCpuCount:
    """``workers=0`` must mean the CPUs *available to this process* —
    affinity and cgroup-quota aware — not the machine total, so CI
    containers and shared shard hosts are never oversubscribed."""

    @pytest.fixture(autouse=True)
    def _no_host_quota(self, monkeypatch):
        """Pin the host's own cgroup quota out of these tests."""
        monkeypatch.setattr(engine, "_cgroup_cpu_quota", lambda root="": None)

    def test_prefers_process_cpu_count(self, monkeypatch):
        monkeypatch.setattr(
            engine.os, "process_cpu_count", lambda: 3, raising=False
        )
        assert engine.available_cpu_count() == 3
        assert resolve_workers(0) == 3
        assert resolve_workers(None) == 3

    def test_affinity_mask_beats_cpu_count(self, monkeypatch):
        monkeypatch.delattr(engine.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
        assert engine.available_cpu_count() == 2, (
            "a taskset/cpuset-restricted process must not claim every core"
        )
        assert resolve_workers(0) == 2

    def test_cgroup_quota_caps_the_affinity_count(self, monkeypatch):
        """A --cpus=2 container keeps a full affinity mask: the CFS quota
        must bound the count anyway."""
        monkeypatch.delattr(engine.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            engine.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False
        )
        monkeypatch.setattr(engine, "_cgroup_cpu_quota", lambda root="": 2)
        assert engine.available_cpu_count() == 2
        assert resolve_workers(0) == 2

    def test_cpu_count_is_the_last_resort(self, monkeypatch):
        monkeypatch.delattr(engine.os, "process_cpu_count", raising=False)
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 5)
        assert engine.available_cpu_count() == 5

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(engine.os, "process_cpu_count", raising=False)
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
        assert engine.available_cpu_count() == 1

    def test_explicit_workers_bypass_detection(self, monkeypatch):
        monkeypatch.setattr(
            engine.os, "process_cpu_count", lambda: 2, raising=False
        )
        assert resolve_workers(7) == 7


class TestCgroupCpuQuota:
    """Parsing of the cgroup v2 / v1 CFS quota files."""

    def _v2(self, tmp_path, content):
        (tmp_path / "cpu.max").write_text(content, encoding="ascii")
        return engine._cgroup_cpu_quota(root=str(tmp_path))

    def test_v2_quota(self, tmp_path):
        assert self._v2(tmp_path, "200000 100000\n") == 2

    def test_v2_fractional_quota_rounds_up(self, tmp_path):
        assert self._v2(tmp_path, "150000 100000\n") == 2
        assert self._v2(tmp_path, "50000 100000\n") == 1

    def test_v2_unlimited(self, tmp_path):
        assert self._v2(tmp_path, "max 100000\n") is None

    def test_v2_garbage_is_no_quota(self, tmp_path):
        assert self._v2(tmp_path, "not-a-number\n") is None

    def test_v1_quota(self, tmp_path):
        base = tmp_path / "cpu"
        base.mkdir()
        (base / "cpu.cfs_quota_us").write_text("300000\n", encoding="ascii")
        (base / "cpu.cfs_period_us").write_text("100000\n", encoding="ascii")
        assert engine._cgroup_cpu_quota(root=str(tmp_path)) == 3

    def test_v1_unlimited(self, tmp_path):
        base = tmp_path / "cpu"
        base.mkdir()
        (base / "cpu.cfs_quota_us").write_text("-1\n", encoding="ascii")
        (base / "cpu.cfs_period_us").write_text("100000\n", encoding="ascii")
        assert engine._cgroup_cpu_quota(root=str(tmp_path)) is None

    def test_missing_files_is_no_quota(self, tmp_path):
        assert engine._cgroup_cpu_quota(root=str(tmp_path)) is None


class TestParallelDeterminism:
    """workers=1 and workers=N must produce bit-identical evaluations."""

    @pytest.mark.parametrize("mode", ["fast", "chunked"])
    def test_workers_bit_identical(self, grr, mode):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        kwargs = dict(beta=0.05, eta=0.2, trials=4, mode=mode, rng=77)
        if mode == "chunked":
            kwargs["chunk_users"] = 1_000
        serial = evaluate_recovery(DATASET, grr, attack, workers=1, **kwargs)
        pooled = evaluate_recovery(DATASET, grr, attack, workers=4, **kwargs)
        for metric in (
            "mse_before",
            "mse_recover",
            "mse_recover_star",
            "fg_before",
            "fg_recover",
            "mse_malicious_estimate",
        ):
            assert getattr(serial, metric) == getattr(pooled, metric), metric
        assert serial.stats.keys() == pooled.stats.keys()
        for key in serial.stats:
            assert serial.stats[key] == pooled.stats[key], key

    def test_sampled_mode_parallel(self, grr):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        serial = evaluate_recovery(
            DATASET, grr, attack, trials=2, mode="sampled", with_detection=True,
            rng=5, workers=1,
        )
        pooled = evaluate_recovery(
            DATASET, grr, attack, trials=2, mode="sampled", with_detection=True,
            rng=5, workers=2,
        )
        assert serial.mse_detection == pooled.mse_detection
        assert serial.fg_detection == pooled.fg_detection

    def test_stats_carry_confidence_intervals(self, grr):
        attack = AdaptiveAttack(domain_size=D, rng=1)
        ev = evaluate_recovery(DATASET, grr, attack, trials=5, rng=3)
        assert ev.stats["mse_before"].count == 5
        assert ev.ci95("mse_before") is not None and ev.ci95("mse_before") > 0
        assert ev.ci95("nonexistent") is None


class TestChunkedSupportCounts:
    """Chunked aggregation must equal the unchunked path exactly."""

    N = 1_037  # deliberately not divisible by the chunk size

    @pytest.mark.parametrize("chunk", [100, 256, 1_037, 5_000])
    def test_oue_equals_unchunked(self, oue, chunk):
        items = np.random.default_rng(3).integers(0, D, size=self.N)
        reports = oue.perturb(items, np.random.default_rng(4))
        np.testing.assert_array_equal(
            chunked_support_counts(oue, reports, chunk), oue.support_counts(reports)
        )

    @pytest.mark.parametrize("chunk", [100, 256, 1_037, 5_000])
    def test_olh_equals_unchunked(self, olh, chunk):
        items = np.random.default_rng(3).integers(0, D, size=self.N)
        reports = olh.perturb(items, np.random.default_rng(4))
        np.testing.assert_array_equal(
            chunked_support_counts(olh, reports, chunk), olh.support_counts(reports)
        )

    def test_grr_equals_unchunked(self, grr):
        items = np.random.default_rng(3).integers(0, D, size=self.N)
        reports = grr.perturb(items, np.random.default_rng(4))
        np.testing.assert_array_equal(
            chunked_support_counts(grr, reports, 64), grr.support_counts(reports)
        )

    def test_invalid_chunk(self, oue):
        reports = oue.perturb(np.zeros(4, dtype=np.int64), 0)
        with pytest.raises(InvalidParameterError):
            chunked_support_counts(oue, reports, 0)


class TestChunkedGenuineCounts:
    def test_population_conserved_for_grr(self, grr):
        # Every GRR report supports exactly one item, so the chunked total
        # must conserve the population even across ragged chunk boundaries.
        counts = chunked_genuine_counts(grr, DATASET.counts, rng=0, chunk_users=999)
        assert int(counts.sum()) == DATASET.num_users

    def test_deterministic(self, oue):
        a = chunked_genuine_counts(oue, DATASET.counts, rng=11, chunk_users=777)
        b = chunked_genuine_counts(oue, DATASET.counts, rng=11, chunk_users=777)
        np.testing.assert_array_equal(a, b)

    def test_estimates_recover_truth(self, oue):
        counts = chunked_genuine_counts(oue, DATASET.counts, rng=2, chunk_users=1_000)
        est = oue.estimate_frequencies(counts, DATASET.num_users)
        assert float(np.mean((est - DATASET.frequencies) ** 2)) < 5e-3


class TestChunkedTrial:
    def test_matches_run_trial_dispatch(self, oue):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        direct = run_chunked_trial(DATASET, oue, attack, beta=0.05, rng=9, chunk_users=640)
        via_mode = run_trial(
            DATASET, oue, attack, beta=0.05, mode="chunked", rng=9, chunk_users=640
        )
        np.testing.assert_array_equal(
            direct.poisoned_frequencies, via_mode.poisoned_frequencies
        )
        np.testing.assert_array_equal(
            direct.malicious_frequencies, via_mode.malicious_frequencies
        )

    def test_no_reports_retained(self, oue):
        trial = run_chunked_trial(DATASET, oue, None, beta=0.0, rng=1, chunk_users=512)
        assert trial.reports is None and trial.malicious_mask is None

    def test_malicious_chunking_covers_all_users(self, grr):
        attack = MGAAttack(domain_size=D, targets=[2], rng=0)
        counts = chunked_malicious_counts(grr, attack, 1_003, rng=0, chunk_users=100)
        # Every crafted GRR report is the target item itself.
        assert counts[2] == 1_003 and int(counts.sum()) == 1_003

    def test_non_iid_attacks_are_not_split(self, grr):
        """Regression: MultiAttacker's deterministic weight split re-rounds
        per craft call, so chunking its crafting would starve low-weight
        attackers; the chunked path must craft it in one batch."""
        from repro.attacks import MultiAttacker

        attack = MultiAttacker(
            [
                MGAAttack(domain_size=D, targets=[1], rng=0),
                MGAAttack(domain_size=D, targets=[2], rng=0),
            ],
            weights=[0.99, 0.01],
        )
        assert not attack.iid_reports
        counts = chunked_malicious_counts(grr, attack, 1_000, rng=0, chunk_users=10)
        # The 1%-weight attacker keeps its 10 users despite 10-user chunks.
        assert counts[2] == 10 and counts[1] == 990

    def test_non_iid_crafted_batch_then_chunked_grid(self, oue):
        """Regression pin (ISSUE 3): an ``iid_reports=False`` attack is
        crafted in exactly ONE batch of all ``m`` reports — only the
        support counting is chunked — so the result is bit-identical to
        aggregating the single crafted batch directly."""
        from repro.attacks import MultiAttacker

        calls: list[int] = []

        class _Recording(MultiAttacker):
            """MultiAttacker that logs every craft batch size."""

            def craft(self, protocol, m, rng=None):
                """Record ``m`` then delegate."""
                calls.append(m)
                return super().craft(protocol, m, rng)

        def make():
            return _Recording(
                [
                    MGAAttack(domain_size=D, targets=[1], rng=0),
                    MGAAttack(domain_size=D, targets=[2], rng=0),
                ],
                weights=[0.99, 0.01],
            )

        counts = chunked_malicious_counts(oue, make(), 1_000, rng=5, chunk_users=64)
        assert calls == [1_000], "non-iid attack must be crafted exactly once"
        expected = oue.support_counts(
            make().craft(oue, 1_000, np.random.default_rng(5))
        )
        np.testing.assert_array_equal(counts, expected)

    def test_ipa_inherits_iid_flag(self):
        from repro.attacks import InputPoisoningAttack, MultiAttacker

        iid_inner = MGAAttack(domain_size=D, targets=[1], rng=0)
        assert InputPoisoningAttack(iid_inner).iid_reports
        multi = MultiAttacker([iid_inner])
        assert not InputPoisoningAttack(multi).iid_reports

    def test_chunk_users_rejected_outside_chunked_mode(self, grr):
        with pytest.raises(InvalidParameterError):
            run_trial(DATASET, grr, None, mode="fast", rng=0, chunk_users=100)

    def test_chunk_users_incompatible_with_sampled_cell(self, grr):
        with pytest.raises(InvalidParameterError):
            evaluate_recovery(
                DATASET, grr, None, trials=1, mode="sampled", chunk_users=100
            )

    def test_chunk_users_upgrades_fast_mode(self, grr):
        # chunk_users on a fast-mode cell silently selects the exact path.
        ev = evaluate_recovery(DATASET, grr, None, trials=1, rng=0, chunk_users=5_000)
        assert ev.mse_before > 0


class TestStrictBeta:
    def test_warns_when_m_rounds_to_zero(self, grr):
        tiny = zipf_dataset(domain_size=D, num_users=40, exponent=1.0, rng=1)
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        with pytest.warns(RuntimeWarning, match="m=0"):
            evaluate_recovery(tiny, grr, attack, beta=0.005, trials=1, rng=0)

    def test_strict_raises(self, grr):
        tiny = zipf_dataset(domain_size=D, num_users=40, exponent=1.0, rng=1)
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        with pytest.raises(InvalidParameterError, match="m=0"):
            evaluate_recovery(
                tiny, grr, attack, beta=0.005, trials=1, rng=0, strict_beta=True
            )


class TestBoundScan:
    """OLH's support scan is bounded by its fixed hash tile, not by the
    engine's chunk_users knob, and neither bound changes counts."""

    def test_caps_olh_scan_budget(self):
        # 20,000 reports x 1,024 items: the full uint64 grid would be
        # 164 MB; the tiled scan's peak is a few tiles' scratch plus O(n + d).
        d, n = 1_024, 20_000
        olh = OLH(epsilon=0.5, domain_size=d)
        reports = olh.perturb(np.random.default_rng(3).integers(0, d, size=n), 4)
        tracemalloc.start()
        try:
            olh.support_counts(reports)
            olh.target_support_counts(reports, np.arange(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 17 * hashing.TILE_CELLS + 32 * (n + d)

    def test_bounded_scan_results_identical(self, olh):
        items = np.random.default_rng(3).integers(0, D, size=1_037)
        reports = olh.perturb(items, np.random.default_rng(4))
        np.testing.assert_array_equal(
            chunked_support_counts(olh, reports, 5), olh.support_counts(reports)
        )


class TestEngineDefaults:
    def test_default_chunk_size_is_bounded(self):
        assert engine.DEFAULT_CHUNK_USERS >= 1
