"""Tests for cache-coordinated multi-machine sharding (repro.sim.shard).

The contract under test (ISSUE 4 acceptance criteria):

* a sweep executed as N shards over one shared cache directory, then
  merged, produces rows **bit-identical** to the unsharded run;
* each cell is simulated **exactly once** across the shards (asserted
  through :data:`repro.sim.engine.TASK_COUNTER` and the per-shard run
  reports) — under static hash-mod partitioning, under claim-based work
  stealing, and under a genuine multi-process claim race;
* enumeration reproduces the exact canonical keys a real run stores,
  without running a single trial;
* crashed claimants release their cells via the stale-claim TTL.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

from repro.exceptions import InvalidParameterError, ShardIncompleteError
from repro.sim.cache import CellCache
from repro.sim.engine import TASK_COUNTER, TrialBudget, Welford
from repro.sim.experiment import RunContext
from repro.sim.shard import (
    ClaimQueue,
    ShardReport,
    SweepConfig,
    enumerate_cells,
    merge_sweep,
    merged_cell_seconds,
    run_shard,
    shard_of_key,
    sweep_status,
)

#: A fast sweep: 2 datasets x 3 protocols = 6 row-kind cells, 2 trials each.
CONFIG = SweepConfig(figure="table1", num_users=3_000, trials=2, seed=0)

#: An evaluation-kind sweep: 3 protocols x 5 betas = 15 cells.
EVAL_CONFIG = SweepConfig(figure="fig7", num_users=3_000, trials=2, seed=1)

#: A scenario-exhibit sweep (ISSUE 5): 2 epsilons x 5 betas = 10 kv cells
#: must shard, merge bit-identically and count exactly-once like figures.
KV_CONFIG = SweepConfig(figure="kv", num_users=2_000, trials=2, seed=11)


class TestSweepConfig:
    def test_rejects_unknown_figure(self):
        with pytest.raises(InvalidParameterError):
            SweepConfig(figure="fig99")

    def test_digest_ignores_workers(self):
        base = SweepConfig(figure="fig8", trials=3)
        assert base.digest() == SweepConfig(figure="fig8", trials=3, workers=4).digest()
        assert base.digest() != SweepConfig(figure="fig8", trials=4).digest()

    def test_digest_ignores_flags_the_figure_does_not_consume(self):
        """A worker passing --dataset/--parameter to a figure that ignores
        them still reports under the same digest as everyone else."""
        base = SweepConfig(figure="fig8", trials=3)
        assert base.digest() == SweepConfig(figure="fig8", trials=3, dataset="fire").digest()
        assert base.digest() == SweepConfig(figure="fig8", trials=3, parameter="eta").digest()
        fig9 = SweepConfig(figure="fig9", trials=3)
        assert fig9.digest() == SweepConfig(figure="fig9", trials=3, chunk_users=500).digest()
        # ...but fields the figure does consume stay in.
        assert base.digest() != SweepConfig(figure="fig8", trials=3, chunk_users=500).digest()
        fig3 = SweepConfig(figure="fig3", trials=3)
        assert fig3.digest() != SweepConfig(figure="fig3", trials=3, dataset="fire").digest()

    def test_run_matches_direct_generator_call(self):
        from repro.sim import figures

        direct = figures.table1_rows(
            num_users=3_000, trials=2, rng=0, ctx=RunContext(workers=1)
        )
        assert CONFIG.run(None) == direct

    def test_digest_without_budget_knobs_is_unchanged(self):
        """Fixed-budget digests must stay byte-identical to pre-adaptive
        versions: the three budget knobs leave the spec when all None, so
        mixed-version fleets running fixed sweeps still agree."""
        base = SweepConfig(figure="fig8", trials=3)
        explicit = SweepConfig(
            figure="fig8", trials=3, target_ci=None, max_trials=None, trial_batch=None
        )
        assert base.digest() == explicit.digest()

    def test_digest_changes_with_every_budget_knob(self):
        budgeted = SweepConfig(figure="fig8", trials=3, target_ci=0.5)
        assert budgeted.digest() != SweepConfig(figure="fig8", trials=3).digest()
        assert budgeted.digest() != dataclasses.replace(budgeted, target_ci=0.25).digest()
        assert budgeted.digest() != dataclasses.replace(budgeted, max_trials=40).digest()
        assert budgeted.digest() != dataclasses.replace(budgeted, trial_batch=2).digest()

    def test_budget_resolution_and_defaults(self):
        assert CONFIG.budget() is None
        resolved = SweepConfig(figure="table1", trials=2, target_ci=0.5).budget()
        assert resolved == TrialBudget(
            target_halfwidth=0.5, min_trials=2, max_trials=20, batch=2
        )
        explicit = SweepConfig(
            figure="table1", trials=2, target_ci=0.5, max_trials=8, trial_batch=3
        ).budget()
        assert explicit == TrialBudget(
            target_halfwidth=0.5, min_trials=2, max_trials=8, batch=3
        )

    def test_inconsistent_budget_knobs_fail_at_construction(self):
        with pytest.raises(InvalidParameterError):
            SweepConfig(figure="table1", trials=4, max_trials=2)
        with pytest.raises(InvalidParameterError):
            SweepConfig(figure="table1", trials=2, target_ci=-0.1)
        with pytest.raises(InvalidParameterError):
            SweepConfig(figure="table1", trials=2, trial_batch=0)


class TestRunOwnsOnePool:
    def test_fig8_run_forks_one_pool_and_reaps_it(self, pool_sizes):
        config = SweepConfig(figure="fig8", num_users=3000, trials=2, workers=2)
        rows = config.run(None)
        assert pool_sizes == [2]
        assert not multiprocessing.active_children()
        assert rows == dataclasses.replace(config, workers=1).run(None)
        assert pool_sizes == [2]


class TestEnumeration:
    def test_enumerates_without_simulating(self):
        TASK_COUNTER.reset()
        cells = enumerate_cells(CONFIG)
        assert TASK_COUNTER.count == 0, "enumeration must not run trials"
        assert len(cells) == 6
        assert len({c.key for c in cells}) == 6
        assert [c.index for c in cells] == list(range(6))

    def test_enumeration_is_deterministic(self):
        assert enumerate_cells(CONFIG) == enumerate_cells(CONFIG)

    def test_keys_match_what_a_real_run_stores(self, tmp_path):
        cache = CellCache(tmp_path)
        CONFIG.run(cache)
        stored = {entry.key for entry in cache.entries()}
        assert {c.key for c in enumerate_cells(CONFIG)} == stored

    def test_evaluation_cells_enumerate_too(self, tmp_path):
        cells = enumerate_cells(EVAL_CONFIG)
        assert len(cells) == 15 and all(c.kind == "evaluation" for c in cells)
        cache = CellCache(tmp_path)
        EVAL_CONFIG.run(cache)
        assert {c.key for c in cells} == {e.key for e in cache.entries()}


class TestStaticSharding:
    def test_partition_is_total_and_disjoint(self):
        cells = enumerate_cells(CONFIG)
        assignment = {c.key: shard_of_key(c.key, 3) for c in cells}
        assert set(assignment.values()) <= {0, 1, 2}
        # Deterministic: every machine computes the same assignment.
        assert assignment == {c.key: shard_of_key(c.key, 3) for c in cells}

    def test_shard_of_key_validates_count(self):
        with pytest.raises(InvalidParameterError):
            shard_of_key("ab" * 32, 0)

    @pytest.mark.parametrize(
        "config", [CONFIG, EVAL_CONFIG, KV_CONFIG], ids=["row", "eval", "scenario-kv"]
    )
    def test_two_shards_merge_bit_identical_exactly_once(self, tmp_path, config):
        single = config.run(None)  # the unsharded reference
        cache = CellCache(tmp_path)
        TASK_COUNTER.reset()
        r0 = run_shard(config, cache, shard_index=0, shard_count=2)
        r1 = run_shard(config, cache, shard_index=1, shard_count=2)
        sharded_tasks = TASK_COUNTER.count
        # Exactly once: every cell ran in exactly one shard, and the task
        # total equals one trial set per cell.
        assert r0.cells_run + r1.cells_run == len(single)
        assert sharded_tasks == len(single) * config.trials
        assert r0.cells_skipped + r0.cells_served == len(single) - r0.cells_run
        # Merging performs zero simulation and reproduces the reference.
        TASK_COUNTER.reset()
        merged = merge_sweep(config, cache)
        assert TASK_COUNTER.count == 0, "merge must render purely from cache"
        assert merged == single

    def test_heavyhitter_cells_expand_to_rows_and_merge_bit_identical(self, tmp_path):
        """The heavy-hitter scenario simulates one cell per (protocol,
        beta) and expands each into one row per k — sharding must count
        cells (not rows) and still merge bit-identically, including the
        placeholder pass-through for foreign cells."""
        config = SweepConfig(figure="heavyhitter", num_users=3_000, trials=1, seed=12)
        single = config.run(None)
        cells = enumerate_cells(config)
        assert len(single) == 2 * len(cells)  # two k values per cell
        cache = CellCache(tmp_path)
        TASK_COUNTER.reset()
        r0 = run_shard(config, cache, shard_index=0, shard_count=2)
        r1 = run_shard(config, cache, shard_index=1, shard_count=2)
        assert r0.cells_run + r1.cells_run == len(cells)
        assert TASK_COUNTER.count == len(cells) * config.trials
        TASK_COUNTER.reset()
        merged = merge_sweep(config, cache)
        assert TASK_COUNTER.count == 0
        assert merged == single

    def test_cold_shard_counts_each_cell_once_in_stats(self, tmp_path):
        """--cache-stats accuracy: one miss per *simulated* cell — cells
        skipped as foreign touch no counter, and nothing is probed twice."""
        cache = CellCache(tmp_path)
        report = run_shard(CONFIG, cache, shard_index=0, shard_count=2)
        assert report.cells_skipped > 0  # the contract is about a real split
        assert cache.stats.misses == report.cells_run
        assert cache.stats.stores == report.cells_run
        assert cache.stats.hits == 0
        # The second shard serves the first's cells as hits, one each.
        second = run_shard(CONFIG, cache, shard_index=1, shard_count=2)
        assert cache.stats.hits == second.cells_served
        assert cache.stats.misses == report.cells_run + second.cells_run

    def test_rerunning_a_finished_shard_is_free(self, tmp_path):
        cache = CellCache(tmp_path)
        run_shard(CONFIG, cache, shard_index=0, shard_count=1)
        TASK_COUNTER.reset()
        again = run_shard(CONFIG, cache, shard_index=0, shard_count=1)
        assert TASK_COUNTER.count == 0
        assert again.cells_run == 0 and again.cells_served == again.cells_total

    def test_mode_validation(self, tmp_path):
        cache = CellCache(tmp_path)
        with pytest.raises(InvalidParameterError):
            run_shard(CONFIG, cache)  # no mode picked
        with pytest.raises(InvalidParameterError):
            run_shard(CONFIG, cache, shard_index=0, shard_count=2, claims=True)
        with pytest.raises(InvalidParameterError):
            run_shard(CONFIG, cache, shard_index=2, shard_count=2)
        with pytest.raises(InvalidParameterError):
            run_shard(CONFIG, cache, shard_index=0)

    def test_workers_differ_across_shards_same_result(self, tmp_path):
        """Shards on different machine shapes share every cell."""
        single = CONFIG.run(None)
        cache = CellCache(tmp_path)
        run_shard(CONFIG, cache, shard_index=0, shard_count=2)
        bigger = dataclasses.replace(CONFIG, workers=2)
        run_shard(bigger, cache, shard_index=1, shard_count=2)
        assert merge_sweep(CONFIG, cache) == single


class TestClaimQueue:
    def test_acquire_release_roundtrip(self, tmp_path):
        queue = ClaimQueue(tmp_path, owner="a")
        assert queue.acquire("k1")
        assert queue.acquire("k1"), "re-acquiring an owned claim must succeed"
        assert not ClaimQueue(tmp_path, owner="b").acquire("k1")
        queue.release("k1")
        assert ClaimQueue(tmp_path, owner="b").acquire("k1")

    def test_release_is_idempotent(self, tmp_path):
        queue = ClaimQueue(tmp_path, owner="a")
        queue.release("never-claimed")  # no error

    def test_stale_claim_is_stolen(self, tmp_path):
        crashed = ClaimQueue(tmp_path, owner="crashed", ttl=10.0)
        assert crashed.acquire("k1")
        # Backdate the claim beyond the TTL (simulating a dead worker).
        path = crashed.path_for("k1")
        record = json.loads(path.read_text(encoding="utf-8"))
        record["claimed_at"] = time.time() - 60.0
        path.write_text(json.dumps(record), encoding="utf-8")
        thief = ClaimQueue(tmp_path, owner="thief", ttl=10.0)
        assert thief.acquire("k1")
        assert thief.peek("k1")["owner"] == "thief"

    def test_live_claim_is_not_stolen(self, tmp_path):
        ClaimQueue(tmp_path, owner="alive", ttl=1000.0).acquire("k1")
        assert not ClaimQueue(tmp_path, owner="thief", ttl=1000.0).acquire("k1")

    @pytest.mark.parametrize(
        "text",
        [
            "{ truncated",
            "[" * 100_000 + "]" * 100_000,
            '{"owner": "peer", "pid": 1, "claimed_at": ' + "9" * 400 + "}",
        ],
        ids=["truncated", "deeply-nested", "claimed-at-too-large"],
    )
    def test_corrupt_claim_ages_out_via_mtime(self, tmp_path, text):
        """A claim file that does not read is an ownerless claim aged by
        its file's mtime, for ``peek``, ``is_stale``, ``acquire`` and
        ``sweep_status`` alike."""
        cache = CellCache(tmp_path)
        key = enumerate_cells(CONFIG)[0].key
        queue = ClaimQueue(cache.root / "_shard" / "claims", owner="a", ttl=10.0)
        queue.directory.mkdir(parents=True, exist_ok=True)
        path = queue.path_for(key)
        path.write_text(text, encoding="utf-8")
        record = queue.peek(key)
        assert record["owner"] is None
        assert not queue.is_stale(record)  # fresh mtime: maybe mid-write
        assert not ClaimQueue(queue.directory, owner="b", ttl=10.0).acquire(key)
        status = sweep_status(CONFIG, cache, claim_ttl=10.0)
        assert (status.missing, status.claimed, status.stale_claims) == (6, 1, 0)
        os.utime(path, (time.time() - 60.0, time.time() - 60.0))
        assert queue.is_stale(queue.peek(key))
        assert sweep_status(CONFIG, cache, claim_ttl=10.0).stale_claims == 1
        assert queue.acquire(key)
        assert queue.peek(key)["owner"] == "a"

    def test_ttl_validation(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            ClaimQueue(tmp_path, ttl=0)


class TestClaimSharding:
    def test_single_claim_run_completes_everything(self, tmp_path):
        single = CONFIG.run(None)
        cache = CellCache(tmp_path)
        report = run_shard(CONFIG, cache, claims=True, label="solo")
        assert report.cells_run == len(single) and report.cells_skipped == 0
        # The label is uniquified with the process identity: two workers
        # accidentally launched with the same --label still contend
        # through the queue instead of both "owning" every claim.
        assert report.label.startswith("solo@")
        assert merge_sweep(CONFIG, cache) == single
        # Completed cells released their claims.
        assert sweep_status(CONFIG, cache).claimed == 0

    def test_foreign_claim_skips_cell_and_ttl_releases_it(self, tmp_path):
        cache = CellCache(tmp_path)
        target = enumerate_cells(CONFIG)[0]
        foreign = ClaimQueue(cache.root / "_shard" / "claims", owner="peer", ttl=10.0)
        assert foreign.acquire(target.key)

        report = run_shard(CONFIG, cache, claims=True, label="me", claim_ttl=10.0)
        assert report.cells_run == report.cells_total - 1
        assert report.cells_skipped == 1

        status = sweep_status(CONFIG, cache, claim_ttl=10.0)
        assert status.missing == 1 and status.claimed == 1 and not status.complete
        with pytest.raises(ShardIncompleteError):
            merge_sweep(CONFIG, cache)

        # The peer crashes: its claim goes stale and the next pass steals it.
        path = foreign.path_for(target.key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["claimed_at"] = time.time() - 60.0
        path.write_text(json.dumps(record), encoding="utf-8")
        second = run_shard(CONFIG, cache, claims=True, label="me", claim_ttl=10.0)
        assert second.cells_run == 1
        assert merge_sweep(CONFIG, cache) == CONFIG.run(None)
        # Both passes' reports persist (no overwrite despite the shared
        # label), so the exactly-once accounting sums to the full sweep.
        reports = sweep_status(CONFIG, cache, claim_ttl=10.0).reports
        assert len(reports) == 2
        assert sum(r.cells_run for r in reports) == report.cells_total

    def test_merge_allow_missing_computes_stragglers(self, tmp_path):
        cache = CellCache(tmp_path)
        run_shard(CONFIG, cache, shard_index=0, shard_count=2)
        rows = merge_sweep(CONFIG, cache, require_complete=False)
        assert rows == CONFIG.run(None)


def _race_worker(cache_dir: str, label: str) -> None:
    """One contender of the multi-process claim race (forked child)."""
    cache = CellCache(cache_dir)
    run_shard(CONFIG, cache, claims=True, label=label, claim_ttl=600.0)


class TestConcurrentClaimRace:
    def test_two_processes_each_cell_exactly_once(self, tmp_path):
        """Two hosts racing over one shared cache dir never duplicate a
        cell: claims arbitrate, reports prove exactly-once, and the merge
        equals the unsharded reference."""
        single = CONFIG.run(None)
        cache = CellCache(tmp_path)
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_race_worker, args=(str(tmp_path), f"racer-{i}"))
            for i in range(2)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        status = sweep_status(CONFIG, cache)
        assert status.complete
        # Labels are uniquified with the worker's process identity so two
        # contenders can never share a claim owner (or a report file).
        ran = {r.label: r.cells_run for r in status.reports}
        assert sorted(label.split("@")[0] for label in ran) == ["racer-0", "racer-1"]
        assert sum(ran.values()) == len(single), "each cell simulated exactly once"
        TASK_COUNTER.reset()
        assert merge_sweep(CONFIG, cache) == single
        assert TASK_COUNTER.count == 0
        assert cache.verify() == []


#: Adaptive sweep over the same 6 table1 cells: an unreachable CI target
#: drives every cell to max_trials, in 2-trial blocks.
BUDGET_CONFIG = dataclasses.replace(CONFIG, target_ci=1e-12, max_trials=4, trial_batch=2)

#: The same sweep extended: trials [4, 6) of every cell are the only new work.
TOPUP_CONFIG = dataclasses.replace(BUDGET_CONFIG, max_trials=6)


def _topup_worker(cache_dir: str, label: str) -> None:
    """One contender of the multi-process cell-extension race (forked child)."""
    cache = CellCache(cache_dir)
    run_shard(TOPUP_CONFIG, cache, claims=True, label=label, claim_ttl=600.0)


class TestAdaptiveBudgetSharding:
    def test_sequential_topup_runs_only_missing_blocks(self, tmp_path):
        """A claims shard extending converged-short cells simulates only
        the new trial range and merges bit-identical to a fixed-budget
        run at the final count."""
        cache = CellCache(tmp_path)
        TASK_COUNTER.reset()
        seeded = run_shard(BUDGET_CONFIG, cache, claims=True, label="seed")
        assert seeded.cells_run == 6
        assert TASK_COUNTER.count == 6 * 4  # 2-trial blocks up to max_trials=4
        fresh = CellCache(tmp_path)  # separate stats for the top-up pass
        TASK_COUNTER.reset()
        topup = run_shard(TOPUP_CONFIG, fresh, claims=True, label="extend")
        assert TASK_COUNTER.count == 6 * 2, "only trials [4, 6) are new work"
        assert topup.tasks_run == 6 * 2
        assert fresh.stats.block_trials_reused >= 6 * 4
        TASK_COUNTER.reset()
        merged = merge_sweep(TOPUP_CONFIG, fresh)
        assert TASK_COUNTER.count == 0
        assert merged == TOPUP_CONFIG.run(None)  # unsharded adaptive reference
        assert merged == dataclasses.replace(CONFIG, trials=6).run(None)

    def test_budgeted_claims_shard_skips_a_cell_a_live_peer_holds(self, tmp_path):
        """Under a budget, claims arbitrate whole cells as they do without
        one: a cell whose claim a live peer holds is skipped, and none of
        its trials is simulated here."""
        cache = CellCache(tmp_path)
        target = enumerate_cells(BUDGET_CONFIG)[0]
        foreign = ClaimQueue(cache.root / "_shard" / "claims", owner="peer")
        assert foreign.acquire(target.key)
        TASK_COUNTER.reset()
        report = run_shard(BUDGET_CONFIG, cache, claims=True, label="me")
        assert report.cells_run == 5 and report.cells_skipped == 1
        assert report.tasks_run == TASK_COUNTER.count == 5 * 4
        assert not cache.contains(target.key)

    def test_two_processes_extend_each_block_exactly_once(self, tmp_path):
        """Two claims-mode shards topping up the same converged-short
        cells: per-cell claims give each cell, and so each of its new
        blocks, to exactly one shard (asserted on cells and on tasks), and
        the merge equals a single-shard extension bit for bit."""
        cache = CellCache(tmp_path)
        run_shard(BUDGET_CONFIG, cache, claims=True, label="seed")
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_topup_worker, args=(str(tmp_path), f"extender-{i}"))
            for i in range(2)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        status = sweep_status(TOPUP_CONFIG, cache)
        assert status.complete
        assert status.claimed == 0  # every cell claim released
        racers = [r for r in status.reports if r.label.startswith("extender-")]
        assert len(racers) == 2
        # Exactly-once: the 6 cells' [4, 6) ranges are 12 new trials total,
        # however the cells were split between the racers.
        assert sum(r.cells_run for r in racers) == 6
        assert sum(r.tasks_run for r in racers) == 6 * 2
        TASK_COUNTER.reset()
        merged = merge_sweep(TOPUP_CONFIG, cache)
        assert TASK_COUNTER.count == 0
        assert merged == dataclasses.replace(CONFIG, trials=6).run(None)
        assert cache.verify() == []


class TestReports:
    def test_report_persists_and_status_reads_it(self, tmp_path):
        cache = CellCache(tmp_path)
        report = run_shard(CONFIG, cache, shard_index=0, shard_count=2)
        [loaded] = sweep_status(CONFIG, cache).reports
        assert loaded == report
        assert loaded.tasks_run == report.cells_run * CONFIG.trials
        assert "cells" in loaded.summary()

    def test_back_to_back_passes_never_overwrite_reports(self, tmp_path):
        """Sub-millisecond fully-cached passes must still accumulate one
        report each — exactly-once accounting may not lose passes."""
        cache = CellCache(tmp_path)
        for _ in range(3):
            run_shard(CONFIG, cache, shard_index=0, shard_count=1)
        reports = sweep_status(CONFIG, cache).reports
        assert len(reports) == 3
        assert sum(r.cells_run for r in reports) == 6  # first pass only

    def test_cell_seconds_that_do_not_rebuild_skip_the_report(self, tmp_path):
        """A report stores ``cell_seconds`` as ``asdict`` of its Welford;
        one that does not rebuild as ``Welford(**d)`` is skipped like an
        unreadable report, and ``status`` still renders."""
        cache = CellCache(tmp_path)
        report = run_shard(CONFIG, cache, shard_index=0, shard_count=1)
        [path] = cache.root.rglob("*.report")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["cell_seconds"] == dataclasses.asdict(report.welford())
        assert set(data["cell_seconds"]) == {"count", "mean", "m2"}
        data["cell_seconds"] = {"count": 6, "mean": 0.5, "variance": 0.1}
        path.write_text(json.dumps(data), encoding="utf-8")
        status = sweep_status(CONFIG, cache)
        assert status.reports == [] and "shard reports" not in status.summary()

    @pytest.mark.parametrize(
        "damage",
        [
            *[
                lambda data, field=field, value=value: json.dumps({**data, field: value})
                for field, value in [
                    ("cells_run", "x"),
                    ("cells_total", True),
                    ("tasks_run", 1.5),
                    ("seconds", "slow"),
                    ("seconds", 10**400),
                    ("created_at", None),
                    ("label", 7),
                    ("cell_seconds", {"count": "6", "mean": 0.5, "m2": 0.1}),
                    ("cell_seconds", {"count": 10**400, "mean": 0.5, "m2": 0.1}),
                ]
            ],
            lambda data: "[" * 100_000 + "]" * 100_000,
        ],
        ids=["string-cells-run", "bool-cells-total", "float-tasks-run", "string-seconds",
             "seconds-too-large", "null-created-at", "int-label", "string-count",
             "count-too-large", "deeply-nested"],
    )
    def test_mistyped_field_skips_the_report(self, tmp_path, damage):
        """A report is read only when it parses and every field has its
        declared JSON type; otherwise it is skipped like an unreadable
        report, and ``status`` renders the healthy report beside it."""
        cache = CellCache(tmp_path)
        for index in range(2):
            run_shard(CONFIG, cache, shard_index=index, shard_count=2)
        damaged, _ = sorted(cache.root.rglob("*.report"))
        assert len(sweep_status(CONFIG, cache).reports) == 2
        damaged.write_text(damage(json.loads(damaged.read_text(encoding="utf-8"))),
                           encoding="utf-8")
        status = sweep_status(CONFIG, cache)
        assert [report.label for report in status.reports] == ["static-1of2"]
        assert "; 1 shard reports" in status.summary()

    def test_unreadable_entry_is_healed_and_counted_once(self, tmp_path):
        """Claims mode over a store with one truncated entry: the cell is
        recomputed with exactly one miss+error in the stats."""
        cache = CellCache(tmp_path)
        run_shard(CONFIG, cache, claims=True, label="warm")
        victim = cache.entries()[0]
        victim.path.write_text("{ truncated", encoding="utf-8")
        fresh = CellCache(tmp_path)
        report = run_shard(CONFIG, fresh, claims=True, label="healer")
        assert report.cells_run == 1 and report.cells_served == 5
        assert fresh.stats.misses == 1 and fresh.stats.errors == 1
        assert fresh.stats.hits == 5
        assert fresh.verify() == []  # the recompute healed the entry

    def test_cell_seconds_merge_exactly(self):
        """Per-shard Welford timing states combine via Welford.merge into
        exactly the statistics of the union of the cells."""
        durations = [0.1, 0.2, 0.4, 0.8, 1.6]
        reference = Welford()
        for value in durations:
            reference.add(value)
        shards = []
        for chunk in (durations[:2], durations[2:]):
            acc = Welford()
            for value in chunk:
                acc.add(value)
            shards.append(
                ShardReport(
                    figure="table1", digest="d", label="s", mode="static",
                    cells_total=5, cells_run=len(chunk), cells_served=0,
                    cells_skipped=0, tasks_run=0, seconds=sum(chunk),
                    cell_seconds={"count": acc.count, "mean": acc.mean, "m2": acc.m2},
                )
            )
        merged = merged_cell_seconds(shards)
        assert merged.count == reference.count
        assert merged.mean == pytest.approx(reference.mean, rel=1e-12)
        assert merged.m2 == pytest.approx(reference.m2, rel=1e-12)

    def test_cells_per_second(self):
        report = ShardReport(
            figure="f", digest="d", label="l", mode="static", cells_total=4,
            cells_run=2, cells_served=0, cells_skipped=2, tasks_run=4, seconds=4.0,
        )
        assert report.cells_per_second() == pytest.approx(0.5)
        report.cells_run = 0
        assert report.cells_per_second() is None


class TestCoordinationStateIsInvisibleToCache:
    def test_claims_and_reports_do_not_pollute_entries(self, tmp_path):
        cache = CellCache(tmp_path)
        run_shard(CONFIG, cache, claims=True, label="solo")
        # Leave an unreleased claim behind as well.
        ClaimQueue(cache.root / "_shard" / "claims", owner="x").acquire("orphan")
        assert len(cache.entries()) == 6
        assert cache.verify() == []
        assert cache.count() == 6
