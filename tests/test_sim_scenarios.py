"""Tests for the scenario-exhibit subsystem (repro.sim.scenarios).

The contract under test (ISSUE 5 acceptance criteria):

* the kv and heavyhitter sweeps run through the ordinary engine —
  per-trial ``SeedSequence`` streams, ``workers=N`` bit-identical to
  ``workers=1``, Welford ±CI columns on every metric;
* every cell is one cacheable row: a warm rerun reports 100% hits and
  executes **zero** simulation tasks (:data:`TASK_COUNTER`);
* scenarios dispatch through :class:`repro.sim.shard.SweepConfig` (and
  therefore ``run`` / ``shard run|status|merge``) exactly like figures,
  with sweep digests that ignore inapplicable flags;
* the registry is extensible: one :func:`register_scenario` call makes a
  new workload a first-class exhibit.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.kv import KeyValueProtocol, KVPoisoningAttack
from repro.protocols import base as protocols_base
from repro.sim.cache import CellCache, canonical_key, scenario_cell_spec
from repro.sim.engine import TASK_COUNTER
from repro.sim.experiment import RunContext
from repro.sim.scenarios import (
    DEFENSE_ATTACKS,
    DEFENSE_BETAS,
    DEFENSE_EPSILONS,
    DEFENSE_METHODS,
    EPOCH_COUNT,
    EPOCH_SCHEDULES,
    EXHIBITS,
    HH_BETAS,
    HH_KS,
    KV_BETAS,
    KV_EPSILONS,
    SWEEP_OPTIONS,
    Exhibit,
    KVPopulation,
    defenses_rows,
    detection_f1,
    epochs_rows,
    heavyhitter_rows,
    kv_population,
    kv_rows,
    register_scenario,
)
from repro.sim.shard import SweepConfig, enumerate_cells, merge_sweep, run_shard

KV_CELLS = len(KV_EPSILONS) * len(KV_BETAS)
#: Simulated/cached cells vs emitted rows: the heavy-hitter sweep runs one
#: cell per (protocol, beta) and expands it into one row per k.
HH_CELLS = 3 * len(HH_BETAS)
HH_ROWS = HH_CELLS * len(HH_KS)
#: The epochs sweep: one cell per (protocol, schedule) plus one fan-in
#: (multi-collector) cell per protocol, each expanding to one row per epoch.
EPOCH_CELLS = 3 * len(EPOCH_SCHEDULES) + 3
EPOCH_ROWS = EPOCH_CELLS * EPOCH_COUNT
DEFENSE_CELLS = len(DEFENSE_ATTACKS) * len(DEFENSE_EPSILONS) * len(DEFENSE_BETAS)
#: The scenario exhibits, registered after the nine paper figures.
SCENARIO_NAMES = ("kv", "heavyhitter", "epochs", "defenses")


class TestKVPopulation:
    def test_kv_population_is_deterministic(self):
        a = kv_population(num_keys=16, num_users=5_000)
        b = kv_population(num_keys=16, num_users=5_000)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.num_keys == 16 and a.num_users == 5_000

    def test_sample_is_two_point_with_matching_means(self):
        population = kv_population(num_keys=8, num_users=60_000)
        keys, values = population.sample(rng=3)
        assert set(np.unique(values)).issubset({-1.0, 1.0})
        # Hot keys have enough users for a loose moment check.
        for k in range(3):
            sampled = values[keys == k]
            assert abs(sampled.mean() - population.means[k]) < 4.0 / np.sqrt(sampled.size)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            KVPopulation("x", np.array([0.5, 0.5]), np.array([0.0]), 10)
        with pytest.raises(InvalidParameterError):
            KVPopulation("x", np.array([0.7, 0.5]), np.array([0.0, 0.0]), 10)
        with pytest.raises(InvalidParameterError):
            KVPopulation("x", np.array([0.5, 0.5]), np.array([0.0, 1.5]), 10)
        with pytest.raises(InvalidParameterError):
            KVPopulation("x", np.array([0.5, 0.5]), np.array([0.0, 0.0]), 0)


class TestKVRows:
    def test_grid_shape_and_columns(self):
        rows = kv_rows(num_users=2_000, trials=2, rng=11)
        assert len(rows) == KV_CELLS
        assert [r["beta"] for r in rows[: len(KV_BETAS)]] == list(KV_BETAS)
        for column in ("freq_mse_recover_star", "mean_mae_before", "fg_recover_star"):
            assert column in rows[0] and f"{column}±" in rows[0]
        # Two trials per cell: every metric's 95% CI half-width is known.
        for row in rows:
            assert all(row[c] is not None for c in row if c.endswith("±"))

    def test_deterministic_under_seed(self):
        assert kv_rows(num_users=2_000, trials=2, rng=11) == kv_rows(
            num_users=2_000, trials=2, rng=11
        )

    def test_trials_validated(self):
        with pytest.raises(InvalidParameterError):
            kv_rows(num_users=2_000, trials=0)
        with pytest.raises(InvalidParameterError):
            heavyhitter_rows(num_users=2_000, trials=0)

    def test_warm_cache_serves_all_cells_with_zero_tasks(self, tmp_path):
        cold = CellCache(tmp_path)
        first = kv_rows(num_users=2_000, trials=2, rng=11, ctx=RunContext(cache=cold))
        assert cold.stats.misses == KV_CELLS and cold.stats.stores == KV_CELLS
        warm = CellCache(tmp_path)
        TASK_COUNTER.reset()
        second = kv_rows(num_users=2_000, trials=2, rng=11, ctx=RunContext(cache=warm))
        assert TASK_COUNTER.count == 0, "warm cells must execute zero trials"
        assert warm.stats.hits == KV_CELLS and warm.stats.misses == 0
        assert second == first


class TestHeavyHitterRows:
    def test_grid_shape_and_columns(self):
        rows = heavyhitter_rows(num_users=5_000, trials=1, rng=12)
        assert len(rows) == HH_ROWS
        cells = {r["cell"] for r in rows}
        assert cells == {"mga-grr", "mga-oue", "mga-olh"}
        for row in rows:
            assert row["k"] in HH_KS and row["beta"] in HH_BETAS
            for column in (
                "precision_poisoned",
                "precision_recovered_star",
                "promoted_poisoned",
                "promoted_recovered_star",
            ):
                assert column in row and f"{column}±" in row
            assert 0.0 <= row["precision_poisoned"] <= 1.0
            assert 0.0 <= row["promoted_poisoned"] <= row["k"]

    def test_attack_actually_promotes_tail_items(self):
        rows = heavyhitter_rows(num_users=5_000, trials=1, rng=12)
        promoted = np.array([r["promoted_poisoned"] for r in rows])
        assert promoted.mean() > 1.0, "MGA should plant items into the top-k"

    def test_chunked_mode_runs(self):
        rows = heavyhitter_rows(num_users=3_000, trials=1, rng=12, chunk_users=1_000)
        assert len(rows) == HH_ROWS

    def test_one_simulated_cell_per_protocol_beta(self):
        """k only selects metrics off already-recovered vectors, so the
        sweep must simulate one trial set per (protocol, beta) — not per k."""
        TASK_COUNTER.reset()
        heavyhitter_rows(num_users=3_000, trials=2, rng=12)
        assert TASK_COUNTER.count == HH_CELLS * 2

    def test_warm_cache_serves_all_cells_with_zero_tasks(self, tmp_path):
        cold = CellCache(tmp_path)
        first = heavyhitter_rows(num_users=4_000, trials=1, rng=12, ctx=RunContext(cache=cold))
        assert cold.stats.stores == HH_CELLS
        warm = CellCache(tmp_path)
        TASK_COUNTER.reset()
        second = heavyhitter_rows(num_users=4_000, trials=1, rng=12, ctx=RunContext(cache=warm))
        assert TASK_COUNTER.count == 0
        assert warm.stats.hits == HH_CELLS
        assert second == first


class TestEpochsRows:
    USERS = 1_500

    def _rows(self, **kwargs):
        return epochs_rows(num_users=self.USERS, trials=1, rng=13, **kwargs)

    def test_grid_shape_columns_and_schedule_betas(self):
        rows = self._rows()
        assert len(rows) == EPOCH_ROWS
        assert {r["cell"] for r in rows} == {
            f"{schedule.kind}-{name}-c1"
            for name in ("grr", "oue", "olh")
            for schedule in EPOCH_SCHEDULES
        } | {f"burst-{name}-c3" for name in ("grr", "oue", "olh")}
        # Uniform columns on every row (the CSV/JSON exporters refuse
        # ragged tables): warm-up epochs carry null detection scores.
        columns = list(rows[0].keys())
        for row in rows:
            assert list(row.keys()) == columns
            assert 0 <= row["epoch"] < EPOCH_COUNT
            for column in ("mse_before", "mse_recover", "mse_star", "fg_before"):
                assert column in row and f"{column}±" in row
            if row["epoch"] >= 2:
                assert 0.0 <= row["detection_f1"] <= 1.0
            else:
                assert row["detection_f1"] is None
                assert row["detection_f1±"] is None
        # The burst rows carry the schedule's exact per-epoch fractions.
        burst = [r for r in rows if r["cell"] == "burst-oue-c1"]
        assert [r["beta"] for r in burst] == list(EPOCH_SCHEDULES[1].betas(EPOCH_COUNT))

    def test_workers_and_chunking_are_bit_identical(self, monkeypatch):
        serial = self._rows()
        assert self._rows(ctx=RunContext(workers=2)) == serial
        monkeypatch.setattr(protocols_base, "DEFAULT_CHUNK_USERS", 500)
        assert self._rows() == serial

    def test_fan_in_trials_match_direct_ingestion_bit_for_bit(self, monkeypatch):
        """collectors=3 round-robin fan-in is byte-equal to direct
        single-collector ingestion under the same trial seed: the merge
        arithmetic cannot change any metric.  (The sweep's c1 and c3
        *cells* draw independent seeds, so the invariant is pinned at the
        trial level, where the seed can be held fixed.)"""
        from repro.attacks import MGAAttack, ScheduledAttack
        from repro.core.heavyhitters import tail_items
        from repro.core.recover import DEFAULT_ETA
        from repro.sim.figures import _cell_protocol, load_dataset
        from repro.sim.history import AttackSchedule
        from repro.sim.scenarios import _epoch_trial

        dataset = load_dataset("ipums", self.USERS)
        targets = tail_items(dataset.frequencies, 5)
        for name in ("grr", "oue", "olh"):
            protocol = _cell_protocol(name, 0.5, dataset.domain_size)
            scheduled = ScheduledAttack(
                MGAAttack(domain_size=dataset.domain_size, targets=targets),
                AttackSchedule.burst(0.15, at=3),
                EPOCH_COUNT,
            )

            def trial(collectors):
                # A fresh SeedSequence per call: spawning advances the
                # parent's spawn counter, so sharing one object would
                # silently shift the later call's streams.
                return _epoch_trial(
                    dataset=dataset,
                    protocol=protocol,
                    scheduled=scheduled,
                    drift=0.05,
                    eta=DEFAULT_ETA,
                    collectors=collectors,
                    seed=np.random.SeedSequence(42),
                )

            direct = trial(collectors=1)
            assert trial(collectors=3) == direct, f"{name}: fan-in != direct"
            with monkeypatch.context() as patched:
                patched.setattr(protocols_base, "DEFAULT_CHUNK_USERS", 300)
                assert trial(collectors=1) == direct

    def test_warm_cache_serves_all_cells_with_zero_tasks(self, tmp_path):
        cold = CellCache(tmp_path)
        first = self._rows(ctx=RunContext(cache=cold))
        assert cold.stats.misses == EPOCH_CELLS and cold.stats.stores == EPOCH_CELLS
        warm = CellCache(tmp_path)
        TASK_COUNTER.reset()
        second = self._rows(ctx=RunContext(cache=warm))
        assert TASK_COUNTER.count == 0, "warm cells must execute zero trials"
        assert warm.stats.hits == EPOCH_CELLS and warm.stats.misses == 0
        assert second == first

    def test_two_shard_merge_is_bit_identical_to_direct(self, tmp_path):
        config = SweepConfig(figure="epochs", num_users=self.USERS, trials=1, seed=13)
        cache = CellCache(tmp_path)
        for index in range(2):
            run_shard(config, cache, shard_index=index, shard_count=2)
        assert merge_sweep(config, cache) == self._rows()

    def test_trials_validated(self):
        with pytest.raises(InvalidParameterError):
            epochs_rows(num_users=self.USERS, trials=0)


class TestDefensesRows:
    USERS = 2_000

    def _rows(self, **kwargs):
        return defenses_rows(num_users=self.USERS, trials=2, rng=14, **kwargs)

    def test_grid_shape_winner_and_ci_columns(self):
        rows = self._rows()
        assert len(rows) == DEFENSE_CELLS
        regimes = {(r["attack"], r["epsilon"], r["beta"]) for r in rows}
        assert len(regimes) == DEFENSE_CELLS
        for row in rows:
            assert row["attack"] in DEFENSE_ATTACKS
            assert row["epsilon"] in DEFENSE_EPSILONS
            assert row["beta"] in DEFENSE_BETAS
            assert row["winner"] in DEFENSE_METHODS
            for method in ("before",) + DEFENSE_METHODS:
                assert f"mse_{method}" in row and f"mse_{method}±" in row
                assert f"fg_{method}" in row and f"fg_{method}±" in row
            # The winner column is derived from the same row it sits in.
            best = min(DEFENSE_METHODS, key=lambda m: row[f"mse_{m}"])
            assert row["winner"] == best

    def test_every_defense_beats_doing_nothing_somewhere(self):
        rows = self._rows()
        improved = [
            method
            for method in DEFENSE_METHODS
            for row in rows
            if row[f"mse_{method}"] < row["mse_before"]
        ]
        assert set(improved), "at least one defense must improve some regime"

    def test_workers_are_bit_identical(self):
        assert self._rows(ctx=RunContext(workers=2)) == self._rows()

    def test_warm_cache_serves_all_cells_with_zero_tasks(self, tmp_path):
        cold = CellCache(tmp_path)
        first = self._rows(ctx=RunContext(cache=cold))
        assert cold.stats.stores == DEFENSE_CELLS
        warm = CellCache(tmp_path)
        TASK_COUNTER.reset()
        second = self._rows(ctx=RunContext(cache=warm))
        assert TASK_COUNTER.count == 0
        assert warm.stats.hits == DEFENSE_CELLS
        assert second == first

    def test_two_shard_merge_is_bit_identical_to_direct(self, tmp_path):
        config = SweepConfig(figure="defenses", num_users=self.USERS, trials=2, seed=14)
        cache = CellCache(tmp_path)
        for index in range(2):
            run_shard(config, cache, shard_index=index, shard_count=2)
        assert merge_sweep(config, cache) == self._rows()

    def test_trials_validated(self):
        with pytest.raises(InvalidParameterError):
            defenses_rows(num_users=self.USERS, trials=0)


class TestDetectionF1:
    def test_clean_epoch_scoring(self):
        assert detection_f1([], []) == 1.0
        assert detection_f1([3], []) == 0.0

    def test_poisoned_epoch_scoring(self):
        assert detection_f1([1, 2], [1, 2]) == 1.0
        assert detection_f1([], [1, 2]) == 0.0
        assert detection_f1([9], [1, 2]) == 0.0
        # precision 1/2, recall 1/2 -> F1 1/2
        assert detection_f1([1, 9], [1, 2]) == pytest.approx(0.5)

    def test_duplicates_and_types_normalized(self):
        assert detection_f1(np.array([2, 1, 1]), (1, 2)) == 1.0


class TestScenarioCellSpec:
    def test_kv_spec_sensitive_to_cell_identity(self):
        population = kv_population(num_keys=8, num_users=1_000)
        protocol = KeyValueProtocol(eps_key=1.0, eps_value=1.0, num_keys=8)
        attack = KVPoisoningAttack(num_keys=8, targets=[6, 7])
        seeds = np.random.SeedSequence(0).spawn(2)
        base = scenario_cell_spec(
            "kv", population, protocol, (attack,), {"beta": 0.1}, seeds
        )
        assert base["kind"] == "row" and base["exhibit"] == "scenario-kv"
        other_beta = scenario_cell_spec(
            "kv", population, protocol, (attack,), {"beta": 0.2}, seeds
        )
        assert canonical_key(base) != canonical_key(other_beta)
        other_pop = scenario_cell_spec(
            "kv",
            kv_population(num_keys=8, num_users=2_000),
            protocol,
            (attack,),
            {"beta": 0.1},
            seeds,
        )
        assert canonical_key(base) != canonical_key(other_pop)
        other_seeds = scenario_cell_spec(
            "kv", population, protocol, (attack,), {"beta": 0.1},
            np.random.SeedSequence(1).spawn(2),
        )
        assert canonical_key(base) != canonical_key(other_seeds)

    def test_spec_is_reproducible(self):
        population = kv_population(num_keys=8, num_users=1_000)
        protocol = KeyValueProtocol(eps_key=1.0, eps_value=1.0, num_keys=8)
        attack = KVPoisoningAttack(num_keys=8, targets=[6, 7])
        seeds = np.random.SeedSequence(0).spawn(2)
        a = scenario_cell_spec("kv", population, protocol, (attack,), {"beta": 0.1}, seeds)
        b = scenario_cell_spec("kv", population, protocol, (attack,), {"beta": 0.1}, seeds)
        assert canonical_key(a) == canonical_key(b)


class TestSweepConfigDispatch:
    def test_scenarios_are_valid_exhibits(self):
        assert set(SCENARIO_NAMES) <= set(SweepConfig.exhibit_names())
        SweepConfig(figure="kv")
        SweepConfig(figure="heavyhitter")

    def test_run_matches_direct_generator_call(self):
        config = SweepConfig(figure="kv", num_users=2_000, trials=2, seed=11)
        assert config.run(None) == kv_rows(num_users=2_000, trials=2, rng=11)

    def test_enumeration_lists_cells_without_simulating(self):
        TASK_COUNTER.reset()
        cells = enumerate_cells(SweepConfig(figure="kv", num_users=2_000, trials=2))
        assert len(cells) == KV_CELLS
        assert TASK_COUNTER.count == 0
        assert all(cell.kind == "row" for cell in cells)

    def test_digest_ignores_inapplicable_flags(self):
        base = SweepConfig(figure="kv", trials=2)
        assert base.digest() == SweepConfig(
            figure="kv", trials=2, dataset="fire", parameter="eta",
            chunk_users=500, olh_cohort=8, workers=3,
        ).digest()
        assert base.digest() != SweepConfig(figure="kv", trials=3).digest()
        # epochs runs no chunked trial and draws no OLH cohort, so neither
        # flag can change its cells or its digest.
        assert SweepConfig(figure="epochs", trials=2).digest() == SweepConfig(
            figure="epochs", trials=2, chunk_users=500, olh_cohort=8,
        ).digest()
        hh = SweepConfig(figure="heavyhitter", trials=2)
        assert hh.digest() == SweepConfig(figure="heavyhitter", trials=2, dataset="fire").digest()
        # ...but the knobs heavyhitter consumes stay in its digest.
        assert hh.digest() != SweepConfig(figure="heavyhitter", trials=2, chunk_users=500).digest()
        assert hh.digest() != SweepConfig(figure="heavyhitter", trials=2, olh_cohort=8).digest()


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        assert tuple(EXHIBITS)[-len(SCENARIO_NAMES):] == SCENARIO_NAMES
        for exhibit in EXHIBITS.values():
            assert exhibit.description

    @pytest.mark.parametrize("name", list(EXHIBITS))
    def test_generator_signature_matches_the_registration(self, name):
        """Every generator takes the keywords SweepConfig.run always
        passes, and of the SWEEP_OPTIONS exactly those it ``consumes``
        (a consumed option missing from the signature would fail only
        when forwarded; an unregistered one would never be forwarded)."""
        exhibit = EXHIBITS[name]
        params = set(inspect.signature(exhibit.rows).parameters)
        assert {"num_users", "trials", "rng", "ctx"} <= params

        def keyword(option):
            return "dataset_name" if option == "dataset" else option

        options = {keyword(option) for option in SWEEP_OPTIONS}
        assert params & options == {keyword(option) for option in exhibit.consumes}

    #: The sweep options each built-in exhibit consumes, as the registry
    #: declared them before they were read off the generators' signatures.
    CONSUMES = {
        "fig3": ("dataset", "olh_cohort"),
        "fig4": ("dataset", "olh_cohort"),
        "fig5": ("parameter", "chunk_users", "olh_cohort"),
        "fig6": ("parameter", "chunk_users", "olh_cohort"),
        "fig7": ("chunk_users", "olh_cohort"),
        "fig8": ("chunk_users", "olh_cohort"),
        "fig9": ("olh_cohort",),
        "fig10": ("chunk_users", "olh_cohort"),
        "table1": ("chunk_users", "olh_cohort"),
        "kv": (),
        "heavyhitter": ("chunk_users", "olh_cohort"),
        "epochs": (),
        "defenses": (),
    }

    def test_consumed_flags_are_read_off_the_generators(self):
        assert {name: EXHIBITS[name].consumes for name in self.CONSUMES} == self.CONSUMES

    def test_a_generator_taking_chunk_users_consumes_it(self, capsys):
        calls = []

        def toy_rows(num_users=None, trials=5, rng=0, chunk_users=None, ctx=RunContext()):
            calls.append(chunk_users)
            return [{"cell": "toy", "value": 1.0}]

        register_scenario(Exhibit(name="toy-chunked", description="toy", rows=toy_rows))
        try:
            assert EXHIBITS["toy-chunked"].consumes == ("chunk_users",)
            config = SweepConfig(figure="toy-chunked", trials=2, chunk_users=64)
            assert config.run(None) == [{"cell": "toy", "value": 1.0}]
            assert calls == [64]
            # The consumed flag is part of the digest; an ignored one is not.
            assert config.digest() != SweepConfig(figure="toy-chunked", trials=2).digest()
            assert config.digest() == SweepConfig(
                figure="toy-chunked", trials=2, chunk_users=64, olh_cohort=8
            ).digest()
            from repro.cli import main

            argv = ["run", "--exhibit", "toy-chunked", "--no-cache", "--chunk-users", "64"]
            assert main(argv) == 0
            assert "is ignored" not in capsys.readouterr().err
            assert main(argv + ["--olh-cohort", "8"]) == 0
            err = capsys.readouterr().err
            assert "--olh-cohort is ignored" in err and "--chunk-users" not in err
            assert calls == [64, 64, 64]
        finally:
            del EXHIBITS["toy-chunked"]

    @pytest.mark.parametrize(
        "options", [{}, {"chunk_users": 700, "olh_cohort": 8}], ids=["plain", "chunked-cohort"]
    )
    @pytest.mark.parametrize("name", list(EXHIBITS))
    def test_pooled_rows_equal_inline_rows(self, name, options):
        """Each cell's trial callable pickles to pool workers, and the
        pooled rows equal the inline ones bit for bit."""

        def rows(workers):
            config = SweepConfig(
                figure=name, num_users=2_000, trials=2, workers=workers, **options
            )
            return config.run(None)

        assert rows(2) == rows(1)

    def test_register_rejects_name_collisions(self):
        taken = Exhibit(name="kv", description="dup", rows=kv_rows)
        with pytest.raises(InvalidParameterError):
            register_scenario(taken)
        figure = Exhibit(name="fig3", description="dup", rows=kv_rows)
        with pytest.raises(InvalidParameterError):
            register_scenario(figure)

    def test_registered_scenario_dispatches_like_a_figure(self):
        calls: dict[str, object] = {}

        def toy_rows(num_users=None, trials=5, rng=0, ctx=RunContext()):
            calls["args"] = (num_users, trials, rng, ctx.workers)
            return [{"cell": "toy", "value": 1.0}]

        register_scenario(Exhibit(name="toy", description="toy", rows=toy_rows))
        try:
            config = SweepConfig(figure="toy", num_users=123, trials=2, seed=7)
            assert config.run(None) == [{"cell": "toy", "value": 1.0}]
            assert calls["args"] == (123, 2, 7, 1)
            assert "toy" in SweepConfig.exhibit_names()
            # The CLI sees a scenario registered *after* it was imported:
            # parser choices and `list` are computed from the live registry.
            from repro.cli import build_parser, main

            assert build_parser().parse_args(["run", "--exhibit", "toy"]).figure == "toy"
            import io
            from contextlib import redirect_stdout

            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["list"]) == 0
            assert "toy" in out.getvalue()
            # Inapplicable engine knobs never enter the sweep digest.
            assert config.digest() == SweepConfig(
                figure="toy", num_users=123, trials=2, seed=7, chunk_users=64,
            ).digest()
        finally:
            del EXHIBITS["toy"]
        with pytest.raises(InvalidParameterError):
            SweepConfig(figure="toy")
