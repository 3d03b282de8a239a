"""Statistical stopping-rule tests for adaptive trial allocation (ISSUE 7).

The contract under test:

* a :class:`~repro.sim.engine.TrialBudget` stops a cell once every
  observed metric's 95% CI half-width is at or below the target — and the
  achieved half-width indeed meets the target whenever the budget stopped
  before ``max_trials`` (seeded Monte-Carlo over several streams);
* adaptive stopping does not bias means: with the same canonical seed
  stream, an adaptive run is *bit-identical* to a fixed-budget run at the
  final trial count (the stopping rule only ever evaluates prefixes at
  deterministic checkpoints);
* ``max_trials`` caps runaway cells whose variance never satisfies the
  target;
* pre-existing block-store state never changes the final trial count —
  it only changes how many trials are re-simulated;
* :meth:`Welford.merge` over any contiguous partition of N trials
  (random seeded splits, including empty and single-trial segments)
  reproduces the monolithic statistics, and the block reassembly path the
  cache actually serves results through (raw per-trial dicts refolded in
  trial order) is bit-for-bit identical to the monolithic fold.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.attacks import MGAAttack
from repro.datasets import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.protocols import GRR
from repro._rng import spawn_sequences
from repro.sim.cache import CellCache, fingerprint_seed_sequences
from repro.sim.engine import (
    TASK_COUNTER,
    TrialBudget,
    Welford,
    aggregate_metrics,
    parallel_map,
    run_adaptive_trials,
)
from repro.sim.experiment import RunContext, evaluate_recovery, run_cell

D = 8
DATASET = zipf_dataset(domain_size=D, num_users=2_000, exponent=1.0, rng=3)


def _protocol() -> GRR:
    return GRR(epsilon=1.0, domain_size=D)


def _attack() -> MGAAttack:
    return MGAAttack(domain_size=D, r=2, rng=0)


def _normal_metric(seed: np.random.SeedSequence) -> dict[str, float]:
    """One synthetic unit-variance observation, a pure function of the seed."""
    rng = np.random.default_rng(seed)
    return {"x": float(rng.normal(loc=1.0, scale=1.0))}


def _stream(entropy: int, count: int) -> list[np.random.SeedSequence]:
    return list(np.random.SeedSequence(entropy).spawn(count))


class TestTrialBudgetContract:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_halfwidth": 0.0},
            {"target_halfwidth": -1.0},
            {"min_trials": 0},
            {"min_trials": 5, "max_trials": 4},
            {"batch": 0},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(InvalidParameterError):
            TrialBudget(**kwargs)

    def test_checkpoints_are_batch_spaced_and_end_at_max(self):
        budget = TrialBudget(min_trials=2, max_trials=10, batch=3)
        assert budget.checkpoints() == [2, 5, 8, 10]

    def test_checkpoints_degenerate_cases(self):
        assert TrialBudget(min_trials=4, max_trials=4, batch=2).checkpoints() == [4]
        assert TrialBudget(min_trials=2, max_trials=5, batch=100).checkpoints() == [
            2,
            5,
        ]

    def test_met_requires_target_observations_and_known_halfwidths(self):
        strict = TrialBudget(target_halfwidth=0.5)
        assert not TrialBudget().met({"x": aggregate_metrics([{"x": 1.0}])["x"]})
        assert not strict.met({})  # nothing observed yet
        one = aggregate_metrics([{"x": 1.0}])  # count 1: half-width unknown
        assert not strict.met(one)
        tight = aggregate_metrics([{"x": 1.0}, {"x": 1.0001}, {"x": 0.9999}])
        assert strict.met(tight)
        wide = aggregate_metrics([{"x": 0.0}, {"x": 10.0}, {"x": -10.0}])
        assert not strict.met(wide)

    def test_fingerprint_carries_every_result_shaping_field(self):
        budget = TrialBudget(target_halfwidth=0.25, min_trials=3, max_trials=30, batch=4)
        assert budget.fingerprint() == {
            "target_halfwidth": 0.25,
            "min_trials": 3,
            "max_trials": 30,
            "batch": 4,
        }


class TestStoppingRule:
    @pytest.mark.parametrize("entropy", [11, 23, 47])
    @pytest.mark.parametrize("target", [0.6, 0.4, 0.25])
    def test_achieved_halfwidth_meets_target(self, entropy, target):
        # Unit-variance observations: 1.96/sqrt(n) <= target needs roughly
        # (1.96/target)^2 trials, far below max_trials=400 — so the budget
        # must stop early AND the half-width it stopped at must honor the
        # target (the stopping rule is the assertion, not an estimate).
        budget = TrialBudget(
            target_halfwidth=target, min_trials=5, max_trials=400, batch=5
        )
        outcome = run_adaptive_trials(
            budget, _normal_metric, _stream(entropy, 400)
        )
        assert budget.min_trials <= outcome.trials < budget.max_trials
        assert outcome.trials in budget.checkpoints()
        assert outcome.achieved_halfwidth is not None
        assert outcome.achieved_halfwidth <= target

    @pytest.mark.parametrize("entropy", [11, 23, 47])
    def test_stopping_is_unbiased_prefix_of_fixed_run(self, entropy):
        # Same seeds => the adaptive run IS the fixed-budget run at the
        # final count, bit for bit — no early-stopping selection effect on
        # the reported mean beyond the trial count itself.
        seeds = _stream(entropy, 400)
        budget = TrialBudget(
            target_halfwidth=0.4, min_trials=5, max_trials=400, batch=5
        )
        outcome = run_adaptive_trials(budget, _normal_metric, seeds)
        fixed = aggregate_metrics(
            parallel_map(_normal_metric, seeds[: outcome.trials], workers=1)
        )
        assert outcome.stats == fixed

    def test_max_trials_caps_runaway_cells(self):
        budget = TrialBudget(
            target_halfwidth=1e-9, min_trials=2, max_trials=7, batch=2
        )
        outcome = run_adaptive_trials(
            budget, _normal_metric, _stream(5, 7)
        )
        assert outcome.trials == 7
        assert outcome.achieved_halfwidth is not None
        assert outcome.achieved_halfwidth > 1e-9  # capped, not converged

    def test_requires_full_seed_stream(self):
        budget = TrialBudget(target_halfwidth=0.5, min_trials=2, max_trials=10)
        with pytest.raises(InvalidParameterError):
            run_adaptive_trials(budget, _normal_metric, _stream(0, 9))

    def test_store_state_cannot_change_final_trial_count(self, tmp_path):
        # Fill the whole stream on disk first (target None runs straight
        # to max_trials), then re-run with a convergence target: the final
        # count must equal the store-free run's — disk state only decides
        # what is re-simulated, never when to stop.
        cache = CellCache(tmp_path / "cache")
        spec = {"kind": "trial-stream", "suite": "stopping-rule"}
        seeds = _stream(13, 60)
        fill = TrialBudget(target_halfwidth=None, min_trials=5, max_trials=60, batch=5)
        run_adaptive_trials(
            fill, _normal_metric, seeds, store=cache.block_store(spec)
        )
        budget = TrialBudget(target_halfwidth=0.4, min_trials=5, max_trials=60, batch=5)
        bare = run_adaptive_trials(budget, _normal_metric, seeds)
        warm = run_adaptive_trials(
            budget, _normal_metric, seeds, store=cache.block_store(spec)
        )
        assert warm.trials == bare.trials
        assert warm.stats == bare.stats
        assert warm.blocks_run == 0
        assert warm.blocks_reused > 0


class TestAdaptiveEvaluateRecovery:
    def _evaluate(self, **kwargs):
        return evaluate_recovery(
            DATASET, _protocol(), _attack(), trials=3, rng=5, **kwargs
        )

    def test_converged_cell_equals_fixed_run_at_min_trials(self):
        # A huge target converges at the first checkpoint: the evaluation
        # must equal a fixed min_trials run, field for field.
        budget = TrialBudget(target_halfwidth=1e6, min_trials=3, max_trials=6, batch=3)
        adaptive = self._evaluate(ctx=RunContext(budget=budget))
        fixed = self._evaluate()
        assert adaptive.trials == 3
        assert adaptive == fixed

    def test_capped_cell_equals_fixed_run_at_max_trials(self):
        budget = TrialBudget(
            target_halfwidth=1e-12, min_trials=3, max_trials=6, batch=3
        )
        adaptive = self._evaluate(ctx=RunContext(budget=budget))
        fixed = evaluate_recovery(
            DATASET, _protocol(), _attack(), trials=6, rng=5
        )
        assert adaptive.trials == 6
        assert adaptive == fixed

    def test_topup_simulates_only_the_missing_trials(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        short = TrialBudget(target_halfwidth=1e-12, min_trials=2, max_trials=4, batch=2)
        TASK_COUNTER.reset()
        self._evaluate(ctx=RunContext(cache=cache, budget=short))
        assert TASK_COUNTER.count == 4
        extended = TrialBudget(
            target_halfwidth=1e-12, min_trials=2, max_trials=6, batch=2
        )
        TASK_COUNTER.reset()
        topped = self._evaluate(ctx=RunContext(cache=cache, budget=extended))
        assert TASK_COUNTER.count == 2  # only trials [4, 6) are new
        assert cache.stats.block_trials_reused >= 4
        fixed = evaluate_recovery(
            DATASET, _protocol(), _attack(), trials=6, rng=5
        )
        assert topped == fixed


class TestRunCellTrialStep:
    """:func:`run_cell` runs every cell through :func:`run_adaptive_trials`:
    a fixed count is the budget whose only checkpoint is that count, and
    only a budgeted cell stores the outcome as entry metadata."""

    BUDGET = TrialBudget(target_halfwidth=1e-12, min_trials=2, max_trials=4, batch=2)

    @staticmethod
    def _spec(seeds):
        return {"kind": "row", "suite": "trial-step", "seeds": fingerprint_seed_sequences(seeds)}

    @staticmethod
    def _states(stats):
        return [{metric: asdict(w) for metric, w in stats.items()}]

    def test_fixed_count_is_one_budget_of_exactly_trials(self):
        TASK_COUNTER.reset()
        rows = run_cell(7, self._spec, _normal_metric, self._states, trials=3)
        assert TASK_COUNTER.count == 3
        budget = TrialBudget(min_trials=3, max_trials=3)
        outcome = run_adaptive_trials(budget, _normal_metric, spawn_sequences(7, 3))
        assert rows == self._states(outcome.stats) and rows[0]["x"]["count"] == 3

    def test_only_a_budgeted_cell_stores_meta(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        for budget in (None, self.BUDGET):
            run_cell(7, self._spec, _normal_metric, self._states,
                     trials=3, ctx=RunContext(cache=cache, budget=budget))
        stored = {
            "budget" in entry.spec: json.loads(entry.path.read_text(encoding="utf-8"))
            for entry in cache.entries()
        }
        assert "meta" not in stored[False]
        outcome = run_adaptive_trials(self.BUDGET, _normal_metric, spawn_sequences(7, 4))
        assert stored[True]["meta"] == outcome.meta()
        assert set(outcome.meta()) == {"trials", "blocks", "achieved_halfwidth"}
        assert outcome.meta()["trials"] == 4 and outcome.meta()["blocks"] == 2


class TestWelfordPartitionProperties:
    """Any contiguous partition of N trials reproduces the monolithic stats.

    Two layers, matching how results actually flow:

    * the cache's serving path — raw per-trial dicts concatenated across
      blocks and refolded in trial order — is asserted *bit-for-bit*
      against the monolithic fold (this is why adaptive results are
      bit-identical to fixed-budget runs);
    * :meth:`Welford.merge` (Chan et al.'s parallel update, used for
      display/verify cross-checks) reproduces mean/variance/CI to within
      floating-point reassociation tolerance, with exact counts.
    """

    N = 48

    def _values(self, entropy: int) -> list[float]:
        rng = np.random.default_rng(entropy)
        return [float(v) for v in rng.normal(loc=0.3, scale=2.0, size=self.N)]

    def _partitions(self, entropy: int) -> list[list[int]]:
        """Seeded random cut points, plus adversarial fixed shapes."""
        rng = np.random.default_rng(entropy)
        partitions = [
            [0, self.N],  # single monolithic block
            list(range(self.N + 1)),  # all single-trial blocks
            [0, 0, 1, self.N, self.N],  # empty, single, rest, empty
        ]
        for _ in range(8):
            cut_count = int(rng.integers(1, 10))
            cuts = sorted(int(c) for c in rng.integers(0, self.N + 1, size=cut_count))
            partitions.append([0, *cuts, self.N])
        return partitions

    @pytest.mark.parametrize("entropy", [1, 2, 3])
    def test_merge_reproduces_monolithic_statistics(self, entropy):
        values = self._values(entropy)
        monolithic = Welford()
        for value in values:
            monolithic.add(value)
        for bounds in self._partitions(entropy):
            merged = Welford()
            for start, stop in zip(bounds[:-1], bounds[1:]):
                segment = Welford()
                for value in values[start:stop]:
                    segment.add(value)
                merged.merge(segment)
            assert merged.count == monolithic.count
            assert merged.mean == pytest.approx(monolithic.mean, rel=1e-12)
            assert merged.variance == pytest.approx(monolithic.variance, rel=1e-12)
            assert merged.ci95_halfwidth == pytest.approx(
                monolithic.ci95_halfwidth, rel=1e-12
            )

    @pytest.mark.parametrize("entropy", [1, 2, 3])
    def test_block_reassembly_is_bit_identical(self, entropy, tmp_path):
        # Store the same trials through appends of differently-sized
        # prefixes (one stream per partition) and serve them back: the
        # refolded stats must equal the monolithic fold EXACTLY — JSON
        # round-trips of shortest-repr floats are lossless and refolding
        # preserves trial order, so no tolerance is needed or allowed here.
        per_trial = [{"x": v, "y": v * v} for v in self._values(entropy)]
        monolithic = aggregate_metrics(per_trial)
        cache = CellCache(tmp_path / "cache")
        for index, bounds in enumerate(self._partitions(entropy)):
            store = cache.block_store(
                {"kind": "trial-stream", "suite": "partition", "index": index}
            )
            for stop in sorted(set(bounds) - {0}):
                store.append(per_trial[:stop])
            served = store.load()
            assert served == per_trial
            assert aggregate_metrics(served) == monolithic

    def test_merge_with_empty_accumulator_is_exact(self):
        filled = Welford()
        for value in self._values(9):
            filled.add(value)
        reference = replace(filled)
        filled.merge(Welford())  # no-op
        assert filled == reference
        adopted = Welford()
        adopted.merge(filled)  # adopt: bitwise copy of the filled state
        assert adopted == reference
