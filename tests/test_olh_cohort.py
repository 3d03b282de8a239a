"""Seed-cohort OLH: statistics, engine integration, and cache-key contract.

The contract under test (ISSUE 3 acceptance criteria):

* cohort mode preserves per-item estimate mean and keeps variance within
  theory bounds (marginals unchanged; small-K correlation inflation only);
* the engine's chunked path draws a fresh cohort per chunk and stays
  ``workers=N`` bit-identical to ``workers=1``;
* ``olh_cohort`` enters the canonical cell-spec hash (a cohort run never
  hits a per-user-seed cache entry).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import MGAAttack
from repro.datasets import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.protocols import GRR, OLH
from repro.sim.cache import CellCache, canonical_key, evaluation_cell_spec
from repro.sim.engine import TASK_COUNTER
from repro.sim.experiment import RunContext, evaluate_recovery
from repro.sim.pipeline import chunked_genuine_counts
from repro.sim.scenarios import EXHIBITS
from repro.sim.shard import SweepConfig

D = 16
DATASET = zipf_dataset(domain_size=D, num_users=8_000, exponent=1.0, rng=6)


class TestCohortStatistics:
    """Cohort mode preserves estimate mean/variance within theory bounds."""

    TRIALS = 150
    N = 4_000
    COHORT = 32

    def _estimates(self) -> np.ndarray:
        proto = OLH(epsilon=1.0, domain_size=D, cohort=self.COHORT)
        counts = zipf_dataset(
            domain_size=D, num_users=self.N, exponent=1.0, rng=2
        ).counts
        seeds = np.random.SeedSequence(42).spawn(self.TRIALS)
        rows = []
        for seed in seeds:
            gen = np.random.default_rng(seed)
            support = chunked_genuine_counts(proto, counts, rng=gen, chunk_users=1_000)
            rows.append(proto.estimate_frequencies(support, self.N))
        return np.asarray(rows)

    def test_mean_and_variance_within_theory(self):
        proto = OLH(epsilon=1.0, domain_size=D)
        truth = (
            zipf_dataset(domain_size=D, num_users=self.N, exponent=1.0, rng=2).counts
            / self.N
        )
        estimates = self._estimates()

        # Unbiasedness: every per-item trial mean within 5 sigma-of-the-mean.
        sigma = np.sqrt(proto.theoretical_variance(self.N)) / self.N
        tolerance = 5.0 * sigma / np.sqrt(self.TRIALS)
        np.testing.assert_allclose(estimates.mean(axis=0), truth, atol=tolerance)

        # Variance: within theory bounds.  Shared seeds correlate same-item
        # users, so a mild inflation over Eq. (10) is expected for small K;
        # it must stay bounded (and not collapse below theory either).
        theory = proto.theoretical_variance(self.N) / self.N**2
        ratio = estimates.var(axis=0, ddof=1) / theory
        assert float(ratio.min()) > 0.4
        assert float(ratio.max()) < 3.0


class TestCohortEngine:
    def test_chunked_cell_workers_bit_identical(self):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        kwargs = dict(
            beta=0.05, trials=4, rng=11, chunk_users=1_000, olh_cohort=16
        )
        serial = evaluate_recovery(
            DATASET, OLH(epsilon=0.5, domain_size=D), attack,
            ctx=RunContext(workers=1), **kwargs,
        )
        pooled = evaluate_recovery(
            DATASET, OLH(epsilon=0.5, domain_size=D), attack,
            ctx=RunContext(workers=4), **kwargs,
        )
        assert serial == pooled

    def test_fresh_cohort_per_chunk(self):
        # Two chunks of the same trial must not share seed pools: perturb
        # draws a fresh cohort per call, so a 2-chunk run sees up to 2K
        # distinct seeds.  (Observed through perturb directly.)
        proto = OLH(epsilon=0.5, domain_size=D, cohort=4)
        gen = np.random.default_rng(0)
        first = proto.perturb(np.zeros(100, dtype=np.int64), gen)
        second = proto.perturb(np.zeros(100, dtype=np.int64), gen)
        assert not np.intersect1d(first.seeds, second.seeds).size

    def test_invalid_cohort_raises_in_every_mode(self):
        # The fast-mode no-op must still validate the value.
        with pytest.raises(InvalidParameterError, match="cohort"):
            evaluate_recovery(
                DATASET, OLH(epsilon=0.5, domain_size=D), None,
                trials=1, rng=0, olh_cohort=0,
            )
        with pytest.raises(InvalidParameterError, match="cohort"):
            evaluate_recovery(
                DATASET, OLH(epsilon=0.5, domain_size=D), None,
                trials=1, rng=0, olh_cohort=-4, chunk_users=1_000,
            )

    @pytest.mark.parametrize("cohort", [0, -3])
    @pytest.mark.parametrize("figure", ["fig8", "table1", "heavyhitter"])
    def test_invalid_cohort_rejected_by_fast_mode_exhibits(self, figure, cohort):
        # Their fast cells ignore the cohort, like fig5/fig7/fig10's, and
        # must reject an invalid size just the same.  A SweepConfig rejects
        # it before dispatching to them.
        with pytest.raises(InvalidParameterError, match="cohort"):
            EXHIBITS[figure].rows(num_users=2_000, trials=1, rng=0, olh_cohort=cohort)
        with pytest.raises(InvalidParameterError, match="cohort"):
            SweepConfig(figure=figure, num_users=2_000, trials=1, olh_cohort=cohort)

    def test_olh_cohort_requires_cohort_capable_protocol(self):
        with pytest.raises(InvalidParameterError, match="cohort-capable"):
            evaluate_recovery(
                DATASET, GRR(epsilon=0.5, domain_size=D), None,
                trials=1, rng=0, olh_cohort=8,
            )

    def test_cohort_estimates_recover_truth(self):
        ev = evaluate_recovery(
            DATASET, OLH(epsilon=1.0, domain_size=D), None,
            trials=3, rng=5, chunk_users=2_000, olh_cohort=32,
        )
        assert 0 < ev.mse_before < 5e-3


class TestCohortCacheKey:
    """olh_cohort is part of the cell identity."""

    def _spec(self, protocol):
        return evaluation_cell_spec(
            DATASET, protocol, None,
            beta=0.0, eta=0.2, trials=2, mode="chunked",
            with_star=True, with_detection=False, aa_top_k=5,
            seeds=np.random.SeedSequence(1).spawn(2),
        )

    def test_cohort_changes_key(self):
        base = canonical_key(self._spec(OLH(epsilon=0.5, domain_size=D)))
        k16 = canonical_key(self._spec(OLH(epsilon=0.5, domain_size=D, cohort=16)))
        k8 = canonical_key(self._spec(OLH(epsilon=0.5, domain_size=D, cohort=8)))
        assert len({base, k16, k8}) == 3

    def test_fast_mode_cohort_is_a_no_op_and_key_neutral(self, tmp_path):
        """mode='fast' samples marginals, which cohorts cannot change: the
        knob must neither fork the cache key nor re-simulate."""
        cache = CellCache(tmp_path)
        kwargs = dict(trials=2, rng=3, ctx=RunContext(cache=cache))  # mode stays "fast"
        plain = evaluate_recovery(
            DATASET, OLH(epsilon=0.5, domain_size=D), None, **kwargs
        )
        TASK_COUNTER.reset()
        cohorted = evaluate_recovery(
            DATASET, OLH(epsilon=0.5, domain_size=D), None, olh_cohort=8, **kwargs
        )
        assert TASK_COUNTER.count == 0, "fast-mode cohort must share the cache entry"
        assert cohorted == plain

    def test_cohort_chunk_schedule_enters_key(self, tmp_path):
        """Cohort-mode chunked cells draw one fresh cohort per chunk, so
        the resolved chunk size shapes the distribution and must fork the
        key — while non-cohort OLH chunked cells stay chunk-invariant."""
        cache = CellCache(tmp_path)
        kwargs = dict(trials=2, rng=3, olh_cohort=8, ctx=RunContext(cache=cache))
        evaluate_recovery(
            DATASET, OLH(epsilon=0.5, domain_size=D), None,
            chunk_users=1_000, **kwargs,
        )
        TASK_COUNTER.reset()
        evaluate_recovery(
            DATASET, OLH(epsilon=0.5, domain_size=D), None,
            chunk_users=4_000, **kwargs,
        )
        assert TASK_COUNTER.count > 0, "a different cohort schedule must re-simulate"
        assert cache.stats.misses == 2
        # Without a cohort, OLH chunked cells keep the chunk-invariant key.
        plain = CellCache(tmp_path / "plain")
        evaluate_recovery(DATASET, OLH(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=3, chunk_users=1_000, ctx=RunContext(cache=plain))
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, OLH(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=3, chunk_users=4_000, ctx=RunContext(cache=plain))
        assert TASK_COUNTER.count == 0 and plain.stats.hits == 1

    def test_cohort_run_never_hits_per_user_entry(self, tmp_path):
        cache = CellCache(tmp_path)
        kwargs = dict(trials=2, rng=3, chunk_users=1_000, ctx=RunContext(cache=cache))
        per_user = evaluate_recovery(
            DATASET, OLH(epsilon=0.5, domain_size=D), None, **kwargs
        )
        TASK_COUNTER.reset()
        cohorted = evaluate_recovery(
            DATASET, OLH(epsilon=0.5, domain_size=D), None, olh_cohort=8, **kwargs
        )
        assert TASK_COUNTER.count > 0, "cohort cell must not hit the per-user entry"
        assert cache.stats.hits == 0 and cache.stats.misses == 2
        assert cohorted.mse_before != per_user.mse_before  # different streams
        # A warm cohort rerun is served from its own entry.
        TASK_COUNTER.reset()
        warm = evaluate_recovery(
            DATASET, OLH(epsilon=0.5, domain_size=D), None, olh_cohort=8, **kwargs
        )
        assert TASK_COUNTER.count == 0 and warm == cohorted
