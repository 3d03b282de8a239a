"""Cross-epoch statistical pins for the evolving-population exhibit.

Four promises under test (ISSUE 10 satellite 1 + the ``simulate_history``
RNG regression of satellite 3):

* per-epoch frequency estimates stay unbiased under population drift —
  Monte-Carlo means land within tolerances derived from the protocols'
  analytic count variances (Eqs. 4/7), not hand-tuned epsilons;
* LDPRecover strictly improves the poisoned epochs' MSE of a bursting
  schedule across pinned seeds, while leaving the exhibit's clean-epoch
  story intact;
* the cross-epoch z-score detector, fitted on the clean pre-burst
  history, beats a history-less (single-epoch, cross-item) z-score
  baseline at the burst epoch;
* ``simulate_history`` draws its drift off a dedicated spawned stream:
  the epoch-``e`` estimate is invariant to the horizon, and the parent
  generator's subsequent draws are invariant to the epoch count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import MGAAttack, ScheduledAttack
from repro.core.heavyhitters import tail_items
from repro.core.recover import DEFAULT_ETA
from repro.protocols import make_protocol
from repro.protocols.base import counts_to_items
from repro.sim.history import AttackSchedule, epoch_populations, simulate_history
from repro.sim.outliers import ZScoreOutlierDetector
from repro.sim.pipeline import malicious_count
from repro.sim.scenarios import (
    EPOCH_COUNT,
    EPOCH_TARGET_COUNT,
    _epoch_trial,
    detection_f1,
)
from repro.sim.figures import load_dataset

DOMAIN_USERS = 3_000
BURST_AT = 3


def _burst_trial(protocol_name: str, seed: int, num_users: int = 8_000) -> dict[str, float]:
    """One pinned burst-schedule trial, scenario-shaped."""
    dataset = load_dataset("ipums", num_users)
    targets = tail_items(dataset.frequencies, EPOCH_TARGET_COUNT)
    protocol = make_protocol(protocol_name, 0.5, dataset.domain_size)
    scheduled = ScheduledAttack(
        MGAAttack(domain_size=dataset.domain_size, targets=targets),
        AttackSchedule.burst(0.15, at=BURST_AT),
        EPOCH_COUNT,
    )
    return _epoch_trial(
        dataset=dataset,
        protocol=protocol,
        scheduled=scheduled,
        drift=0.05,
        eta=DEFAULT_ETA,
        collectors=1,
        seed=np.random.SeedSequence(seed),
    )


class TestPerEpochUnbiasedness:
    """Monte-Carlo unbiasedness of clean per-epoch estimates under drift.

    The tolerance is analytic: the per-item frequency-estimate variance is
    ``theoretical_variance(n, f) / n**2`` (the paper's count variance
    rescaled), so the mean of ``R`` independent trials must land within
    ``z * sqrt(var / R)`` of the drifted truth — per item, per epoch.
    """

    TRIALS = 40
    EPOCHS = 3
    Z = 4.5  # ~1.4e-3 family-wise false-alarm over d*epochs comparisons

    @pytest.mark.parametrize("name", ["grr", "oue"])
    def test_estimates_unbiased_against_drifted_truth(self, name):
        dataset = load_dataset("ipums", DOMAIN_USERS)
        populations = epoch_populations(dataset, self.EPOCHS, drift=0.08, rng=11)
        protocol = make_protocol(name, 2.0, dataset.domain_size)
        n = dataset.num_users
        sums = np.zeros((self.EPOCHS, dataset.domain_size))
        for trial in range(self.TRIALS):
            gen = np.random.default_rng(1_000 + trial)
            for epoch, population in enumerate(populations):
                items = counts_to_items(population.counts, gen)
                sums[epoch] += protocol.aggregate(protocol.perturb(items, gen))
        means = sums / self.TRIALS
        for epoch, population in enumerate(populations):
            truth = population.frequencies
            variances = np.array(
                [protocol.theoretical_variance(n, f) for f in truth]
            ) / float(n) ** 2
            z_scores = np.abs(means[epoch] - truth) / np.sqrt(variances / self.TRIALS)
            assert z_scores.max() < self.Z, (
                f"epoch {epoch}: worst item deviates {z_scores.max():.2f} analytic "
                f"standard errors from the drifted truth"
            )

    def test_drift_actually_moves_the_truth(self):
        dataset = load_dataset("ipums", DOMAIN_USERS)
        populations = epoch_populations(dataset, self.EPOCHS, drift=0.08, rng=11)
        assert not np.array_equal(populations[0].counts, populations[1].counts)
        assert all(p.num_users == dataset.num_users for p in populations)


class TestRecoveryImprovesPoisonedEpochs:
    """LDPRecover strictly shrinks the burst epochs' error, pinned seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("protocol_name", ["grr", "oue"])
    def test_recover_strictly_improves_every_burst_epoch(self, protocol_name, seed):
        out = _burst_trial(protocol_name, seed)
        for epoch in range(BURST_AT, EPOCH_COUNT):
            before = out[f"mse_before_e{epoch}"]
            recovered = out[f"mse_recover_e{epoch}"]
            assert recovered < before, (
                f"epoch {epoch}: LDPRecover must strictly improve the poisoned "
                f"MSE ({recovered:.3e} !< {before:.3e})"
            )
            # Target knowledge can only help further (LDPRecover*).
            assert out[f"mse_star_e{epoch}"] <= recovered

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovery_shrinks_target_frequency_gain(self, seed):
        out = _burst_trial("oue", seed)
        for epoch in range(BURST_AT, EPOCH_COUNT):
            assert out[f"fg_recover_e{epoch}"] < out[f"fg_before_e{epoch}"]


class TestBurstDetectionBeatsNoHistory:
    """The clean pre-burst history is what makes the detector work.

    At loud malicious fractions every rule flags the targets; the regime
    that separates them is a *subtle* burst (``beta=0.03``), where each
    target's jump is huge against its own tight per-item history but
    hides inside the cross-item frequency spread.
    """

    TRIALS = 8
    BETA = 0.03

    def test_cross_epoch_detector_beats_historyless_zscore(self):
        dataset = load_dataset("ipums", 20_000)
        protocol = make_protocol("oue", 0.5, dataset.domain_size)
        targets = tail_items(dataset.frequencies, EPOCH_TARGET_COUNT)
        attack = MGAAttack(domain_size=dataset.domain_size, targets=targets)
        with_history, without_history = [], []
        for seed in range(self.TRIALS):
            gen = np.random.default_rng(100 + seed)
            history = simulate_history(dataset, protocol, epochs=4, drift=0.05, rng=gen)
            current = history.final_dataset
            items = counts_to_items(current.counts, gen)
            genuine = protocol.perturb(items, gen)
            m = malicious_count(current.num_users, self.BETA)
            reports = protocol.concat_reports(genuine, attack.craft(protocol, m, gen))
            raw = protocol.aggregate(reports)
            flagged = ZScoreOutlierDetector().fit(history.estimates).detect(raw)
            with_history.append(detection_f1(flagged, targets))
            # History-less baseline: the same z>3 rule, but the only
            # distribution available is the current epoch's cross-item one.
            spread = max(float(raw.std(ddof=1)), 1e-6)
            cross_item = (raw - raw.mean()) / spread
            baseline = np.flatnonzero(cross_item > 3.0)
            without_history.append(detection_f1(baseline, targets))
        gap = float(np.mean(with_history)) - float(np.mean(without_history))
        assert gap > 0.1, (
            f"cross-epoch F1 {np.mean(with_history):.2f} must clearly beat the "
            f"history-less baseline {np.mean(without_history):.2f}"
        )
        assert np.mean(with_history) >= 0.7


class TestSimulateHistoryRngRegression:
    """The drift stream is dedicated: horizons never reshuffle epochs."""

    def _dataset(self):
        return load_dataset("ipums", 2_000)

    def test_epoch_prefix_invariant_to_horizon(self):
        dataset = self._dataset()
        protocol = make_protocol("grr", 1.0, dataset.domain_size)
        short = simulate_history(
            dataset, protocol, epochs=5, drift=0.1, rng=np.random.default_rng(42)
        )
        long = simulate_history(
            dataset, protocol, epochs=8, drift=0.1, rng=np.random.default_rng(42)
        )
        np.testing.assert_array_equal(short.estimates, long.estimates[:5])

    def test_parent_generator_draws_invariant_to_epoch_count(self):
        dataset = self._dataset()
        protocol = make_protocol("grr", 1.0, dataset.domain_size)
        g_short = np.random.default_rng(7)
        simulate_history(dataset, protocol, epochs=3, drift=0.1, rng=g_short)
        after_short = g_short.random(4)
        g_long = np.random.default_rng(7)
        simulate_history(dataset, protocol, epochs=6, drift=0.1, rng=g_long)
        after_long = g_long.random(4)
        np.testing.assert_array_equal(after_short, after_long)
        # Spawning children never consumes the parent's bit stream at all.
        np.testing.assert_array_equal(after_short, np.random.default_rng(7).random(4))

    def test_first_epoch_invariant_to_drift_setting(self):
        # Drift draws live on their own child stream, so switching drift
        # on cannot perturb the epoch-0 collection randomness.
        dataset = self._dataset()
        protocol = make_protocol("oue", 1.0, dataset.domain_size)
        still = simulate_history(
            dataset, protocol, epochs=3, drift=0.0, rng=np.random.default_rng(5)
        )
        drifting = simulate_history(
            dataset, protocol, epochs=3, drift=0.2, rng=np.random.default_rng(5)
        )
        np.testing.assert_array_equal(still.estimates[0], drifting.estimates[0])
        assert not np.array_equal(still.estimates[1], drifting.estimates[1])
