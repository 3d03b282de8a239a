"""Tests for the end-to-end poisoning trial pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import AdaptiveAttack, MGAAttack
from repro.datasets import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.protocols import make_protocol
from repro.sim.pipeline import malicious_count, run_trial

D = 16
DATASET = zipf_dataset(domain_size=D, num_users=8_000, exponent=1.0, rng=6)


class TestMaliciousCount:
    def test_paper_relation(self):
        # beta = m/(n+m)  =>  m = beta*n/(1-beta)
        assert malicious_count(1000, 0.05) == round(0.05 * 1000 / 0.95)

    def test_zero_beta(self):
        assert malicious_count(1000, 0.0) == 0

    def test_invalid_beta(self):
        with pytest.raises(InvalidParameterError):
            malicious_count(1000, 1.0)
        with pytest.raises(InvalidParameterError):
            malicious_count(1000, -0.1)

    def test_realized_beta_matches(self):
        n = 100_000
        m = malicious_count(n, 0.05)
        assert m / (n + m) == pytest.approx(0.05, abs=1e-4)

    def test_warns_when_beta_rounds_to_zero(self):
        """beta > 0 with m = 0 silently de-poisons a cell; it must warn."""
        with pytest.warns(RuntimeWarning, match="m=0"):
            assert malicious_count(40, 0.005) == 0

    def test_strict_raises_when_beta_rounds_to_zero(self):
        with pytest.raises(InvalidParameterError, match="m=0"):
            malicious_count(40, 0.005, strict=True)

    def test_no_warning_for_zero_beta_or_positive_m(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert malicious_count(1000, 0.0) == 0
            assert malicious_count(1000, 0.05) > 0


class TestRunTrial:
    def test_unpoisoned_trial(self, grr):
        data = DATASET
        trial = run_trial(data, grr, None, beta=0.05, rng=0)
        assert trial.m == 0
        np.testing.assert_array_equal(
            trial.poisoned_frequencies, trial.genuine_frequencies
        )
        assert trial.malicious_frequencies is None

    def test_population_sizes(self, grr):
        attack = AdaptiveAttack(domain_size=D, rng=0)
        trial = run_trial(DATASET, grr, attack, beta=0.1, rng=1)
        assert trial.n == DATASET.num_users
        assert trial.m == malicious_count(trial.n, 0.1)
        assert trial.beta == pytest.approx(0.1, abs=1e-3)
        assert trial.true_eta == pytest.approx(trial.m / trial.n)

    def test_domain_mismatch_raises(self, grr):
        bad = zipf_dataset(domain_size=D + 1, num_users=100, rng=0)
        with pytest.raises(InvalidParameterError):
            run_trial(bad, grr, None)

    def test_invalid_mode(self, grr):
        with pytest.raises(InvalidParameterError):
            run_trial(DATASET, grr, None, mode="warp")

    def test_fast_mode_has_no_reports(self, grr):
        attack = AdaptiveAttack(domain_size=D, rng=0)
        trial = run_trial(DATASET, grr, attack, beta=0.05, mode="fast", rng=1)
        assert trial.reports is None
        assert trial.malicious_mask is None

    def test_sampled_mode_reports_and_mask(self, protocol):
        attack = AdaptiveAttack(domain_size=D, rng=0)
        trial = run_trial(DATASET, protocol, attack, beta=0.05, mode="sampled", rng=1)
        assert protocol.num_reports(trial.reports) == trial.n + trial.m
        assert trial.malicious_mask.sum() == trial.m
        # Malicious reports are the tail of the concatenation.
        assert trial.malicious_mask[-1]
        assert not trial.malicious_mask[0]

    def test_mixture_identity(self, grr):
        # Poisoned frequencies are exactly the Eq. 14 mixture of the
        # genuine and malicious aggregates (they share support counts).
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        trial = run_trial(DATASET, grr, attack, beta=0.1, rng=2)
        n, m = trial.n, trial.m
        mixed = (n * trial.genuine_frequencies + m * trial.malicious_frequencies) / (n + m)
        np.testing.assert_allclose(trial.poisoned_frequencies, mixed, atol=1e-10)

    def test_deterministic_given_seed(self, grr):
        attack = AdaptiveAttack(domain_size=D, rng=0)
        t1 = run_trial(DATASET, grr, attack, beta=0.05, rng=7)
        t2 = run_trial(DATASET, grr, attack, beta=0.05, rng=7)
        np.testing.assert_array_equal(t1.poisoned_frequencies, t2.poisoned_frequencies)

    def test_fast_and_sampled_agree_statistically(self, grr):
        attack = MGAAttack(domain_size=D, targets=[0], rng=0)
        fast = [
            run_trial(DATASET, grr, attack, beta=0.05, mode="fast", rng=s)
            .poisoned_frequencies[0]
            for s in range(20)
        ]
        sampled = [
            run_trial(DATASET, grr, attack, beta=0.05, mode="sampled", rng=s)
            .poisoned_frequencies[0]
            for s in range(20)
        ]
        assert np.mean(fast) == pytest.approx(np.mean(sampled), abs=0.02)

    def test_genuine_estimate_near_truth(self, protocol):
        trial = run_trial(DATASET, protocol, None, rng=3)
        # Unpoisoned aggregation is unbiased; per-item errors stay within
        # a few theoretical standard deviations.
        sigma = (
            np.sqrt(protocol.theoretical_variance(trial.n, 0.3)) / trial.n
        )
        err = np.abs(trial.genuine_frequencies - trial.true_frequencies).max()
        assert err < 5 * sigma


class TestTrialSupportCounts:
    """Sampled trials carry the support counts of their reports, which the
    report-level defenses subtract from; other modes hold no reports."""

    @pytest.mark.parametrize("attacked", [True, False], ids=["attacked", "clean"])
    @pytest.mark.parametrize("name", ["grr", "oue", "olh"])
    def test_sampled_counts_equal_a_fresh_scan(self, name, attacked):
        proto = make_protocol(name, 0.5, D)
        attack = MGAAttack(domain_size=D, r=3, rng=0) if attacked else None
        trial = run_trial(DATASET, proto, attack, beta=0.05, mode="sampled", rng=2)
        assert (trial.m > 0) == attacked
        assert trial.support_counts.dtype == np.int64
        np.testing.assert_array_equal(
            trial.support_counts, proto.support_counts(trial.reports)
        )

    @pytest.mark.parametrize("mode,kwargs", [("fast", {}), ("chunked", {"chunk_users": 3_000})])
    def test_other_modes_carry_none(self, mode, kwargs):
        proto = make_protocol("oue", 0.5, D)
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        trial = run_trial(DATASET, proto, attack, beta=0.05, mode=mode, rng=2, **kwargs)
        assert trial.reports is None and trial.support_counts is None
