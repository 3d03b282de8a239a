"""Tests for the experiment harness (multi-trial evaluation, sweeps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._rng import spawn
from repro.attacks import AdaptiveAttack, MGAAttack
from repro.datasets import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.protocols import GRR
from repro.sim.experiment import (
    evaluate_recovery,
    format_table,
    resolve_star_targets,
)
from repro.sim.pipeline import run_trial

D = 16
DATASET = zipf_dataset(domain_size=D, num_users=10_000, exponent=1.0, rng=8)


@pytest.fixture()
def proto():
    return GRR(epsilon=0.5, domain_size=D)


class TestEvaluateRecovery:
    def test_basic_fields(self, proto):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        ev = evaluate_recovery(DATASET, proto, attack, trials=3, rng=1)
        assert ev.trials == 3
        assert ev.protocol == "grr"
        assert ev.mse_before > 0
        assert ev.mse_recover > 0
        assert ev.mse_recover_star is not None
        assert ev.fg_before is not None

    def test_untargeted_attack_has_no_fg(self, proto):
        attack = AdaptiveAttack(domain_size=D, rng=0)
        ev = evaluate_recovery(DATASET, proto, attack, trials=2, rng=1)
        assert ev.fg_before is None
        # Star still runs via the top-increase rule.
        assert ev.mse_recover_star is not None

    def test_no_attack(self, proto):
        ev = evaluate_recovery(DATASET, proto, None, trials=2, rng=1)
        assert ev.attack == "none"
        assert ev.mse_malicious_estimate is None

    def test_detection_requires_sampled(self, proto):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        with pytest.raises(InvalidParameterError):
            evaluate_recovery(
                DATASET, proto, attack, trials=1, mode="fast", with_detection=True
            )

    def test_detection_in_sampled_mode(self, proto):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        ev = evaluate_recovery(
            DATASET, proto, attack, trials=2, mode="sampled", with_detection=True, rng=1
        )
        assert ev.mse_detection is not None
        assert ev.fg_detection is not None

    def test_trials_validation(self, proto):
        with pytest.raises(InvalidParameterError):
            evaluate_recovery(DATASET, proto, None, trials=0)

    def test_deterministic(self, proto):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        a = evaluate_recovery(DATASET, proto, attack, trials=2, rng=9)
        b = evaluate_recovery(DATASET, proto, attack, trials=2, rng=9)
        assert a.mse_before == b.mse_before
        assert a.mse_recover == b.mse_recover

    def test_with_star_disabled(self, proto):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        ev = evaluate_recovery(DATASET, proto, attack, trials=2, with_star=False, rng=1)
        assert ev.mse_recover_star is None

    def test_as_row_keys(self, proto):
        ev = evaluate_recovery(DATASET, proto, None, trials=1, rng=1)
        row = ev.as_row()
        assert row["protocol"] == "grr"
        assert "mse_before" in row

    def test_as_row_includes_malicious_estimate_columns(self, proto):
        """Regression: Figure 7's metric used to be dropped from dumps."""
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        row = evaluate_recovery(DATASET, proto, attack, trials=2, rng=1).as_row()
        assert row["trials"] == 2
        assert row["mse_malicious_estimate"] is not None
        assert row["mse_malicious_estimate_star"] is not None

    def test_as_row_columns_are_stable_across_cells(self, proto):
        """Poisoned and unpoisoned cells must emit identical columns so the
        CSV/JSON writers (which require a uniform header) accept them."""
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        poisoned = evaluate_recovery(DATASET, proto, attack, trials=1, rng=1).as_row()
        clean = evaluate_recovery(DATASET, proto, None, trials=1, rng=1).as_row()
        assert list(poisoned.keys()) == list(clean.keys())


class TestResolveStarTargets:
    def test_explicit_targets_win(self, proto):
        attack = MGAAttack(domain_size=D, targets=[2, 5], rng=0)
        trial = run_trial(DATASET, proto, attack, beta=0.05, rng=1)
        np.testing.assert_array_equal(
            resolve_star_targets(attack, trial, aa_top_k=3), [2, 5]
        )

    def test_top_increase_for_untargeted(self, proto):
        attack = AdaptiveAttack(domain_size=D, rng=0)
        trial = run_trial(DATASET, proto, attack, beta=0.05, rng=1)
        targets = resolve_star_targets(attack, trial, aa_top_k=4)
        assert targets.size == 4


class TestSweep:
    def test_poisoning_grows_with_beta(self, proto):
        attack = AdaptiveAttack(domain_size=D, rng=1)
        low, high = (
            evaluate_recovery(DATASET, proto, attack, beta=beta, trials=3, rng=child)
            for beta, child in zip((0.01, 0.2), spawn(4, 2))
        )
        assert high.mse_before > low.mse_before


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment_and_none(self):
        rows = [
            {"name": "a", "value": 0.5, "extra": None},
            {"name": "longer", "value": 1.25e-4, "extra": None},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4  # header, divider, 2 rows
        assert "name" in lines[0]
        assert "-" in lines[2]  # None rendered as dash

    def test_float_format(self):
        rows = [{"x": 0.123456}]
        text = format_table(rows, float_format="{:.2f}")
        assert "0.12" in text
