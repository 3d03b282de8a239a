"""Tests for the Detection comparison baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import MGAAttack
from repro.core.detection import detect_and_aggregate
from repro.datasets import zipf_dataset
from repro.exceptions import RecoveryError
from repro.protocols import GRR, OLH, OUE
from repro.sim import frequency_gain, mse, run_trial

D = 20
DATASET = zipf_dataset(domain_size=D, num_users=20_000, exponent=1.0, rng=2)


class TestDetectionMechanics:
    def test_grr_removes_exactly_target_reports(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        reports = np.array([0, 1, 2, 1, 1, 5])
        result = detect_and_aggregate(proto, reports, target_items=[1])
        assert result.removed == 3
        assert result.kept == 3
        assert result.removal_rate == pytest.approx(0.5)

    def test_oue_threshold_uses_half_targets(self):
        proto = OUE(epsilon=0.5, domain_size=D)
        targets = [0, 1, 2, 3]
        # One report supports all targets (MGA signature), one supports a
        # single target (genuine-looking), one supports none.
        bits = proto.craft_bit_vectors([[0, 1, 2, 3], [0], [7]])
        result = detect_and_aggregate(proto, bits, target_items=targets)
        assert result.removed == 1
        assert result.kept == 2

    def test_custom_fraction(self):
        proto = OUE(epsilon=0.5, domain_size=D)
        targets = [0, 1, 2, 3]
        bits = proto.craft_bit_vectors([[0, 1, 2, 3], [0], [7]])
        strict = detect_and_aggregate(
            proto, bits, target_items=targets, min_support_fraction=0.25
        )
        assert strict.removed == 2  # both target-touching reports go

    def test_empty_targets_rejected(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        with pytest.raises(RecoveryError):
            detect_and_aggregate(proto, np.array([0, 1]), target_items=[])

    @pytest.mark.parametrize("proto_cls", [GRR, OUE, OLH])
    @pytest.mark.parametrize("targets", [[D], [0, D + 3], [-1], [2**70], [1, -(2**70)]])
    def test_out_of_domain_targets_rejected(self, proto_cls, targets):
        proto = proto_cls(epsilon=0.5, domain_size=D)
        reports = proto.perturb(np.arange(D), np.random.default_rng(0))
        with pytest.raises(RecoveryError, match="must lie in"):
            detect_and_aggregate(proto, reports, target_items=targets)

    def test_bad_fraction_rejected(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        with pytest.raises(RecoveryError):
            detect_and_aggregate(
                proto, np.array([0, 1]), target_items=[0], min_support_fraction=0.0
            )

    def test_all_removed_raises(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        with pytest.raises(RecoveryError):
            detect_and_aggregate(proto, np.array([1, 1, 1]), target_items=[1])


class TestDetectionBehaviour:
    @pytest.mark.parametrize("proto_cls", [GRR, OUE, OLH])
    def test_detection_removes_most_mga_reports(self, proto_cls):
        proto = proto_cls(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, r=5, rng=0)
        trial = run_trial(DATASET, proto, attack, beta=0.1, mode="sampled", rng=1)
        result = detect_and_aggregate(proto, trial.reports, attack.target_items)
        # Flagging recall on the actual malicious tail must be high.
        support = proto.target_support_counts(trial.reports, attack.target_items)
        import math

        cap = min(attack.target_items.size, proto.max_report_support())
        threshold = max(1, math.ceil(0.5 * cap))
        flagged = support >= threshold
        malicious_flagged = flagged[trial.malicious_mask].mean()
        assert malicious_flagged > 0.9

    def test_detection_over_removes_genuine_grr(self):
        # The paper's criticism: genuine users holding target items are
        # removed too, deflating target frequencies (negative FG).
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, targets=[0], rng=0)  # head item
        trial = run_trial(DATASET, proto, attack, beta=0.05, mode="sampled", rng=1)
        result = detect_and_aggregate(proto, trial.reports, attack.target_items)
        fg = frequency_gain(
            trial.genuine_frequencies, result.frequencies, attack.target_items
        )
        assert fg < 0  # over-correction

    def test_ldprecover_beats_detection_in_mse(self):
        from repro.core.recover import recover_frequencies

        proto = GRR(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, r=5, rng=0)
        det_mse, rec_mse = [], []
        for seed in range(5):
            trial = run_trial(DATASET, proto, attack, beta=0.05, mode="sampled", rng=seed)
            detection = detect_and_aggregate(proto, trial.reports, attack.target_items)
            recovery = recover_frequencies(
                trial.poisoned_frequencies, proto, target_items=attack.target_items
            )
            det_mse.append(mse(trial.true_frequencies, detection.frequencies))
            rec_mse.append(mse(trial.true_frequencies, recovery.frequencies))
        assert np.mean(rec_mse) < np.mean(det_mse)


_SMALL = zipf_dataset(domain_size=D, num_users=3_000, exponent=1.0, rng=3)


def _both_ways(proto, reports, targets, **kwargs):
    direct = detect_and_aggregate(proto, reports, targets, **kwargs)
    counts = proto.support_counts(reports)
    shortcut = detect_and_aggregate(proto, reports, targets, counts=counts, **kwargs)
    assert shortcut.frequencies.tobytes() == direct.frequencies.tobytes()
    assert (shortcut.removed, shortcut.kept) == (direct.removed, direct.kept)
    return direct


class TestCountsShortcut:
    """With the batch's support counts passed in, Detection subtracts the
    flagged reports' counts instead of aggregating the kept ones; the
    result is byte-identical either way."""

    @pytest.mark.parametrize("make", [GRR, OUE, OLH])
    def test_poisoned_batch(self, make):
        proto = make(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        trial = run_trial(_SMALL, proto, attack, beta=0.05, mode="sampled", rng=1)
        result = _both_ways(proto, trial.reports, attack.target_items)
        assert result.removed > 0 and result.kept > 0

    @pytest.mark.parametrize("make", [GRR, OUE, OLH])
    def test_nothing_flagged(self, make):
        proto = make(epsilon=0.5, domain_size=D)
        reports = proto.perturb(np.arange(200) % D, 0)
        clean = proto.select_reports(reports, ~proto.reports_supporting_any(reports, [0]))
        result = _both_ways(proto, clean, [0])
        assert result.removed == 0 and result.kept == proto.num_reports(clean) > 0

    @pytest.mark.parametrize("make", [GRR, OUE, OLH])
    def test_everything_flagged_raises(self, make):
        proto = make(epsilon=0.5, domain_size=D)
        reports = proto.craft_supporting(np.zeros(5, dtype=np.int64), 0)
        counts = proto.support_counts(reports)
        for kwargs in ({}, {"counts": counts}):
            with pytest.raises(RecoveryError, match="removed every report"):
                detect_and_aggregate(proto, reports, [0], **kwargs)
