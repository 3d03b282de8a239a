"""Tests for the MGA targeted attack across all three protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import MGAAttack
from repro.attacks.base import resolve_target_items
from repro.exceptions import AttackError
from repro.protocols import GRR, OLH, OUE
from repro.protocols import hashing

D = 30


class TestTargetSelection:
    def test_random_targets(self):
        attack = MGAAttack(domain_size=D, r=5, rng=0)
        assert attack.target_items.size == 5
        assert attack.r == 5
        assert np.all(attack.target_items < D)

    def test_explicit_targets(self):
        attack = MGAAttack(domain_size=D, targets=[2, 8, 8])
        np.testing.assert_array_equal(attack.target_items, [2, 8])

    def test_resolve_requires_r_or_targets(self):
        with pytest.raises(AttackError):
            resolve_target_items(None, None, D)

    def test_resolve_r_too_large(self):
        with pytest.raises(AttackError):
            resolve_target_items(None, D + 1, D)

    def test_resolve_out_of_range(self):
        with pytest.raises(AttackError):
            resolve_target_items(np.array([D]), None, D)

    def test_targeted_flag(self):
        assert MGAAttack(domain_size=D, r=3, rng=0).targeted is True

    def test_item_distribution_uniform_over_targets(self):
        attack = MGAAttack(domain_size=D, targets=[1, 2, 3, 4])
        probs = attack.item_distribution(GRR(epsilon=0.5, domain_size=D))
        assert probs[1] == pytest.approx(0.25)
        assert probs[0] == 0.0

    def test_deterministic_targets(self):
        a = MGAAttack(domain_size=D, r=7, rng=11).target_items
        b = MGAAttack(domain_size=D, r=7, rng=11).target_items
        np.testing.assert_array_equal(a, b)


class TestMGAGRR:
    def test_reports_are_targets(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, targets=[4, 9], rng=0)
        reports = attack.craft(proto, 1000, rng=1)
        assert set(np.unique(reports)).issubset({4, 9})

    def test_uniform_over_targets(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, targets=[4, 9], rng=0)
        reports = attack.craft(proto, 50_000, rng=1)
        assert float(np.mean(reports == 4)) == pytest.approx(0.5, abs=0.01)


class TestMGAOUE:
    def test_all_target_bits_set(self):
        proto = OUE(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, targets=[0, 5, 9], rng=0)
        bits = attack.craft(proto, 200, rng=1)
        assert bits[:, [0, 5, 9]].all()

    def test_padding_matches_expected_ones(self):
        proto = OUE(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, targets=[0], rng=0)
        bits = attack.craft(proto, 500, rng=1)
        expected = round(proto.p + (D - 1) * proto.q)
        np.testing.assert_array_equal(bits.sum(axis=1), expected)

    def test_padding_distinct_bits(self):
        proto = OUE(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, targets=[0], rng=0)
        bits = attack.craft(proto, 100, rng=1)
        # Each row: exact count implies distinct pad bits (bool matrix).
        assert bits.dtype == bool

    def test_no_padding_option(self):
        proto = OUE(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, targets=[0, 1], pad_oue=False, rng=0)
        bits = attack.craft(proto, 50, rng=1)
        np.testing.assert_array_equal(bits.sum(axis=1), 2)

    def test_padding_avoids_targets(self):
        proto = OUE(epsilon=0.5, domain_size=D)
        targets = [3, 4]
        attack = MGAAttack(domain_size=D, targets=targets, rng=0)
        bits = attack.craft(proto, 300, rng=1)
        # Target columns are always on; if padding ever landed on a target
        # the row's total on-bit count would fall short of the expected
        # value (bool matrix absorbs double-sets).
        assert bits[:, targets].all()
        expected = round(proto.p + (D - 1) * proto.q)
        np.testing.assert_array_equal(bits.sum(axis=1), expected)


class TestMGAOUEPaddingLaw:
    """Each crafted OUE report pads a uniform ``pad``-subset of the ``k``
    non-target bits, and crafting draws exactly ``m * k`` doubles."""

    TARGETS = [2, 11]

    def _craft(self, m: int, seed: int = 1):
        proto = OUE(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, targets=self.TARGETS, rng=0)
        gen = np.random.default_rng(seed)
        bits = attack.craft(proto, m, gen)
        pad = round(proto.p + (D - 1) * proto.q) - len(self.TARGETS)
        non_targets = np.setdiff1d(np.arange(D), self.TARGETS)
        return bits, bits[:, non_targets], pad, gen

    def test_exactly_pad_bits_per_row_never_on_a_target(self):
        bits, padding, pad, _ = self._craft(5_000)
        assert pad == 9 and padding.shape[1] == D - 2
        assert bits[:, self.TARGETS].all()
        np.testing.assert_array_equal(padding.sum(axis=1), pad)
        np.testing.assert_array_equal(bits.sum(axis=1), pad + len(self.TARGETS))

    def test_single_and_pairwise_inclusion(self):
        m = 60_000
        _, padding, pad, _ = self._craft(m)
        k = padding.shape[1]
        single = pad / k
        ones = padding.mean(axis=0)
        assert np.abs(ones - single).max() < 5 * np.sqrt(single * (1 - single) / m)
        pair = pad * (pad - 1) / (k * (k - 1))
        both = (padding.T.astype(np.int64) @ padding.astype(np.int64)) / m
        off_diagonal = both[~np.eye(k, dtype=bool)]
        assert np.abs(off_diagonal - pair).max() < 5 * np.sqrt(pair * (1 - pair) / m)

    @pytest.mark.parametrize("m", [1, 7, 3_000])
    def test_draws_exactly_m_times_k_doubles(self, m):
        _, padding, _, gen = self._craft(m, seed=5)
        reference = np.random.default_rng(5)
        reference.random(m * padding.shape[1])
        assert gen.bit_generator.state == reference.bit_generator.state
        assert gen.random() == reference.random()


class TestMGAOLH:
    def test_reports_support_many_targets(self):
        proto = OLH(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, r=10, seed_candidates=512, rng=0)
        reports = attack.craft(proto, 300, rng=1)
        support = proto.target_support_counts(reports, attack.target_items)
        # Random (seed, value) pairs support ~ r/g targets on average; the
        # searched pairs must beat that clearly.
        baseline = attack.r / proto.g
        assert support.mean() > baseline * 1.3

    def test_search_returns_best_coverage_pairs(self):
        proto = OLH(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, r=6, seed_candidates=128, rng=0)
        gen = np.random.default_rng(2)
        seeds, values = attack._search_olh_reports(proto, gen)
        assert seeds.size == values.size >= 1
        # Every winner must achieve identical (maximal) coverage.
        coverages = []
        for seed, value in zip(seeds, values):
            hashes = hashing.hash_items(
                seed, attack.target_items.astype(np.uint64), proto.g
            )
            coverages.append(int(np.sum(hashes == value)))
        assert len(set(coverages)) == 1

    def test_craft_count(self):
        proto = OLH(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, r=4, rng=0)
        reports = attack.craft(proto, 123, rng=1)
        assert proto.num_reports(reports) == 123


class TestMGAMisc:
    def test_invalid_seed_candidates(self):
        with pytest.raises(AttackError):
            MGAAttack(domain_size=D, r=3, seed_candidates=0, rng=0)

    def test_negative_m(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        with pytest.raises(AttackError):
            attack.craft(proto, -1)

    def test_describe_mentions_r(self):
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        assert "r=3" in attack.describe()

    def test_frequency_gain_realized(self):
        # End-to-end: MGA inflates its targets' estimated frequencies.
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, targets=[0], rng=0)
        rng = np.random.default_rng(3)
        genuine_items = rng.integers(0, D, size=20_000)
        genuine = proto.perturb(genuine_items, rng)
        malicious = attack.craft(proto, 2_000, rng)
        combined = proto.concat_reports(genuine, malicious)
        freq_before = proto.aggregate(genuine)
        freq_after = proto.aggregate(combined)
        assert freq_after[0] > freq_before[0] + 0.02
