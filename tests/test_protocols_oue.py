"""Statistical and structural tests for OUE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.protocols import OUE, counts_to_items


@pytest.fixture()
def proto() -> OUE:
    return OUE(epsilon=1.0, domain_size=10)


def _bits(proto, bit_sets):
    """One OUE report per entry of ``bit_sets``, with exactly those bits on."""
    bits = np.zeros((len(bit_sets), proto.domain_size), dtype=bool)
    for row, on_bits in enumerate(bit_sets):
        bits[row, on_bits] = True
    return bits


class TestPerturb:
    def test_shape_and_dtype(self, proto, rng):
        items = rng.integers(0, proto.domain_size, size=100)
        bits = proto.perturb(items, rng)
        assert bits.shape == (100, proto.domain_size)
        assert bits.dtype == bool

    def test_true_bit_rate_is_half(self, proto, rng):
        n = 100_000
        items = np.full(n, 4, dtype=np.int64)
        bits = proto.perturb(items, rng)
        assert float(bits[:, 4].mean()) == pytest.approx(0.5, abs=0.01)

    def test_other_bit_rate_is_q(self, proto, rng):
        n = 100_000
        items = np.full(n, 4, dtype=np.int64)
        bits = proto.perturb(items, rng)
        for j in (0, 7, 9):
            assert float(bits[:, j].mean()) == pytest.approx(proto.q, abs=0.01)

    def test_bits_independent_across_items(self, proto, rng):
        n = 150_000
        items = np.full(n, 0, dtype=np.int64)
        bits = proto.perturb(items, rng)
        # Joint on-rate of two non-true bits should be ~ q^2.
        joint = float((bits[:, 1] & bits[:, 2]).mean())
        assert joint == pytest.approx(proto.q**2, abs=0.01)


class TestAggregation:
    def test_unbiased_frequency_estimate(self, proto, rng):
        n = 80_000
        counts = np.zeros(proto.domain_size, dtype=np.int64)
        counts[0] = int(0.3 * n)
        counts[9] = n - counts[0]
        items = counts_to_items(counts, rng)
        freqs = proto.aggregate(proto.perturb(items, rng))
        sigma = np.sqrt(proto.theoretical_variance(n)) / n
        assert freqs[0] == pytest.approx(0.3, abs=5 * sigma)
        assert freqs[9] == pytest.approx(0.7, abs=5 * sigma)

    def test_support_counts_column_sums(self, proto):
        bits = np.zeros((4, proto.domain_size), dtype=bool)
        bits[0, 1] = bits[1, 1] = bits[2, 5] = True
        counts = proto.support_counts(bits)
        assert counts[1] == 2
        assert counts[5] == 1
        assert counts.sum() == 3

    def test_wrong_width_raises(self, proto):
        with pytest.raises(ProtocolError):
            proto.support_counts(np.zeros((3, proto.domain_size + 1), dtype=bool))

    def test_1d_reports_raise(self, proto):
        with pytest.raises(ProtocolError):
            proto.support_counts(np.zeros(proto.domain_size, dtype=bool))


class TestFastPath:
    def test_fast_counts_match_theory_mean(self, proto):
        counts = np.zeros(proto.domain_size, dtype=np.int64)
        counts[2] = 4000
        counts[7] = 6000
        n = 10_000
        draws = np.array(
            [proto.sample_genuine_counts(counts, seed) for seed in range(200)],
            dtype=np.float64,
        )
        expected = counts * proto.p + (n - counts) * proto.q
        np.testing.assert_allclose(draws.mean(axis=0), expected, rtol=0.05)

    def test_empirical_variance_matches_eq7(self, proto):
        counts = np.zeros(proto.domain_size, dtype=np.int64)
        counts[0] = 2000
        n = 2000
        estimates = [
            proto.estimate_counts(proto.sample_genuine_counts(counts, seed), n)[3]
            for seed in range(400)
        ]
        theory = proto.theoretical_variance(n)
        assert np.var(estimates) == pytest.approx(theory, rel=0.3)

    def test_fast_matches_sampled_mean(self, proto):
        counts = np.zeros(proto.domain_size, dtype=np.int64)
        counts[5] = 3000
        n = 3000
        fast = [
            proto.estimate_frequencies(proto.sample_genuine_counts(counts, s), n)[5]
            for s in range(30)
        ]
        slow = []
        for s in range(30):
            items = counts_to_items(counts, s)
            slow.append(proto.aggregate(proto.perturb(items, s + 999))[5])
        assert np.mean(fast) == pytest.approx(1.0, abs=0.05)
        assert np.mean(slow) == pytest.approx(1.0, abs=0.05)


class TestCrafting:
    def test_craft_supporting_sets_item_bit(self, proto):
        crafted = proto.craft_supporting(np.array([3, 3, 0]), rng=0)
        assert crafted[:, 3][:2].all() and crafted[2, 0]

    def test_craft_supporting_noise_rate_is_q(self, proto):
        items = np.full(50_000, 0, dtype=np.int64)
        crafted = proto.craft_supporting(items, rng=1)
        # Non-chosen bits blend at the genuine rate q.
        other_rate = float(crafted[:, 1:].mean())
        assert other_rate == pytest.approx(proto.q, abs=0.01)


class TestReportOps:
    def test_concat(self, proto):
        a = proto.craft_supporting(np.array([0]))
        b = proto.craft_supporting(np.array([1, 2]))
        combined = proto.concat_reports(a, b)
        assert proto.num_reports(combined) == 3

    def test_supporting_any(self, proto):
        bits = _bits(proto, [[0, 1], [5], [2]])
        mask = proto.reports_supporting_any(bits, [1, 2])
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_supporting_any_empty_targets(self, proto):
        bits = _bits(proto, [[0]])
        mask = proto.reports_supporting_any(bits, [])
        np.testing.assert_array_equal(mask, [False])

    def test_target_support_counts(self, proto):
        bits = _bits(proto, [[0, 1, 2], [2], []])
        counts = proto.target_support_counts(bits, [0, 1, 2])
        np.testing.assert_array_equal(counts, [3, 1, 0])

    def test_select_reports(self, proto):
        bits = _bits(proto, [[0], [1], [2]])
        kept = proto.select_reports(bits, np.array([False, True, True]))
        assert proto.num_reports(kept) == 2
        assert kept[0, 1] and kept[1, 2]
