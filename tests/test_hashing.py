"""Tests for the OLH hash family: determinism, uniformity, independence."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.protocols.hashing import (
    draw_seeds,
    hash_domain,
    hash_domains,
    hash_items,
    mix64,
    value_histograms,
)


class TestMix64:
    def test_deterministic(self):
        x = np.arange(100, dtype=np.uint64)
        np.testing.assert_array_equal(mix64(x), mix64(x))

    def test_bijective_on_sample(self):
        # splitmix64's finalizer is a bijection; no collisions on a sample.
        x = np.arange(100_000, dtype=np.uint64)
        assert np.unique(mix64(x)).size == x.size

    def test_does_not_mutate_input(self):
        x = np.arange(10, dtype=np.uint64)
        original = x.copy()
        mix64(x)
        np.testing.assert_array_equal(x, original)


class TestHashItems:
    def test_range(self):
        values = hash_items(np.uint64(1), np.arange(1000), g=7)
        assert values.min() >= 0
        assert values.max() < 7

    def test_deterministic_per_seed(self):
        a = hash_items(np.uint64(99), np.arange(50), g=4)
        b = hash_items(np.uint64(99), np.arange(50), g=4)
        np.testing.assert_array_equal(a, b)

    def test_seeds_give_different_functions(self):
        a = hash_items(np.uint64(1), np.arange(200), g=4)
        b = hash_items(np.uint64(2), np.arange(200), g=4)
        assert not np.array_equal(a, b)

    def test_broadcasting_grid(self):
        seeds = np.arange(5, dtype=np.uint64)
        items = np.arange(11, dtype=np.uint64)
        grid = hash_items(seeds[:, None], items[None, :], g=3)
        assert grid.shape == (5, 11)
        # Row i must equal the scalar-seed evaluation.
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(grid[i], hash_items(seed, items, g=3))

    def test_uniformity_chi_squared(self):
        # For one item hashed under many seeds, values are uniform over g.
        g = 5
        seeds = np.arange(200_000, dtype=np.uint64)
        values = hash_items(seeds, np.uint64(42), g=g)
        counts = np.bincount(values.astype(np.int64), minlength=g)
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 1e-4

    def test_pairwise_independence_proxy(self):
        # Two distinct items under a common random seed collide with
        # probability about 1/g.
        g = 4
        seeds = np.arange(100_000, dtype=np.uint64)
        a = hash_items(seeds, np.uint64(3), g=g)
        b = hash_items(seeds, np.uint64(17), g=g)
        collision_rate = float(np.mean(a == b))
        assert abs(collision_rate - 1.0 / g) < 0.01

    def test_invalid_g(self):
        with pytest.raises(ValueError):
            hash_items(np.uint64(0), np.arange(3), g=1)


def _splitmix64(z: int) -> int:
    """Pure-Python splitmix64 finalizer (the reference the kernels must match)."""
    mask = 2**64 - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestGolden:
    """Literal hash values: any change to the family or its reduction fails here.

    OLH reports carry hash keys, so cached cells, snapshots and wire batches
    all depend on these exact values.
    """

    SEEDS = [0, 1, 2**62 + 12345, 2**63 - 2]
    ITEMS = [0, 1, 101, 1023, 2**32 + 7]
    VALUES = {
        2: [[1, 0, 0, 0, 1], [0, 0, 1, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 1, 1]],
        3: [[0, 2, 0, 0, 0], [1, 1, 0, 2, 0], [2, 0, 2, 2, 1], [2, 0, 2, 2, 0]],
        4: [[3, 2, 0, 0, 3], [2, 2, 1, 2, 1], [1, 2, 2, 2, 0], [2, 1, 0, 1, 3]],
        6: [[3, 2, 0, 0, 3], [4, 4, 3, 2, 3], [5, 0, 2, 2, 4], [2, 3, 2, 5, 3]],
        9: [[0, 2, 3, 0, 0], [7, 4, 6, 5, 0], [8, 0, 8, 8, 4], [8, 6, 2, 2, 3]],
    }
    MIXED = [
        0xE220A8397B1DCDAF,
        0x910A2DEC89025CC1,
        0xD1024A5FAD64D717,
        0xC99070D0B823C1BF,
        0x27CF1707C6E1D01F,
    ]

    @pytest.mark.parametrize("g", sorted(VALUES))
    def test_grid_and_elementwise_pairs(self, g):
        seeds = np.array(self.SEEDS, dtype=np.uint64)
        items = np.array(self.ITEMS, dtype=np.uint64)
        grid = hash_items(seeds[:, None], items[None, :], g)
        assert grid.dtype == np.uint64
        assert grid.tolist() == self.VALUES[g]
        pairs = hash_items(np.repeat(seeds, items.size), np.tile(items, seeds.size), g)
        assert pairs.tolist() == grid.ravel().tolist()

    def test_mix64(self):
        assert mix64(np.array(self.ITEMS, dtype=np.uint64)).tolist() == self.MIXED

    @pytest.mark.parametrize("g", [2, 3, 7, 2**40 + 3, 2**63 + 5])
    def test_matches_python_reference(self, g):
        rng = np.random.default_rng(g % 1000)
        seeds = rng.integers(0, 2**63 - 1, size=300, dtype=np.int64).astype(np.uint64)
        items = rng.integers(0, 2**40, size=300, dtype=np.int64).astype(np.uint64)
        expected = [
            _splitmix64(_splitmix64(int(x)) ^ int(s)) % g
            for s, x in zip(seeds.tolist(), items.tolist())
        ]
        assert hash_items(seeds, items, g).tolist() == expected


class TestHashDomain:
    def test_shape_and_range(self):
        values = hash_domain(seed=7, domain_size=123, g=3)
        assert values.shape == (123,)
        assert values.max() < 3

    def test_matches_hash_items(self):
        direct = hash_items(np.uint64(7), np.arange(123, dtype=np.uint64), g=3)
        np.testing.assert_array_equal(hash_domain(7, 123, 3), direct)


class TestHashDomains:
    """The batched cohort kernel: one (K, d) grid call."""

    def test_rows_match_hash_domain(self):
        seeds = np.array([0, 7, 2**62, 12345], dtype=np.uint64)
        grid = hash_domains(seeds, domain_size=37, g=4)
        assert grid.shape == (4, 37)
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(grid[i], hash_domain(int(seed), 37, 4))

    def test_rejects_non_1d_seeds(self):
        with pytest.raises(ValueError):
            hash_domains(np.zeros((2, 2), dtype=np.uint64), domain_size=4, g=3)

    def test_empty_seeds(self):
        assert hash_domains(np.empty(0, dtype=np.uint64), 5, 3).shape == (0, 5)


class TestValueHistograms:
    def test_matches_manual_tally(self):
        rng = np.random.default_rng(0)
        groups = rng.integers(0, 6, size=1000)
        values = rng.integers(0, 4, size=1000)
        hist = value_histograms(groups, values, num_groups=6, g=4)
        assert hist.shape == (6, 4) and hist.dtype == np.int64
        for k in range(6):
            np.testing.assert_array_equal(
                hist[k], np.bincount(values[groups == k], minlength=4)
            )
        assert int(hist.sum()) == 1000

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert value_histograms(empty, empty, num_groups=3, g=2).sum() == 0


class TestDrawSeeds:
    def test_count_and_dtype(self):
        seeds = draw_seeds(10, np.random.default_rng(0))
        assert seeds.shape == (10,)
        assert seeds.dtype == np.uint64

    def test_deterministic(self):
        a = draw_seeds(5, np.random.default_rng(3))
        b = draw_seeds(5, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_distinct_with_high_probability(self):
        seeds = draw_seeds(1000, np.random.default_rng(1))
        assert np.unique(seeds).size == 1000
