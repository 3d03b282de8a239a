"""Statistical and structural tests for OLH."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.protocols import OLH, OLHReports, counts_to_items
from repro.protocols import hashing


@pytest.fixture()
def proto() -> OLH:
    return OLH(epsilon=1.0, domain_size=12)


class TestReportsContainer:
    def test_length(self):
        reports = OLHReports(seeds=np.array([1, 2], dtype=np.uint64), values=np.array([0, 1]))
        assert len(reports) == 2

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ProtocolError):
            OLHReports(seeds=np.array([1], dtype=np.uint64), values=np.array([0, 1]))


class TestPerturb:
    def test_values_in_hash_range(self, proto, rng):
        items = rng.integers(0, proto.domain_size, size=5000)
        reports = proto.perturb(items, rng)
        assert reports.values.min() >= 0
        assert reports.values.max() < proto.g

    def test_keep_rate(self, proto, rng):
        n = 200_000
        items = np.full(n, 2, dtype=np.int64)
        reports = proto.perturb(items, rng)
        true_hashes = hashing.hash_items(reports.seeds, np.uint64(2), proto.g)
        keep_rate = float(np.mean(true_hashes == reports.values.astype(np.uint64)))
        assert keep_rate == pytest.approx(proto.p, abs=0.005)

    def test_unique_seeds_per_user(self, proto, rng):
        reports = proto.perturb(rng.integers(0, proto.domain_size, size=2000), rng)
        assert np.unique(reports.seeds).size == 2000


class TestAggregation:
    def test_unbiased_frequency_estimate(self, proto, rng):
        n = 60_000
        counts = np.zeros(proto.domain_size, dtype=np.int64)
        counts[1] = int(0.5 * n)
        counts[8] = n - counts[1]
        items = counts_to_items(counts, rng)
        freqs = proto.aggregate(proto.perturb(items, rng))
        sigma = np.sqrt(proto.theoretical_variance(n)) / n
        assert freqs[1] == pytest.approx(0.5, abs=6 * sigma)
        assert freqs[8] == pytest.approx(0.5, abs=6 * sigma)

    def test_support_counts_definition(self, proto, rng):
        # Cross-check the chunked implementation against a direct loop.
        items = rng.integers(0, proto.domain_size, size=500)
        reports = proto.perturb(items, rng)
        counts = proto.support_counts(reports)
        manual = np.zeros(proto.domain_size, dtype=np.int64)
        for v in range(proto.domain_size):
            hashes = hashing.hash_items(reports.seeds, np.uint64(v), proto.g)
            manual[v] = int(np.sum(hashes == reports.values.astype(np.uint64)))
        np.testing.assert_array_equal(counts, manual)

    def test_support_counts_chunking_boundary(self, proto, rng, monkeypatch):
        # Tiles narrower than the domain, ragged tiles, one-cell tiles and
        # one tile for the whole batch all count identically.
        items = rng.integers(0, proto.domain_size, size=1000)
        reports = proto.perturb(items, rng)
        full = proto.support_counts(reports)
        for cells in (1, 11, 12, 13, 37, 12 * 17, 12_000, 10**7):
            monkeypatch.setattr(hashing, "TILE_CELLS", cells)
            np.testing.assert_array_equal(proto.support_counts(reports), full)

    def test_empty_reports(self, proto):
        empty = OLHReports(
            seeds=np.empty(0, dtype=np.uint64), values=np.empty(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(
            proto.support_counts(empty), np.zeros(proto.domain_size, dtype=np.int64)
        )

    def test_wrong_type_raises(self, proto):
        with pytest.raises(ProtocolError):
            proto.support_counts(np.zeros(10))


class TestFastPath:
    def test_fast_counts_mean(self, proto):
        counts = np.zeros(proto.domain_size, dtype=np.int64)
        counts[3] = 5000
        n = 5000
        draws = np.array(
            [proto.sample_genuine_counts(counts, seed) for seed in range(200)],
            dtype=np.float64,
        )
        expected = counts * proto.p + (n - counts) * proto.q
        np.testing.assert_allclose(draws.mean(axis=0), expected, rtol=0.05)

    def test_fast_matches_sampled_mean(self, proto):
        counts = np.zeros(proto.domain_size, dtype=np.int64)
        counts[3] = 4000
        n = 4000
        fast = [
            proto.estimate_frequencies(proto.sample_genuine_counts(counts, s), n)[3]
            for s in range(30)
        ]
        slow = []
        for s in range(20):
            items = counts_to_items(counts, s)
            slow.append(proto.aggregate(proto.perturb(items, s + 500))[3])
        assert np.mean(fast) == pytest.approx(1.0, abs=0.05)
        assert np.mean(slow) == pytest.approx(1.0, abs=0.05)


class TestCrafting:
    def test_crafted_reports_support_their_items(self, proto, rng):
        items = rng.integers(0, proto.domain_size, size=300)
        crafted = proto.craft_supporting(items, rng)
        hashes = hashing.hash_items(crafted.seeds, items.astype(np.uint64), proto.g)
        np.testing.assert_array_equal(hashes, crafted.values.astype(np.uint64))

    def test_crafted_support_counts_cover_items(self, proto, rng):
        items = np.full(200, 7, dtype=np.int64)
        crafted = proto.craft_supporting(items, rng)
        counts = proto.support_counts(crafted)
        assert counts[7] == 200  # every crafted report supports item 7
        # Other items are supported only by hash collisions (~1/g rate).
        other = np.delete(counts, 7)
        assert other.mean() == pytest.approx(200 / proto.g, rel=0.3)


class TestSeedCohorts:
    """Seed-cohort mode: shared seeds, grouped aggregation, copies."""

    def test_perturb_draws_from_cohort_pool(self, rng):
        proto = OLH(epsilon=1.0, domain_size=12, cohort=8)
        reports = proto.perturb(rng.integers(0, 12, size=5000), rng)
        assert np.unique(reports.seeds).size <= 8
        assert reports.values.min() >= 0 and reports.values.max() < proto.g

    def test_cohort_keep_rate_marginal(self, rng):
        # Marginals are unchanged: the GRR keep rate on the hashed domain
        # is the same p* as in per-user-seed mode.
        proto = OLH(epsilon=1.0, domain_size=12, cohort=16)
        n = 200_000
        reports = proto.perturb(np.full(n, 2, dtype=np.int64), rng)
        true_hashes = hashing.hash_items(reports.seeds, np.uint64(2), proto.g)
        keep_rate = float(np.mean(true_hashes == reports.values.astype(np.uint64)))
        assert keep_rate == pytest.approx(proto.p, abs=0.005)

    def test_grouped_support_counts_equal_grid_scan(self, rng):
        cohort = OLH(epsilon=1.0, domain_size=31, cohort=8)
        per_user = OLH(epsilon=1.0, domain_size=31)
        reports = cohort.perturb(rng.integers(0, 31, size=4000), rng)
        np.testing.assert_array_equal(
            cohort.support_counts(reports), per_user.support_counts(reports)
        )

    def test_grouped_target_counts_equal_grid_scan(self, rng):
        cohort = OLH(epsilon=1.0, domain_size=31, cohort=8)
        per_user = OLH(epsilon=1.0, domain_size=31)
        reports = cohort.perturb(rng.integers(0, 31, size=4000), rng)
        targets = [0, 7, 30]
        np.testing.assert_array_equal(
            cohort.target_support_counts(reports, targets),
            per_user.target_support_counts(reports, targets),
        )
        np.testing.assert_array_equal(
            cohort.reports_supporting_any(reports, targets),
            per_user.reports_supporting_any(reports, targets),
        )

    def test_grouped_path_skipped_for_fresh_seed_batches(self, rng):
        # Crafted reports have one fresh seed each; aggregating them
        # through a cohort-mode oracle must fall back to the grid scan.
        cohort = OLH(epsilon=1.0, domain_size=12, cohort=4)
        crafted = cohort.craft_supporting(rng.integers(0, 12, size=300), rng)
        assert np.unique(crafted.seeds).size == 300
        np.testing.assert_array_equal(
            cohort.support_counts(crafted),
            OLH(epsilon=1.0, domain_size=12).support_counts(crafted),
        )

    def test_with_cohort_preserves_params_and_subclass(self):
        from repro.protocols import BLH

        base = OLH(epsilon=0.7, domain_size=20, g=6)
        cohorted = base.with_cohort(32)
        assert cohorted.cohort == 32 and base.cohort is None
        assert (cohorted.epsilon, cohorted.domain_size, cohorted.g) == (0.7, 20, 6)
        assert cohorted.with_cohort(None).cohort is None
        blh = BLH(epsilon=0.5, domain_size=10).with_cohort(4)
        assert isinstance(blh, BLH) and blh.g == 2 and blh.cohort == 4

    def test_validation(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            OLH(epsilon=1.0, domain_size=12, cohort=0)
        with pytest.raises(InvalidParameterError):
            OLH(epsilon=1.0, domain_size=12).with_cohort(-3)


class TestReportOps:
    def test_concat(self, proto, rng):
        a = proto.craft_supporting(np.array([0, 1]), rng)
        b = proto.craft_supporting(np.array([2]), rng)
        combined = proto.concat_reports(a, b)
        assert proto.num_reports(combined) == 3

    def test_supporting_any(self, proto, rng):
        crafted = proto.craft_supporting(np.array([5, 9]), rng)
        mask = proto.reports_supporting_any(crafted, [5])
        assert bool(mask[0])  # first report supports 5 by construction

    def test_target_support_counts_matches_loop(self, proto, rng):
        items = rng.integers(0, proto.domain_size, size=100)
        reports = proto.perturb(items, rng)
        targets = [0, 3, 7]
        fast = proto.target_support_counts(reports, targets)
        slow = sum(
            proto.reports_supporting_any(reports, [t]).astype(int) for t in targets
        )
        np.testing.assert_array_equal(fast, slow)

    def test_target_support_counts_chunked_matches_unchunked(
        self, proto, rng, monkeypatch
    ):
        """The tiled target scan is bit-identical to the single
        (n x targets) grid it replaces, across ragged tile boundaries."""
        items = rng.integers(0, proto.domain_size, size=501)
        reports = proto.perturb(items, rng)
        targets = [1, 4, 8, 11]
        idx = np.asarray(targets, dtype=np.uint64)
        grid = hashing.hash_items(reports.seeds[:, None], idx[None, :], proto.g)
        unchunked = (
            (grid == reports.values[:, None].astype(np.uint64)).sum(axis=1)
        ).astype(np.int64)
        for cells in (1, 7, 501 * len(targets), 10**9):
            monkeypatch.setattr(hashing, "TILE_CELLS", cells)
            np.testing.assert_array_equal(
                proto.target_support_counts(reports, targets), unchunked
            )
            np.testing.assert_array_equal(
                proto.reports_supporting_any(reports, targets), unchunked > 0
            )

    def test_empty_targets_and_reports(self, proto, rng):
        reports = proto.perturb(rng.integers(0, proto.domain_size, size=5), rng)
        assert proto.target_support_counts(reports, []).shape == (5,)
        assert not proto.reports_supporting_any(reports, []).any()
        empty = OLHReports(
            seeds=np.empty(0, dtype=np.uint64), values=np.empty(0, dtype=np.int64)
        )
        assert proto.target_support_counts(empty, [1, 2]).shape == (0,)

    def test_select_reports(self, proto, rng):
        reports = proto.perturb(rng.integers(0, proto.domain_size, size=10), rng)
        kept = proto.select_reports(reports, np.arange(10) % 2 == 0)
        assert proto.num_reports(kept) == 5


def _reference_grid(oracle: OLH, reports: OLHReports, items) -> np.ndarray:
    """The explicit (reports x items) support grid every scan must equal."""
    items = np.asarray(items, dtype=np.uint64)
    grid = hashing.hash_items(reports.seeds[:, None], items[None, :], oracle.g)
    return grid == reports.values[:, None].astype(np.uint64)


def _assert_matches_reference(oracle: OLH, reports: OLHReports, targets) -> None:
    full = _reference_grid(oracle, reports, np.arange(oracle.domain_size))
    np.testing.assert_array_equal(oracle.support_counts(reports), full.sum(axis=0))
    hits = _reference_grid(oracle, reports, targets).sum(axis=1)
    np.testing.assert_array_equal(oracle.target_support_counts(reports, targets), hits)
    np.testing.assert_array_equal(oracle.reports_supporting_any(reports, targets), hits > 0)


def _forged_values(reports: OLHReports, g: int, rng) -> OLHReports:
    """Overwrite every third value with one outside ``[0, g)``, as a forged
    wire batch may carry; such reports support nothing."""
    values = reports.values.copy()
    bad = np.arange(0, values.size, 3)
    values[bad] = rng.choice([-1, -(2**40), g, g + 5, 2**62], size=bad.size)
    return OLHReports(seeds=reports.seeds, values=values)


_ORACLES = [
    pytest.param(dict(epsilon=1.0), id="g4"),
    pytest.param(dict(epsilon=0.5), id="g3"),
    pytest.param(dict(epsilon=0.5, g=2), id="g2"),
    pytest.param(dict(epsilon=0.5, cohort=5), id="cohort"),
]


class TestScanReference:
    """support_counts / target_support_counts / reports_supporting_any
    against the explicit full grid, across scan-tile boundaries."""

    # With 32,768-cell tiles, 6,001 reports x 12 items scan as two full
    # 5-item tiles and a ragged 2-item one; 70,001 reports as 32,768 +
    # 32,768 + 4,465 reports per item.
    @pytest.mark.parametrize("n", [6_001, 70_001])
    @pytest.mark.parametrize("kwargs", _ORACLES)
    def test_several_tiles_and_a_ragged_one(self, kwargs, n, rng):
        oracle = OLH(domain_size=12, **kwargs)
        reports = oracle.perturb(rng.integers(0, 12, size=n), rng)
        _assert_matches_reference(oracle, reports, [0, 3, 7, 11])

    def test_domain_larger_than_one_tile(self, rng):
        d = 40_000
        oracle = OLH(epsilon=0.5, domain_size=d)
        reports = oracle.perturb(rng.integers(0, d, size=7), rng)
        _assert_matches_reference(oracle, reports, np.arange(d))

    @pytest.mark.parametrize("kwargs", _ORACLES)
    def test_empty_batch(self, kwargs):
        oracle = OLH(domain_size=12, **kwargs)
        empty = OLHReports(
            seeds=np.empty(0, dtype=np.uint64), values=np.empty(0, dtype=np.int64)
        )
        assert oracle.support_counts(empty).tolist() == [0] * 12
        assert oracle.target_support_counts(empty, [1, 2]).shape == (0,)
        assert oracle.reports_supporting_any(empty, [1, 2]).shape == (0,)
        _assert_matches_reference(oracle, empty, [1, 2])

    @pytest.mark.parametrize("kwargs", _ORACLES)
    def test_out_of_range_values_never_match(self, kwargs, rng):
        oracle = OLH(domain_size=12, **kwargs)
        reports = oracle.perturb(rng.integers(0, 12, size=3_001), rng)
        forged = _forged_values(reports, oracle.g, rng)
        _assert_matches_reference(oracle, forged, [0, 5, 6])
        targets = np.arange(12)
        assert not oracle.target_support_counts(forged, targets)[::3].any()
        trimmed = oracle.select_reports(forged, np.arange(len(forged)) % 3 != 0)
        np.testing.assert_array_equal(
            oracle.support_counts(forged), oracle.support_counts(trimmed)
        )


class TestSmallTiles:
    """The same reference checks with ``TILE_CELLS`` shrunk, so ragged row
    and column tiles, one-cell tiles and tiles narrower than the domain
    (and than the target list) all occur at test scale."""

    @pytest.mark.parametrize("cells", [1, 5, 12, 37, 12 * 7, 100])
    @pytest.mark.parametrize("kwargs", _ORACLES)
    def test_matches_reference(self, kwargs, cells, rng, monkeypatch):
        oracle = OLH(domain_size=12, **kwargs)
        reports = oracle.perturb(rng.integers(0, 12, size=203), rng)
        forged = _forged_values(reports, oracle.g, rng)
        monkeypatch.setattr(hashing, "TILE_CELLS", cells)
        _assert_matches_reference(oracle, reports, [0, 3, 4, 7, 8, 9, 11])
        _assert_matches_reference(oracle, forged, [2, 5])


def _assert_subsets_match_reference(oracle: OLH, reports: OLHReports, masks) -> None:
    grid = _reference_grid(oracle, reports, np.arange(oracle.domain_size))
    expected = masks.astype(np.int64) @ grid.astype(np.int64)
    np.testing.assert_array_equal(oracle.subset_support_counts(reports, masks), expected)


def _subset_masks(n: int, rng) -> np.ndarray:
    """An all-false row, an all-true row and random rows over ``n`` reports."""
    rates = np.array([0.0, 1.0, 0.1, 0.5, 0.9])
    return rng.random((rates.size, n)) < rates[:, None]


class TestSubsetScan:
    """subset_support_counts against the explicit full grid: every subset
    is counted inside the same scan tiles, exactly."""

    @pytest.mark.parametrize("cells", [1, 37, 100])
    @pytest.mark.parametrize("kwargs", _ORACLES)
    def test_small_tiles_match_reference(self, kwargs, cells, rng, monkeypatch):
        oracle = OLH(domain_size=12, **kwargs)
        reports = oracle.perturb(rng.integers(0, 12, size=203), rng)
        forged = _forged_values(reports, oracle.g, rng)
        masks = _subset_masks(203, rng)
        monkeypatch.setattr(hashing, "TILE_CELLS", cells)
        _assert_subsets_match_reference(oracle, reports, masks)
        _assert_subsets_match_reference(oracle, forged, masks)

    @pytest.mark.parametrize("cells", [1, 37, 100])
    def test_forged_values_never_match(self, cells, rng, monkeypatch):
        oracle = OLH(epsilon=0.5, domain_size=12)
        seeds = hashing.draw_seeds(90, rng)
        values = np.resize(np.array([-1, oracle.g, 2**62], dtype=np.int64), 90)
        forged = OLHReports(seeds=seeds, values=values)
        monkeypatch.setattr(hashing, "TILE_CELLS", cells)
        counts = oracle.subset_support_counts(forged, _subset_masks(90, rng))
        assert counts.shape == (5, 12) and not counts.any()

    def test_a_full_tile_of_matches_counts_exactly(self, rng):
        # At n = TILE_CELLS a tile is one item by TILE_CELLS reports.  Every
        # report supports item 0, so item 0's all-true product is the
        # largest partial sum a float32 tile product ever holds.
        oracle = OLH(epsilon=0.5, domain_size=12)
        n = hashing.TILE_CELLS
        reports = oracle.craft_supporting(np.zeros(n, dtype=np.int64), rng)
        masks = _subset_masks(n, rng)
        assert oracle.subset_support_counts(reports, masks)[1, 0] == hashing.TILE_CELLS
        _assert_subsets_match_reference(oracle, reports, masks)

    def test_several_report_tiles(self, rng):
        oracle = OLH(epsilon=0.5, domain_size=12)
        reports = oracle.perturb(rng.integers(0, 12, size=70_001), rng)
        _assert_subsets_match_reference(oracle, reports, _subset_masks(70_001, rng))

    def test_support_matches_masks_need_axis_0_and_one_column_per_report(self, rng):
        seeds = hashing.draw_seeds(10, rng)
        values = rng.integers(0, 3, size=10)
        items = np.arange(4)
        for axis, masks in ((1, np.ones((2, 10), bool)), (0, np.ones((2, 9), bool))):
            with pytest.raises(ValueError, match="masks need axis=0"):
                hashing.support_matches(seeds, values, items, 3, axis=axis, masks=masks)


def _repeating_batch(g: int, distinct: int, repeats: int, rng) -> OLHReports:
    """``distinct`` reports with fresh seeds, then ``repeats`` reports that
    share three seeds, with in-range values throughout."""
    shared = hashing.draw_seeds(3, rng)
    seeds = np.concatenate(
        [hashing.draw_seeds(distinct, rng), shared[rng.integers(0, 3, size=repeats)]]
    )
    return OLHReports(seeds=seeds, values=rng.integers(0, g, size=seeds.size))


def _forged_extremes(reports: OLHReports, g: int) -> OLHReports:
    """Overwrite every third value with -1, ``g`` or ``2**62`` in turn."""
    values = reports.values.copy()
    bad = np.arange(0, values.size, 3)
    values[bad] = np.resize(np.array([-1, g, 2**62], dtype=np.int64), bad.size)
    return OLHReports(seeds=reports.seeds, values=values)


def _assert_every_scan_matches_reference(oracle: OLH, reports: OLHReports, rng) -> None:
    _assert_matches_reference(oracle, reports, [0, 4, 9, 10, 39])
    _assert_subsets_match_reference(oracle, reports, _subset_masks(len(reports), rng))


_PER_USER = [
    pytest.param(dict(epsilon=0.5), id="olh"),
    pytest.param(dict(epsilon=0.5, g=2), id="blh"),
]


def _per_user_oracle(kwargs) -> OLH:
    from repro.protocols import BLH

    if kwargs.get("g") == 2:
        return BLH(epsilon=kwargs["epsilon"], domain_size=40)
    return OLH(domain_size=40, **kwargs)


class TestRepeatedSeedBatches:
    """Per-user OLH and BLH oracles counting batches whose seeds repeat
    (MGA's crafted reports reuse a few winning keys) or repeat only late,
    against the explicit full grid: whichever counting path a batch
    takes, every scan is exact."""

    @pytest.mark.parametrize("m", [1, 2, 7, 600, 5_000])
    @pytest.mark.parametrize("kwargs", _PER_USER)
    def test_mga_crafted_batches(self, kwargs, m, rng):
        from repro.attacks import MGAAttack

        oracle = _per_user_oracle(kwargs)
        crafted = MGAAttack(domain_size=40, r=6, rng=rng).craft(oracle, m, rng)
        if m >= 600:  # a handful of winning keys, each reused many times
            assert 2 * np.unique(crafted.seeds).size <= m
        _assert_every_scan_matches_reference(oracle, crafted, rng)

    @pytest.mark.parametrize("distinct", [1_022, 1_023, 1_024, 1_025, 2_000])
    @pytest.mark.parametrize("kwargs", _PER_USER)
    def test_first_repeat_late_in_the_batch(self, kwargs, distinct, rng):
        oracle = _per_user_oracle(kwargs)
        reports = _repeating_batch(oracle.g, distinct, 6_000, rng)
        _assert_every_scan_matches_reference(oracle, reports, rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 500, 1_023])
    @pytest.mark.parametrize("kwargs", _PER_USER)
    def test_short_batches(self, kwargs, n, rng):
        oracle = _per_user_oracle(kwargs)
        repeated = _repeating_batch(oracle.g, 0, n, rng)
        fresh = _repeating_batch(oracle.g, n, 0, rng)
        _assert_every_scan_matches_reference(oracle, repeated, rng)
        _assert_every_scan_matches_reference(oracle, fresh, rng)

    @pytest.mark.parametrize("kwargs", _PER_USER)
    def test_empty_batch(self, kwargs, rng):
        oracle = _per_user_oracle(kwargs)
        empty = _repeating_batch(oracle.g, 0, 0, rng)
        assert oracle.support_counts(empty).tolist() == [0] * 40
        _assert_every_scan_matches_reference(oracle, empty, rng)

    @pytest.mark.parametrize("kwargs", _PER_USER)
    def test_forged_values_never_match(self, kwargs, rng):
        from repro.attacks import MGAAttack

        oracle = _per_user_oracle(kwargs)
        crafted = MGAAttack(domain_size=40, r=6, rng=rng).craft(oracle, 3_000, rng)
        for reports in (crafted, _repeating_batch(oracle.g, 100, 3_000, rng)):
            forged = _forged_extremes(reports, oracle.g)
            _assert_every_scan_matches_reference(oracle, forged, rng)
            assert not oracle.target_support_counts(forged, np.arange(40))[::3].any()
            kept = oracle.select_reports(forged, np.arange(len(forged)) % 3 != 0)
            np.testing.assert_array_equal(
                oracle.support_counts(forged), oracle.support_counts(kept)
            )

    @pytest.mark.parametrize("kwargs", _PER_USER)
    def test_mga_batches_skip_the_grid_scan(self, kwargs, rng, monkeypatch):
        from repro.attacks import MGAAttack

        oracle = _per_user_oracle(kwargs)
        crafted = MGAAttack(domain_size=40, r=6, rng=rng).craft(oracle, 5_000, rng)
        masks = rng.random((3, 5_000)) < np.array([[0.1], [0.5], [1.0]])
        targets = [0, 4, 9]
        expected = [
            _reference_grid(oracle, crafted, np.arange(40)).sum(axis=0),
            masks.astype(np.int64) @ _reference_grid(oracle, crafted, np.arange(40)),
            _reference_grid(oracle, crafted, targets).sum(axis=1),
        ]

        def no_scan(*args, **kwargs):
            raise AssertionError("an MGA batch reached the per-report grid scan")

        monkeypatch.setattr(hashing, "support_matches", no_scan)
        np.testing.assert_array_equal(oracle.support_counts(crafted), expected[0])
        np.testing.assert_array_equal(
            oracle.subset_support_counts(crafted, masks), expected[1]
        )
        np.testing.assert_array_equal(
            oracle.target_support_counts(crafted, targets), expected[2]
        )
        np.testing.assert_array_equal(
            oracle.reports_supporting_any(crafted, targets), expected[2] > 0
        )
