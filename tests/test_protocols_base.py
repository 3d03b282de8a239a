"""Tests for the protocol base class: parameters, estimator, validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, ProtocolError
from repro.protocols import (
    GRR,
    OLH,
    OUE,
    ProtocolParams,
    available_protocols,
    counts_to_items,
    make_protocol,
)
from repro.protocols.base import (
    FrequencyOracle,
    validate_domain_size,
    validate_epsilon,
)


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_epsilon(self, bad):
        with pytest.raises(InvalidParameterError):
            validate_epsilon(bad)

    def test_good_epsilon(self):
        assert validate_epsilon(0.5) == 0.5

    @pytest.mark.parametrize("bad", [0, 1, -3])
    def test_bad_domain_size(self, bad):
        with pytest.raises(InvalidParameterError):
            validate_domain_size(bad)

    def test_good_domain_size(self):
        assert validate_domain_size(2) == 2


class TestProtocolParams:
    def test_d_alias(self):
        params = ProtocolParams(name="x", epsilon=0.5, domain_size=10, p=0.6, q=0.1)
        assert params.d == 10

    def test_expected_malicious_sum_formula(self):
        params = ProtocolParams(name="x", epsilon=0.5, domain_size=10, p=0.6, q=0.1)
        expected = (1 - 0.1 * 10) / (0.6 - 0.1)
        assert params.expected_malicious_sum() == pytest.approx(expected)

    def test_grr_sum_is_one_like(self):
        # GRR: support sum per report is exactly 1, so the learned constant
        # equals (1 - qd)/(p - q); numerically this is 1 + q/(p-q)*(stuff)
        # and stays close to 1 because p + (d-1)q = 1 for GRR.
        grr = GRR(epsilon=0.5, domain_size=102)
        # p + (d-1)q = 1 identity for GRR makes the constant exactly 1.
        assert grr.p + (grr.domain_size - 1) * grr.q == pytest.approx(1.0)
        assert grr.expected_malicious_sum() == pytest.approx(1.0)

    def test_oue_sum_is_negative(self):
        # OUE's q is large, so the learned sum is strongly negative — a
        # documented property the projection absorbs.
        oue = OUE(epsilon=0.5, domain_size=102)
        assert oue.expected_malicious_sum() < -100

    def test_params_roundtrip(self):
        olh = OLH(epsilon=0.5, domain_size=20)
        params = olh.params
        assert params.name == "olh"
        assert params.p == olh.p
        assert params.q == olh.q
        assert params.domain_size == 20


class TestEstimateCounts:
    def test_unbiased_debias_identity(self, grr):
        # Feeding expected support counts back recovers the true counts.
        n = 1000
        true_counts = np.zeros(grr.domain_size)
        true_counts[3] = n
        expected_support = true_counts * grr.p + (n - true_counts) * grr.q
        estimated = grr.estimate_counts(expected_support, n)
        np.testing.assert_allclose(estimated, true_counts, atol=1e-9)

    def test_frequencies_scale(self, grr):
        n = 500
        support = np.full(grr.domain_size, n * grr.q)
        freqs = grr.estimate_frequencies(support, n)
        np.testing.assert_allclose(freqs, 0.0, atol=1e-12)

    def test_wrong_shape_raises(self, grr):
        with pytest.raises(ProtocolError):
            grr.estimate_counts(np.zeros(grr.domain_size + 1), 10)

    def test_nonpositive_n_raises(self, grr):
        with pytest.raises(ProtocolError):
            grr.estimate_counts(np.zeros(grr.domain_size), 0)


class TestProbabilities:
    def test_grr_probabilities(self):
        eps, d = 0.7, 12
        grr = GRR(epsilon=eps, domain_size=d)
        e = math.exp(eps)
        assert grr.p == pytest.approx(e / (d - 1 + e))
        assert grr.q == pytest.approx(1 / (d - 1 + e))
        assert grr.p / grr.q == pytest.approx(e)

    def test_oue_probabilities(self):
        eps = 0.7
        oue = OUE(epsilon=eps, domain_size=12)
        assert oue.p == 0.5
        assert oue.q == pytest.approx(1 / (math.exp(eps) + 1))

    def test_olh_probabilities_and_g(self):
        eps = 0.5
        olh = OLH(epsilon=eps, domain_size=12)
        e = math.exp(eps)
        assert olh.g == math.ceil(e + 1)
        assert olh.p == pytest.approx(e / (e + olh.g - 1))
        assert olh.q == pytest.approx(1 / olh.g)

    def test_olh_custom_g(self):
        olh = OLH(epsilon=0.5, domain_size=12, g=8)
        assert olh.g == 8
        assert olh.q == pytest.approx(1 / 8)

    def test_olh_invalid_g(self):
        with pytest.raises(InvalidParameterError):
            OLH(epsilon=0.5, domain_size=12, g=1)

    def test_p_greater_than_q_everywhere(self, protocol):
        assert protocol.p > protocol.q


class TestCountsToItems:
    def test_expansion(self):
        counts = np.array([2, 0, 3])
        items = counts_to_items(counts, shuffle=False)
        np.testing.assert_array_equal(items, [0, 0, 2, 2, 2])

    def test_shuffle_preserves_histogram(self):
        counts = np.array([5, 1, 4, 0, 7])
        items = counts_to_items(counts, rng=3)
        np.testing.assert_array_equal(np.bincount(items, minlength=5), counts)

    def test_deterministic_with_seed(self):
        counts = np.array([3, 3, 3])
        a = counts_to_items(counts, rng=1)
        b = counts_to_items(counts, rng=1)
        np.testing.assert_array_equal(a, b)


class TestAbstractPrimitives:
    def test_slicing_and_target_counting_have_no_base_default(self):
        """Every protocol slices batches and counts target support with its
        own vector code, so the base class offers no fallback for either."""
        assert {"slice_reports", "target_support_counts"} <= FrequencyOracle.__abstractmethods__


class TestItemValidation:
    def test_out_of_range_item(self, grr):
        with pytest.raises(ProtocolError):
            grr.perturb(np.array([grr.domain_size]))

    def test_negative_item(self, grr):
        with pytest.raises(ProtocolError):
            grr.perturb(np.array([-1]))

    def test_2d_items(self, grr):
        with pytest.raises(ProtocolError):
            grr.perturb(np.zeros((2, 2), dtype=int))

    def test_empty_items_ok(self, protocol):
        reports = protocol.perturb(np.empty(0, dtype=np.int64))
        assert protocol.num_reports(reports) == 0

    def test_true_counts_wrong_shape(self, protocol):
        with pytest.raises(ProtocolError):
            protocol.sample_genuine_counts(np.zeros(protocol.domain_size + 2, dtype=int))

    def test_true_counts_negative(self, protocol):
        counts = np.zeros(protocol.domain_size, dtype=int)
        counts[0] = -1
        with pytest.raises(ProtocolError):
            protocol.sample_genuine_counts(counts)


_SUBSET_ORACLES = [pytest.param(name, {}, id=name) for name in available_protocols()] + [
    pytest.param("olh", {"cohort": 8}, id="olh-cohort8")
]


class TestSubsetSupportCounts:
    """Row ``i`` equals ``support_counts(select_reports(reports, masks[i]))``
    for every registered protocol, including the cohort OLH grouped path."""

    @pytest.mark.parametrize("name,kwargs", _SUBSET_ORACLES)
    def test_equals_stacked_support_counts(self, name, kwargs, rng):
        protocol = make_protocol(name, 0.5, 12, **kwargs)
        reports = protocol.perturb(rng.integers(0, 12, size=1_001), rng)
        # Rows: all false, all true, then random rows of several densities.
        rates = np.array([0.0, 1.0, 0.05, 0.5, 0.95, 0.5])
        masks = rng.random((rates.size, 1_001)) < rates[:, None]
        got = protocol.subset_support_counts(reports, masks)
        expected = np.stack(
            [protocol.support_counts(protocol.select_reports(reports, row)) for row in masks]
        )
        assert got.dtype == np.int64 and got.shape == (rates.size, 12)
        np.testing.assert_array_equal(got, expected)
        assert not got[0].any()
        np.testing.assert_array_equal(got[1], protocol.support_counts(reports))

    @pytest.mark.parametrize("name,kwargs", _SUBSET_ORACLES)
    def test_no_masks_and_no_reports(self, name, kwargs, rng):
        protocol = make_protocol(name, 0.5, 12, **kwargs)
        reports = protocol.perturb(rng.integers(0, 12, size=50), rng)
        none = protocol.subset_support_counts(reports, np.zeros((0, 50), dtype=bool))
        assert none.shape == (0, 12) and none.dtype == np.int64
        empty = protocol.select_reports(reports, np.zeros(50, dtype=bool))
        counts = protocol.subset_support_counts(empty, np.zeros((3, 0), dtype=bool))
        assert counts.shape == (3, 12) and not counts.any()

    @pytest.mark.parametrize("name,kwargs", _SUBSET_ORACLES)
    def test_rejects_misshapen_masks(self, name, kwargs, rng):
        protocol = make_protocol(name, 0.5, 12, **kwargs)
        reports = protocol.perturb(rng.integers(0, 12, size=50), rng)
        for shape in [(50,), (2, 49), (2, 51), (1, 2, 50)]:
            with pytest.raises(ProtocolError, match="masks must have shape"):
                protocol.subset_support_counts(reports, np.ones(shape, dtype=bool))
