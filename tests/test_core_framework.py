"""Tests for the analytical framework (Lemmas 1-2, Theorem 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import genuine_frequency_estimate
from repro.core.framework import (
    genuine_frequency_law,
    malicious_frequency_law,
    mixture_frequency,
    per_report_estimate_moments,
    poisoned_frequency_law,
    support_probability,
)
from repro.exceptions import InvalidParameterError
from repro.protocols import GRR


@pytest.fixture()
def params():
    return GRR(epsilon=0.5, domain_size=16).params


class TestMixture:
    def test_eq14_weights(self):
        genuine = np.array([0.5, 0.5])
        malicious = np.array([1.0, 0.0])
        mixed = mixture_frequency(genuine, malicious, n=900, m=100)
        np.testing.assert_allclose(mixed, [0.55, 0.45])

    def test_zero_malicious(self):
        genuine = np.array([0.3, 0.7])
        np.testing.assert_allclose(
            mixture_frequency(genuine, np.zeros(2), n=10, m=0), genuine
        )

    def test_invalid_populations(self):
        with pytest.raises(InvalidParameterError):
            mixture_frequency(np.zeros(2), np.zeros(2), n=0, m=1)

    def test_decompose_inverts_mixture(self):
        genuine = np.array([0.2, 0.8])
        malicious = np.array([0.9, 0.1])
        n, m = 1000, 200
        mixed = mixture_frequency(genuine, malicious, n, m)
        recovered = genuine_frequency_estimate(mixed, malicious, eta=m / n)
        np.testing.assert_allclose(recovered, genuine, atol=1e-12)


class TestSupportProbability:
    def test_extremes(self, params):
        assert support_probability(1.0, params.p, params.q) == pytest.approx(params.p)
        assert support_probability(0.0, params.p, params.q) == pytest.approx(params.q)

    def test_linear_in_frequency(self, params):
        lo = support_probability(0.2, params.p, params.q)
        hi = support_probability(0.8, params.p, params.q)
        mid = support_probability(0.5, params.p, params.q)
        assert mid == pytest.approx((lo + hi) / 2)


class TestPerReportMoments:
    def test_two_point_law(self, params):
        law = per_report_estimate_moments(params.q, params.p, params.q)
        # With s = q the mean is exactly 0 (true frequency 0).
        assert law.mean == pytest.approx(0.0, abs=1e-12)
        assert law.variance > 0

    def test_invalid_support_prob(self, params):
        with pytest.raises(InvalidParameterError):
            per_report_estimate_moments(1.5, params.p, params.q)

    def test_degenerate_protocol(self):
        with pytest.raises(InvalidParameterError):
            per_report_estimate_moments(0.5, 0.3, 0.3)


class TestGenuineLaw:
    def test_lemma2_mean(self, params):
        law = genuine_frequency_law(0.25, params, n=1000)
        assert law.mean == pytest.approx(0.25)

    def test_lemma2_variance_formula(self, params):
        f, n = 0.25, 1000
        law = genuine_frequency_law(f, params, n)
        p, q = params.p, params.q
        expected = q * (1 - q) / (n * (p - q) ** 2) + f * (1 - p - q) / (n * (p - q))
        assert law.variance == pytest.approx(expected)

    def test_variance_shrinks_with_n(self, params):
        v1 = genuine_frequency_law(0.1, params, n=100).variance
        v2 = genuine_frequency_law(0.1, params, n=10_000).variance
        assert v2 == pytest.approx(v1 / 100)

    def test_empirical_match(self):
        # Monte-Carlo check: empirical frequency estimates follow Lemma 2.
        proto = GRR(epsilon=1.0, domain_size=8)
        f, n = 0.5, 4000
        counts = np.zeros(8, dtype=np.int64)
        counts[0] = int(f * n)
        counts[1] = n - counts[0]
        estimates = [
            proto.estimate_frequencies(proto.sample_genuine_counts(counts, s), n)[0]
            for s in range(400)
        ]
        law = genuine_frequency_law(f, proto.params, n)
        assert np.mean(estimates) == pytest.approx(law.mean, abs=4 * law.std / 20)
        assert np.var(estimates) == pytest.approx(law.variance, rel=0.3)

    def test_invalid_n(self, params):
        with pytest.raises(InvalidParameterError):
            genuine_frequency_law(0.1, params, n=0)


class TestMaliciousLaw:
    def test_lemma1_mean(self, params):
        # A crafted report supporting v with probability P(v) = 0.3.
        law = malicious_frequency_law(0.3, params, m=500)
        expected_mean = (0.3 - params.q) / (params.p - params.q)
        assert law.mean == pytest.approx(expected_mean)

    def test_variance_scales_inverse_m(self, params):
        v1 = malicious_frequency_law(0.3, params, m=100).variance
        v2 = malicious_frequency_law(0.3, params, m=400).variance
        assert v2 == pytest.approx(v1 / 4)

    def test_empirical_match(self):
        proto = GRR(epsilon=0.5, domain_size=16)
        m = 2000
        probs = np.zeros(16)
        probs[3] = 0.6
        probs[4] = 0.4
        rng = np.random.default_rng(0)
        estimates = []
        for _ in range(300):
            items = rng.choice(16, size=m, p=probs)
            crafted = proto.craft_supporting(items)
            estimates.append(proto.aggregate(crafted)[3])
        law = malicious_frequency_law(0.6, proto.params, m)
        assert np.mean(estimates) == pytest.approx(law.mean, abs=0.02)
        assert np.var(estimates) == pytest.approx(law.variance, rel=0.3)

    def test_invalid_m(self, params):
        with pytest.raises(InvalidParameterError):
            malicious_frequency_law(0.3, params, m=0)


class TestPoisonedLaw:
    def test_theorem1_composition(self, params):
        genuine = genuine_frequency_law(0.2, params, n=1000)
        malicious = malicious_frequency_law(0.5, params, m=100)
        eta = 0.1
        law = poisoned_frequency_law(genuine, malicious, eta)
        scale = 1 + eta
        assert law.mean == pytest.approx(genuine.mean / scale + eta * malicious.mean / scale)
        assert law.variance == pytest.approx(
            genuine.variance / scale**2 + eta**2 * malicious.variance / scale**2
        )

    def test_eta_zero_is_genuine(self, params):
        genuine = genuine_frequency_law(0.2, params, n=1000)
        malicious = malicious_frequency_law(0.5, params, m=100)
        law = poisoned_frequency_law(genuine, malicious, eta=0.0)
        assert law.mean == pytest.approx(genuine.mean)
        assert law.variance == pytest.approx(genuine.variance)

    def test_negative_eta_rejected(self, params):
        genuine = genuine_frequency_law(0.2, params, n=1000)
        malicious = malicious_frequency_law(0.5, params, m=100)
        with pytest.raises(InvalidParameterError):
            poisoned_frequency_law(genuine, malicious, eta=-0.1)
