"""Tests for the k-means defense and LDPRecover-KM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import InputPoisoningAttack, MGAAttack
from repro.core.kmeans import KMeansDefense, kmeans, recover_with_kmeans
from repro.core.projection import is_probability_vector
from repro.core.recover import DEFAULT_ETA, recover_frequencies
from repro.datasets import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.protocols import GRR, OLH, OUE, hashing
from repro.sim import mse, run_trial

D = 16
DATASET = zipf_dataset(domain_size=D, num_users=15_000, exponent=1.0, rng=4)


class TestKMeans:
    def test_two_well_separated_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, size=(30, 3))
        b = rng.normal(5.0, 0.1, size=(30, 3))
        points = np.vstack([a, b])
        labels, centroids = kmeans(points, k=2, rng=1)
        # Members of the same ground-truth cluster share a label.
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]

    def test_centroid_positions(self):
        points = np.array([[0.0], [0.2], [10.0], [10.2]])
        labels, centroids = kmeans(points, k=2, rng=0)
        assert sorted(np.round(centroids.ravel(), 1)) == [0.1, 10.1]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 4))
        l1, c1 = kmeans(points, k=2, rng=9)
        l2, c2 = kmeans(points, k=2, rng=9)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_allclose(c1, c2)

    def test_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            kmeans(np.zeros((1, 2)), k=2)

    def test_identical_points(self):
        points = np.ones((10, 2))
        labels, centroids = kmeans(points, k=2, rng=0)
        assert labels.shape == (10,)


class TestKMeansDefense:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            KMeansDefense(sample_rate=0.0)
        with pytest.raises(InvalidParameterError):
            KMeansDefense(sample_rate=1.5)
        with pytest.raises(InvalidParameterError):
            KMeansDefense(num_subsets=1)

    def test_run_produces_probabilityish_output(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = InputPoisoningAttack(MGAAttack(domain_size=D, r=3, rng=0))
        trial = run_trial(DATASET, proto, attack, beta=0.05, mode="sampled", rng=1)
        defense = KMeansDefense(sample_rate=0.3, num_subsets=8)
        result = defense.run(proto, trial.reports, rng=2)
        assert result.frequencies.shape == (D,)
        assert result.labels.shape == (8,)
        assert result.genuine_cluster in (0, 1)
        assert result.eta_estimate >= 0

    def test_genuine_cluster_is_majority(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = InputPoisoningAttack(MGAAttack(domain_size=D, r=3, rng=0))
        trial = run_trial(DATASET, proto, attack, beta=0.05, mode="sampled", rng=1)
        defense = KMeansDefense(sample_rate=0.2, num_subsets=10)
        result = defense.run(proto, trial.reports, rng=3)
        counts = np.bincount(result.labels, minlength=2)
        assert counts[result.genuine_cluster] == counts.max()


class TestRecoverWithKMeans:
    def test_returns_probability_vector(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = InputPoisoningAttack(MGAAttack(domain_size=D, r=3, rng=0))
        trial = run_trial(DATASET, proto, attack, beta=0.05, mode="sampled", rng=1)
        recovery, km = recover_with_kmeans(proto, trial.reports, rng=2)
        assert is_probability_vector(recovery.frequencies, atol=1e-8)

    def test_improves_over_poisoned_under_ipa(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = InputPoisoningAttack(MGAAttack(domain_size=D, r=3, rng=0))
        before, after = [], []
        for seed in range(4):
            trial = run_trial(DATASET, proto, attack, beta=0.1, mode="sampled", rng=seed)
            recovery, _ = recover_with_kmeans(proto, trial.reports, rng=seed)
            before.append(mse(trial.true_frequencies, trial.poisoned_frequencies))
            after.append(mse(trial.true_frequencies, recovery.frequencies))
        assert np.mean(after) < np.mean(before)

    def test_eta_override(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = InputPoisoningAttack(MGAAttack(domain_size=D, r=3, rng=0))
        trial = run_trial(DATASET, proto, attack, beta=0.05, mode="sampled", rng=1)
        recovery, _ = recover_with_kmeans(proto, trial.reports, eta=0.07, rng=2)
        assert recovery.eta == pytest.approx(0.07)

    def test_external_scenario_recorded(self):
        proto = GRR(epsilon=0.5, domain_size=D)
        attack = InputPoisoningAttack(MGAAttack(domain_size=D, r=3, rng=0))
        trial = run_trial(DATASET, proto, attack, beta=0.05, mode="sampled", rng=1)
        recovery, km = recover_with_kmeans(proto, trial.reports, rng=2)
        if km.malicious_frequencies is not None:
            assert recovery.scenario == "external"


def _per_subset_reference(defense, protocol, reports, gen):
    """The k-means defense aggregated subset by subset, kept as a pin.

    Every subset and the genuine-cluster union are re-aggregated through
    ``select_reports`` + ``aggregate``, and the union is built from the
    drawn index arrays.  Any faster counting must reproduce this output
    byte for byte.
    """
    n = protocol.num_reports(reports)
    subset_size = max(1, int(round(defense.sample_rate * n)))
    vectors = np.empty((defense.num_subsets, protocol.domain_size), dtype=np.float64)
    subset_indices = []
    for s in range(defense.num_subsets):
        idx = gen.choice(n, size=subset_size, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        vectors[s] = protocol.aggregate(protocol.select_reports(reports, mask))
        subset_indices.append(idx)
    labels, _ = kmeans(vectors, k=2, rng=gen)
    sizes = np.bincount(labels, minlength=2)
    genuine_cluster = int(sizes.argmax())
    malicious_cluster = 1 - genuine_cluster
    union = np.zeros(n, dtype=bool)
    for s in np.flatnonzero(labels == genuine_cluster):
        union[subset_indices[s]] = True
    frequencies = protocol.aggregate(protocol.select_reports(reports, union))
    malicious_vectors = vectors[labels == malicious_cluster]
    malicious = malicious_vectors.mean(axis=0) if malicious_vectors.shape[0] else None
    eta = sizes[malicious_cluster] / sizes[genuine_cluster] if sizes[genuine_cluster] else 0.0
    return {
        "frequencies": frequencies,
        "malicious_frequencies": malicious,
        "labels": labels,
        "genuine_cluster": genuine_cluster,
        "eta_estimate": float(eta),
    }


def _reference_recover(defense, protocol, reports, rng):
    """LDPRecover-KM over :func:`_per_subset_reference` and a full aggregate."""
    gen = np.random.default_rng(rng)
    result = _per_subset_reference(defense, protocol, reports, gen)
    poisoned = protocol.aggregate(reports)
    if result["malicious_frequencies"] is None:
        return recover_frequencies(poisoned, protocol, eta=0.0), result
    recovery = recover_frequencies(
        poisoned,
        protocol,
        eta=min(result["eta_estimate"], DEFAULT_ETA),
        malicious_estimate=result["malicious_frequencies"],
    )
    return recovery, result


def _assert_bytes_equal(actual, expected):
    if expected is None:
        assert actual is None
        return
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


_PIN_PROTOCOLS = [
    pytest.param(lambda: GRR(epsilon=0.5, domain_size=D), id="grr"),
    pytest.param(lambda: OUE(epsilon=0.5, domain_size=D), id="oue"),
    pytest.param(lambda: OLH(epsilon=0.5, domain_size=D), id="olh"),
    pytest.param(lambda: OLH(epsilon=0.5, domain_size=D, cohort=8), id="olh-cohort8"),
]
_PIN_DATASET = zipf_dataset(domain_size=D, num_users=2_500, exponent=1.0, rng=6)


class TestMatchesPerSubsetReference:
    """``KMeansDefense.run`` and ``recover_with_kmeans`` equal the
    per-subset re-aggregation byte for byte.  At ``sample_rate=1.0`` every
    subset is the whole batch, so nothing is excluded from the union."""

    def _check(self, protocol, reports, defense, seed):
        recovery, result = recover_with_kmeans(
            protocol, reports, defense=defense, rng=np.random.default_rng(seed)
        )
        ref_recovery, ref = _reference_recover(defense, protocol, reports, seed)
        direct = defense.run(protocol, reports, rng=np.random.default_rng(seed))
        for got in (result, direct):
            for name, expected in ref.items():
                _assert_bytes_equal(getattr(got, name), expected)
        _assert_bytes_equal(recovery.frequencies, ref_recovery.frequencies)
        assert recovery.eta == ref_recovery.eta
        assert recovery.scenario == ref_recovery.scenario

    @pytest.mark.parametrize("sample_rate", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("make_protocol", _PIN_PROTOCOLS)
    def test_equals_reference(self, make_protocol, sample_rate):
        protocol = make_protocol()
        attack = InputPoisoningAttack(MGAAttack(domain_size=D, r=3, rng=0))
        trial = run_trial(_PIN_DATASET, protocol, attack, beta=0.1, mode="sampled", rng=3)
        defense = KMeansDefense(sample_rate=sample_rate, num_subsets=9)
        self._check(protocol, trial.reports, defense, seed=4)

    def test_output_poisoned_olh_across_report_tiles(self, monkeypatch):
        protocol = OLH(epsilon=0.5, domain_size=D)
        attack = MGAAttack(domain_size=D, r=3, rng=0)
        trial = run_trial(_PIN_DATASET, protocol, attack, beta=0.1, mode="sampled", rng=5)
        # 100-cell tiles: a 100-report column per item, so every subset
        # and the excluded side span dozens of report tiles.
        monkeypatch.setattr(hashing, "TILE_CELLS", 100)
        defense = KMeansDefense(sample_rate=0.3, num_subsets=6)
        self._check(protocol, trial.reports, defense, seed=6)
