"""k-means subset defense and LDPRecover-KM (paper Section VII-B).

Against *input* poisoning attacks (IPA) the learned-sum trick of Eq. 21 is
unavailable — malicious data pass through the perturbation, so their
aggregated statistics match genuine data.  The k-means defense of Li et
al./Du et al., as summarized by the paper, samples multiple report subsets,
estimates a frequency vector per subset, clusters the vectors into two
groups, and treats the larger cluster as genuine:

* **plain k-means defense** — aggregate only the genuine-cluster reports;
* **LDPRecover-KM** — additionally learn malicious statistics from the
  *other* cluster (its mean frequency vector and relative size) and feed
  them into LDPRecover through the recovery-paradigm hook, recovering a
  full frequency vector instead of merely discarding reports.

The k-means itself is implemented here on numpy (k-means++ seeding, Lloyd
iterations) — no external ML dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._rng import RngLike, as_generator
from repro.core.recover import DEFAULT_ETA, RecoveryResult, recover_frequencies
from repro.exceptions import InvalidParameterError, RecoveryError
from repro.protocols.base import FrequencyOracle


def kmeans(
    points: np.ndarray,
    k: int = 2,
    iterations: int = 50,
    rng: RngLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ seeding.

    Returns ``(labels, centroids)``.  Deterministic given ``rng``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < k:
        raise InvalidParameterError(
            f"need at least k={k} points in a 2-D array, got shape {pts.shape}"
        )
    gen = as_generator(rng)
    centroids = _kmeanspp_init(pts, k, gen)
    labels = np.zeros(pts.shape[0], dtype=np.int64)
    for _ in range(iterations):
        distances = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0]:
                centroids[j] = members.mean(axis=0)
    return labels, centroids


def _kmeanspp_init(pts: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = pts.shape[0]
    centroids = np.empty((k, pts.shape[1]), dtype=np.float64)
    centroids[0] = pts[gen.integers(0, n)]
    closest = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j:] = pts[gen.integers(0, n, size=k - j)]
            break
        probs = closest / total
        centroids[j] = pts[gen.choice(n, p=probs)]
        closest = np.minimum(closest, ((pts - centroids[j]) ** 2).sum(axis=1))
    return centroids


@dataclass(frozen=True)
class KMeansDefenseResult:
    """Outcome of the subset-clustering defense."""

    #: Frequencies aggregated from the genuine cluster only (plain defense).
    frequencies: np.ndarray
    #: Mean frequency vector of the malicious cluster (None if one cluster
    #: is empty), normalized for use as an f_Y estimate.
    malicious_frequencies: np.ndarray | None
    #: Subset labels (0/1) and which label was called genuine.
    labels: np.ndarray
    genuine_cluster: int
    #: Estimated malicious/genuine user ratio from cluster sizes.
    eta_estimate: float
    #: int64 support counts of the whole report batch, counted in the
    #: same pass as the subsets; LDPRecover-KM estimates the poisoned
    #: frequencies from them instead of re-aggregating the batch.
    support_counts: np.ndarray


class KMeansDefense:
    """Subset sampling + 2-means clustering over subset frequency vectors.

    Parameters
    ----------
    sample_rate:
        xi in the paper's Figure 9: the fraction of reports drawn into
        each subset.
    num_subsets:
        How many subsets to draw (default 20).
    """

    def __init__(self, sample_rate: float = 0.1, num_subsets: int = 20) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise InvalidParameterError(f"sample_rate must be in (0, 1], got {sample_rate}")
        if num_subsets < 2:
            raise InvalidParameterError(f"num_subsets must be >= 2, got {num_subsets}")
        self.sample_rate = float(sample_rate)
        self.num_subsets = int(num_subsets)

    def run(
        self,
        protocol: FrequencyOracle,
        reports: Any,
        rng: RngLike = None,
    ) -> KMeansDefenseResult:
        """Cluster subset frequency vectors and split genuine/malicious.

        All subsets and the whole batch are counted in one
        :meth:`~repro.protocols.base.FrequencyOracle.subset_support_counts`
        pass; the genuine cluster's counts are the batch's minus those of
        the reports its subsets never drew, so only that side is rescanned.
        """
        gen = as_generator(rng)
        n = protocol.num_reports(reports)
        subset_size = max(1, int(round(self.sample_rate * n)))
        masks = np.zeros((self.num_subsets + 1, n), dtype=bool)
        masks[-1] = True
        for s in range(self.num_subsets):
            masks[s, gen.choice(n, size=subset_size, replace=False)] = True
        subset_counts = protocol.subset_support_counts(reports, masks)
        full_counts = subset_counts[-1]
        vectors = np.array(
            [protocol.estimate_frequencies(c, subset_size) for c in subset_counts[:-1]]
        )
        labels, _ = kmeans(vectors, k=2, rng=gen)
        counts = np.bincount(labels, minlength=2)
        genuine_cluster = int(counts.argmax())
        malicious_cluster = 1 - genuine_cluster
        genuine_mask = masks[:-1][labels == genuine_cluster].any(axis=0)
        if not genuine_mask.any():
            raise RecoveryError("k-means defense produced an empty genuine cluster")
        excluded = protocol.support_counts(protocol.select_reports(reports, ~genuine_mask))
        frequencies = protocol.estimate_frequencies(
            full_counts - excluded, int(genuine_mask.sum())
        )
        malicious_vectors = vectors[labels == malicious_cluster]
        if malicious_vectors.shape[0]:
            malicious_freq = malicious_vectors.mean(axis=0)
        else:
            malicious_freq = None
        eta_estimate = (
            counts[malicious_cluster] / counts[genuine_cluster]
            if counts[genuine_cluster]
            else 0.0
        )
        return KMeansDefenseResult(
            frequencies=frequencies,
            malicious_frequencies=malicious_freq,
            labels=labels,
            genuine_cluster=genuine_cluster,
            eta_estimate=float(eta_estimate),
            support_counts=full_counts,
        )


def recover_with_kmeans(
    protocol: FrequencyOracle,
    reports: Any,
    defense: KMeansDefense | None = None,
    eta: float | None = None,
    rng: RngLike = None,
) -> tuple[RecoveryResult, KMeansDefenseResult]:
    """LDPRecover-KM: k-means statistics as LDPRecover constraints.

    Runs the subset defense, uses the malicious-cluster mean as the
    ``f_Y`` estimate and the cluster-size ratio as ``eta`` (unless
    overridden), and recovers from the *full* poisoned aggregate.
    """
    defense = defense or KMeansDefense()
    gen = as_generator(rng)
    result = defense.run(protocol, reports, gen)
    poisoned = protocol.estimate_frequencies(
        result.support_counts, protocol.num_reports(reports)
    )
    if result.malicious_frequencies is None:
        # Clustering found no malicious cluster: fall back to plain
        # non-knowledge LDPRecover on the poisoned aggregate.
        recovery = recover_frequencies(poisoned, protocol, eta=eta if eta is not None else 0.0)
        return recovery, result
    if eta is None:
        # The cluster-size ratio is a noisy upper bound on the true m/n —
        # under random subsetting both clusters contain mostly genuine
        # users, so trusting it over-corrects.  Cap it at the paper's
        # safe default (Section VI-A4 shows over-estimates up to 0.2 are
        # harmless while 0.8 is not).
        effective_eta = min(result.eta_estimate, DEFAULT_ETA)
    else:
        effective_eta = eta
    recovery = recover_frequencies(
        poisoned,
        protocol,
        eta=effective_eta,
        malicious_estimate=result.malicious_frequencies,
    )
    return recovery, result
