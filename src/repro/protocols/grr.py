"""General Randomized Response (GRR), paper Section III-B.

Each user reports her true item with probability ``p = e^eps / (d-1+e^eps)``
and any specific other item with probability ``q = 1 / (d-1+e^eps)``.  A GRR
report is a single item index; its support set is the singleton ``{report}``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro._rng import RngLike, as_generator
from repro.exceptions import ProtocolError
from repro.protocols.base import FrequencyOracle


class GRR(FrequencyOracle):
    """General Randomized Response frequency oracle.

    Reports are represented as a 1-D ``int64`` array of item indices.
    """

    name = "grr"

    def __init__(self, epsilon: float, domain_size: int) -> None:
        super().__init__(epsilon, domain_size)
        e_eps = math.exp(self.epsilon)
        self.p = e_eps / (self.domain_size - 1 + e_eps)
        self.q = 1.0 / (self.domain_size - 1 + e_eps)

    # ------------------------------------------------------------------
    # Report-level path
    # ------------------------------------------------------------------
    def perturb(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        items = self._validate_items(items)
        gen = as_generator(rng)
        n = items.size
        keep = gen.random(n) < self.p
        # A flipped user reports a uniform item among the d-1 others: draw
        # from [0, d-1) and skip past the true item.
        other = gen.integers(0, self.domain_size - 1, size=n, dtype=np.int64)
        other += (other >= items).astype(np.int64)
        return np.where(keep, items, other)

    def support_counts(self, reports: np.ndarray) -> np.ndarray:
        reports = self._validate_items(reports)
        return np.bincount(reports, minlength=self.domain_size).astype(np.int64)

    def craft_supporting(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        # A GRR report supporting exactly item v is the value v itself.
        return self._validate_items(items).copy()

    def concat_reports(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(first, dtype=np.int64), np.asarray(second, dtype=np.int64)])

    def num_reports(self, reports: np.ndarray) -> int:
        return int(np.asarray(reports).size)

    def reports_supporting_any(self, reports: np.ndarray, items: Sequence[int]) -> np.ndarray:
        reports = self._validate_items(reports)
        return np.isin(reports, np.asarray(list(items), dtype=np.int64))

    def max_report_support(self) -> int:
        return 1

    def target_support_counts(self, reports: np.ndarray, items: Sequence[int]) -> np.ndarray:
        # A GRR report supports exactly one item, so the count is 0 or 1.
        return self.reports_supporting_any(reports, items).astype(np.int64)

    def select_reports(self, reports: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return np.asarray(reports, dtype=np.int64)[np.asarray(mask, dtype=bool)]

    def slice_reports(self, reports: np.ndarray, start: int, stop: int) -> np.ndarray:
        """O(stop-start) contiguous sub-batch (direct array slice)."""
        return np.asarray(reports, dtype=np.int64)[start:stop]

    # ------------------------------------------------------------------
    # Distributional path
    # ------------------------------------------------------------------
    def sample_genuine_counts(self, true_counts: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Exact aggregated counts without materializing reports.

        Users holding item ``v`` keep it with probability ``p``; the flipped
        ones scatter uniformly over the remaining ``d-1`` items, which is a
        multinomial redistribution per source item.
        """
        counts = self._validate_true_counts(true_counts)
        gen = as_generator(rng)
        d = self.domain_size
        kept = gen.binomial(counts, self.p)
        out = kept.astype(np.int64)
        flipped = counts - kept
        uniform_other = np.full(d - 1, 1.0 / (d - 1))
        for v in np.flatnonzero(flipped):
            scattered = gen.multinomial(int(flipped[v]), uniform_other)
            out[:v] += scattered[:v]
            out[v + 1 :] += scattered[v:]
        return out

    def sample_crafted_counts(self, item_counts: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Exact: a crafted GRR report is its item, so the counts are the
        item histogram itself and no randomness is drawn."""
        return self._validate_true_counts(item_counts).copy()

    def theoretical_variance(self, n: int, frequency: float = 0.0) -> float:
        """Paper Eq. (4)."""
        if n <= 0:
            raise ProtocolError(f"n must be positive, got {n}")
        e_eps = math.exp(self.epsilon)
        d = self.domain_size
        base = n * (d - 2 + e_eps) / (e_eps - 1.0) ** 2
        extra = n * frequency * (d - 2) / (e_eps - 1.0)
        return base + extra
