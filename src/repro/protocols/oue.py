"""Optimized Unary Encoding (OUE), paper Section III-B.

Each user one-hot encodes her item into a ``d``-bit vector and perturbs the
bits independently: the true bit survives with probability ``p = 1/2``, every
other bit turns on with probability ``q = 1/(e^eps + 1)``.  A report is the
full perturbed bit vector; its support set is the set of on-bits.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro._rng import RngLike, as_generator
from repro.exceptions import ProtocolError
from repro.protocols.base import FrequencyOracle, decode_array, encode_array


class OUE(FrequencyOracle):
    """Optimized Unary Encoding frequency oracle.

    Reports are represented as a 2-D boolean matrix of shape ``(n, d)``;
    on the wire each row ships ``np.packbits``-packed, ``ceil(d / 8)``
    bytes per report.
    """

    name = "oue"

    def __init__(self, epsilon: float, domain_size: int) -> None:
        super().__init__(epsilon, domain_size)
        self.p = 0.5
        self.q = 1.0 / (math.exp(self.epsilon) + 1.0)

    # ------------------------------------------------------------------
    # Report-level path
    # ------------------------------------------------------------------
    def perturb(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        items = self._validate_items(items)
        gen = as_generator(rng)
        n = items.size
        bits = gen.random((n, self.domain_size)) < self.q
        if n:
            bits[np.arange(n), items] = gen.random(n) < self.p
        return bits

    def _validate_reports(self, reports: np.ndarray) -> np.ndarray:
        arr = np.asarray(reports, dtype=bool)
        if arr.ndim != 2 or arr.shape[1] != self.domain_size:
            raise ProtocolError(
                f"OUE reports must have shape (n, {self.domain_size}), got {arr.shape}"
            )
        return arr

    def support_counts(self, reports: np.ndarray) -> np.ndarray:
        return self._validate_reports(reports).sum(axis=0).astype(np.int64)

    def craft_supporting(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Craft a report per item: the item's bit on, other bits at rate q.

        A bare one-hot vector would have ~1 on-bit against the ~``q*d`` of
        a genuine report, which (a) is trivially detectable and (b) acts
        as a *negative* bias on every other item.  Crafted reports instead
        mimic the genuine marginal rates on non-chosen bits — exactly the
        blending MGA uses for OUE and what OLH's hash collisions produce
        naturally (collision rate ``1/g = q``).
        """
        items = self._validate_items(items)
        gen = as_generator(rng)
        bits = gen.random((items.size, self.domain_size)) < self.q
        if items.size:
            bits[np.arange(items.size), items] = True
        return bits

    def concat_reports(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [self._validate_reports(first), self._validate_reports(second)], axis=0
        )

    def num_reports(self, reports: np.ndarray) -> int:
        return int(self._validate_reports(reports).shape[0])

    def reports_supporting_any(self, reports: np.ndarray, items: Sequence[int]) -> np.ndarray:
        arr = self._validate_reports(reports)
        idx = np.asarray(list(items), dtype=np.int64)
        if idx.size == 0:
            return np.zeros(arr.shape[0], dtype=bool)
        return arr[:, idx].any(axis=1)

    def target_support_counts(self, reports: np.ndarray, items: Sequence[int]) -> np.ndarray:
        arr = self._validate_reports(reports)
        idx = np.asarray(list(items), dtype=np.int64)
        if idx.size == 0:
            return np.zeros(arr.shape[0], dtype=np.int64)
        return arr[:, idx].sum(axis=1).astype(np.int64)

    def select_reports(self, reports: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self._validate_reports(reports)[np.asarray(mask, dtype=bool)]

    def slice_reports(self, reports: np.ndarray, start: int, stop: int) -> np.ndarray:
        """O(stop-start) contiguous sub-batch (direct row slice)."""
        return self._validate_reports(reports)[start:stop]

    # ------------------------------------------------------------------
    # Wire serialization
    # ------------------------------------------------------------------
    def encode_reports(self, reports: np.ndarray) -> dict:
        """Wire form: ``np.packbits`` rows, ``ceil(d / 8)`` ``uint8`` bytes per
        report (128 at d = 1024), item 0 in the high bit of byte 0 and any
        padding bits past item ``d - 1`` clear."""
        return encode_array(np.packbits(self._validate_reports(reports), axis=1))

    def decode_reports(self, payload: dict) -> np.ndarray:
        """Decode :meth:`encode_reports`'s form back to the ``(n, d)`` bool
        matrix, refusing rows with a padding bit set."""
        d = self.domain_size
        packed = decode_array(payload, "uint8", width=-(-d // 8), row_bytes=d)
        if d % 8 and np.any(packed[:, -1] & (0xFF >> (d % 8))):
            raise ProtocolError(f"OUE wire rows set padding bits past item {d - 1}")
        return np.unpackbits(packed, axis=1, count=d).view(bool)

    # ------------------------------------------------------------------
    # Distributional path
    # ------------------------------------------------------------------
    def sample_genuine_counts(self, true_counts: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Exact aggregated counts: bits are independent across users/items,
        so ``C(v) = Binom(n_v, p) + Binom(n - n_v, q)`` exactly."""
        counts = self._validate_true_counts(true_counts)
        gen = as_generator(rng)
        n = int(counts.sum())
        own = gen.binomial(counts, self.p)
        others = gen.binomial(n - counts, self.q)
        return (own + others).astype(np.int64)

    def sample_crafted_counts(self, item_counts: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Exact crafted counts: a crafted report's item bit is on and each
        other bit fires at rate ``q`` independently (:meth:`craft_supporting`),
        so ``C(v) = c_v + Binom(m - c_v, q)`` with ``m = sum(c)``."""
        counts = self._validate_true_counts(item_counts)
        m = int(counts.sum())
        return counts + as_generator(rng).binomial(m - counts, self.q).astype(np.int64)

    def theoretical_variance(self, n: int, frequency: float = 0.0) -> float:
        """Paper Eq. (7) (frequency-independent)."""
        if n <= 0:
            raise ProtocolError(f"n must be positive, got {n}")
        e_eps = math.exp(self.epsilon)
        return n * 4.0 * e_eps / (e_eps - 1.0) ** 2
