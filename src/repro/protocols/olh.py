"""Optimized Local Hashing (OLH), paper Section III-B.

Each user draws a hash function ``H`` from a keyed family, hashes her item
into ``{0, .., g-1}`` with ``g = ceil(e^eps + 1)`` (the paper's default) and
perturbs the hash with GRR over the hashed domain.  The report is the pair
``(H, y)``; its support set is ``{v : H(v) = y}``.

Aggregation probabilities: ``p* = e^eps / (e^eps + g - 1)`` (the GRR keep
probability on the hashed domain) and ``q* = 1/g`` (a fixed *other* item
hashes to the reported value uniformly).

Two seed-drawing policies are supported:

* **Per-user seeds** (default, the paper's protocol): every user draws a
  fresh hash key, so aggregation must hash the full (users x domain) grid
  — O(n*d) splitmix64 evaluations, walked in cache-sized tiles of
  :data:`repro.protocols.hashing.TILE_CELLS` grid cells.
* **Seed cohorts** (``cohort=K``): each ``perturb`` batch draws ``K``
  fresh shared seeds and every user picks one uniformly.  A uniformly
  chosen random seed is still a uniformly random family member, so
  per-user report marginals (and hence estimates and their expectations)
  are unchanged, but aggregation collapses to one domain hash per cohort
  seed plus per-seed histograms of the reported values — O(K*d + n)
  instead of O(n*d).  The trade-off: users sharing a seed (and item) have
  correlated support sets, which mildly inflates estimate variance for
  small ``K``; cohort mode therefore changes the report distribution and
  is part of the protocol's cache fingerprint.

Which counting path runs is decided by the batch, not by the policy: any
batch whose ``K`` distinct seeds satisfy ``2*K <= n`` is counted grouped,
including MGA's crafted batches, which reuse a handful of winning keys
although the attacker draws them per report.  Both paths count exactly.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro._rng import RngLike, as_generator
from repro.exceptions import InvalidParameterError, ProtocolError
from repro.protocols import hashing
from repro.protocols.base import FrequencyOracle, decode_array, encode_array

#: Leading seeds of a batch probed for a repeat before the grouped
#: counting path is considered (see ``OLH._grouped_seeds``).
_REPEAT_PROBE = 1_024


@dataclass
class OLHReports:
    """A batch of OLH reports: per-user hash keys and reported hash values."""

    seeds: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.seeds = np.asarray(self.seeds, dtype=np.uint64)
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.seeds.shape != self.values.shape or self.seeds.ndim != 1:
            raise ProtocolError(
                f"OLH seeds/values must be equal-length 1-D arrays, got "
                f"{self.seeds.shape} and {self.values.shape}"
            )

    def __len__(self) -> int:
        return int(self.seeds.size)


class OLH(FrequencyOracle):
    """Optimized Local Hashing frequency oracle.

    Parameters
    ----------
    epsilon:
        Privacy budget.
    domain_size:
        Size of the item domain ``d``.
    g:
        Hash-range override (default ``ceil(e^eps + 1)``).
    cohort:
        Seed-cohort size ``K``: every ``perturb`` batch draws ``K`` fresh
        shared hash seeds and each user picks one uniformly, enabling the
        O(K*d + n) grouped aggregation path.  ``None`` (default) keeps the
        paper's one-fresh-seed-per-user policy.  Changes the report
        distribution (shared seeds correlate users' support sets), so it
        is part of the protocol's cache fingerprint.
    """

    name = "olh"

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        g: int | None = None,
        cohort: int | None = None,
    ) -> None:
        super().__init__(epsilon, domain_size)
        e_eps = math.exp(self.epsilon)
        self.g = int(g) if g is not None else math.ceil(e_eps + 1.0)
        if self.g < 2:
            raise InvalidParameterError(f"hash range g must be >= 2, got {self.g}")
        self.cohort = self._validate_cohort(cohort)
        # Perturbation probabilities of GRR over the hashed domain.
        self._p_perturb = e_eps / (e_eps + self.g - 1.0)
        # Aggregation probabilities (support-based).
        self.p = self._p_perturb
        self.q = 1.0 / self.g

    @staticmethod
    def _validate_cohort(cohort: Optional[int]) -> Optional[int]:
        if cohort is None:
            return None
        k = int(cohort)
        if k < 1:
            raise InvalidParameterError(f"cohort size must be >= 1, got {cohort}")
        return k

    def with_cohort(self, cohort: Optional[int]) -> "OLH":
        """A copy of this oracle in seed-cohort mode (``None`` = per-user).

        Everything else (``epsilon``, ``domain_size``, ``g``) is preserved
        — including the concrete subclass, so :class:`~repro.protocols.blh.BLH`
        stays BLH.  ``cohort`` alters the report distribution, hence the
        copy fingerprints (and caches) differently from its parent.
        """
        clone = copy.copy(self)
        clone.cohort = self._validate_cohort(cohort)
        return clone

    # ------------------------------------------------------------------
    # Report-level path
    # ------------------------------------------------------------------
    def perturb(self, items: np.ndarray, rng: RngLike = None) -> OLHReports:
        """Perturb one item per user into an OLH ``(seed, value)`` report.

        Per-user-seed mode draws one fresh hash key per user; cohort mode
        draws ``self.cohort`` fresh shared keys for the whole batch and
        assigns each user one uniformly (marginally identical — a
        uniformly chosen random seed is a uniformly random family member).
        """
        items = self._validate_items(items)
        gen = as_generator(rng)
        n = items.size
        if self.cohort is None:
            seeds = hashing.draw_seeds(n, gen)
        else:
            pool = hashing.draw_seeds(self.cohort, gen)
            seeds = pool[gen.integers(0, self.cohort, size=n)]
        hashed = hashing.hash_items(seeds, items.astype(np.uint64), self.g).astype(np.int64)
        keep = gen.random(n) < self._p_perturb
        other = gen.integers(0, self.g - 1, size=n, dtype=np.int64)
        other += (other >= hashed).astype(np.int64)
        return OLHReports(seeds=seeds, values=np.where(keep, hashed, other))

    def _validate_olh(self, reports: OLHReports) -> OLHReports:
        if not isinstance(reports, OLHReports):
            raise ProtocolError(f"expected OLHReports, got {type(reports)!r}")
        return reports

    def _grouped_seeds(
        self, reports: OLHReports
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """``(unique_seeds, inverse)`` when the grouped counting path applies.

        Grouping pays off only when seeds repeat, which the batch itself
        shows: cohort batches and MGA's crafted batches repeat a few keys,
        while per-user genuine batches have one fresh key per report.  A
        sort of the first ``_REPEAT_PROBE`` seeds tells them apart, so
        a per-user batch never pays the full O(n log n) ``np.unique``.
        Only after a repeat is found does the batch have to pass the
        ``2*K <= n`` test over all its seeds and hold in-range reported
        values (the histograms index by value).  Returns ``None`` whenever
        the per-user grid scan should run; both paths count exactly, so
        the choice never changes results.
        """
        probe = reports.seeds[:_REPEAT_PROBE]
        if np.unique(probe).size == probe.size:
            return None
        values = reports.values
        if values.min() < 0 or values.max() >= self.g:
            return None
        unique_seeds, inverse = np.unique(reports.seeds, return_inverse=True)
        if 2 * unique_seeds.size > len(reports):
            return None
        return unique_seeds, inverse

    def support_counts(self, reports: OLHReports) -> np.ndarray:
        """``C(v) = #{j : H_j(v) = y_j}``, scanned in bounded memory.

        Per-user-seed batches walk the (users x domain) hash grid in
        cache-sized tiles (:func:`repro.protocols.hashing.support_matches`).
        Batches with repeated seeds (cohort batches, MGA's crafted
        batches; see ``_grouped_seeds``) instead hash the domain once
        per distinct seed and fold per-seed histograms of the reported
        values — O(K*d + n) rather than O(n*d) — with bit-identical counts.
        """
        reports = self._validate_olh(reports)
        grouped = self._grouped_seeds(reports)
        if grouped is not None:
            unique_seeds, inverse = grouped
            histograms = hashing.value_histograms(
                inverse, reports.values, unique_seeds.size, self.g
            )
            return self._fold_seed_histograms(unique_seeds, histograms)
        return hashing.support_matches(
            reports.seeds, reports.values, np.arange(self.domain_size), self.g, axis=0
        )

    def subset_support_counts(self, reports: OLHReports, masks: np.ndarray) -> np.ndarray:
        """``(k, d)`` support counts of ``k`` report subsets (see the base class).

        A per-user-seed batch is scanned once, with every subset counted
        inside the same tiles
        (:func:`repro.protocols.hashing.support_matches` with ``masks``).
        Batches with repeated seeds count subset by subset on the grouped
        path, which is already O(K*d + n) each.
        """
        reports = self._validate_olh(reports)
        if self._grouped_seeds(reports) is not None:
            return super().subset_support_counts(reports, masks)
        return hashing.support_matches(
            reports.seeds, reports.values, np.arange(self.domain_size), self.g, axis=0,
            masks=self._validate_masks(reports, masks),
        )

    def _fold_seed_histograms(
        self, unique_seeds: np.ndarray, histograms: np.ndarray
    ) -> np.ndarray:
        """``counts[v] = sum_s histograms[s, H_s(v)]``, sliced over seeds.

        One :func:`repro.protocols.hashing.hash_domains` grid per slice of
        cohort seeds (at most ``TILE_CELLS`` cells, or one domain row,
        live), gathered through the per-seed reported-value histograms.
        """
        d = self.domain_size
        counts = np.zeros(d, dtype=np.int64)
        chunk = max(1, hashing.TILE_CELLS // d)
        for start in range(0, unique_seeds.size, chunk):
            stop = min(start + chunk, unique_seeds.size)
            grid = hashing.hash_domains(unique_seeds[start:stop], d, self.g).astype(
                np.int64
            )
            counts += np.take_along_axis(histograms[start:stop], grid, axis=1).sum(
                axis=0
            )
        return counts

    def craft_supporting(self, items: np.ndarray, rng: RngLike = None) -> OLHReports:
        """Craft reports whose support contains each requested item.

        The attacker picks a fresh hash key and reports the item's own hash
        value, so the report deterministically supports the item (plus the
        ~``d/g`` other items colliding with it, which is unavoidable in
        OLH's encoding).  Crafted reports always use per-report fresh keys
        — the attacker is not bound by the genuine cohort policy.
        """
        items = self._validate_items(items)
        gen = as_generator(rng)
        seeds = hashing.draw_seeds(items.size, gen)
        values = hashing.hash_items(seeds, items.astype(np.uint64), self.g).astype(np.int64)
        return OLHReports(seeds=seeds, values=values)

    def concat_reports(self, first: OLHReports, second: OLHReports) -> OLHReports:
        first = self._validate_olh(first)
        second = self._validate_olh(second)
        return OLHReports(
            seeds=np.concatenate([first.seeds, second.seeds]),
            values=np.concatenate([first.values, second.values]),
        )

    def num_reports(self, reports: OLHReports) -> int:
        return len(self._validate_olh(reports))

    def reports_supporting_any(self, reports: OLHReports, items: Sequence[int]) -> np.ndarray:
        """Boolean mask of reports whose support intersects ``items``.

        Delegates to :meth:`target_support_counts` (a report supports any
        target iff it supports at least one), inheriting its tiled scan and
        the grouped path for repeated seeds.
        """
        return self.target_support_counts(reports, items) > 0

    def target_support_counts(self, reports: OLHReports, items: Sequence[int]) -> np.ndarray:
        """Per-report count of supported target ``items``, in bounded memory.

        The per-user-seed path scans the (reports x targets) hash grid in
        cache-sized tiles — never the whole (n x targets) grid.  Batches
        with repeated seeds bucket the target hashes per distinct seed
        instead (in slices of at most ``TILE_CELLS`` cells) and gather each
        report's count from its seed's bucket row: O(K*t + n).
        """
        reports = self._validate_olh(reports)
        idx = np.asarray(list(items), dtype=np.uint64)
        if idx.size == 0:
            return np.zeros(len(reports), dtype=np.int64)
        grouped = self._grouped_seeds(reports)
        if grouped is not None:
            unique_seeds, inverse = grouped
            k = unique_seeds.size
            buckets = np.zeros((k, self.g), dtype=np.int64)
            chunk = max(1, hashing.TILE_CELLS // idx.size)
            for start in range(0, k, chunk):
                stop = min(start + chunk, k)
                grid = hashing.hash_items(
                    unique_seeds[start:stop, None], idx[None, :], self.g
                )
                rows = np.repeat(np.arange(stop - start), idx.size)
                buckets[start:stop] = hashing.value_histograms(
                    rows, grid.ravel(), stop - start, self.g
                )
            return buckets[inverse, reports.values]
        return hashing.support_matches(reports.seeds, reports.values, idx, self.g, axis=1)

    def select_reports(self, reports: OLHReports, mask: np.ndarray) -> OLHReports:
        reports = self._validate_olh(reports)
        mask = np.asarray(mask, dtype=bool)
        return OLHReports(seeds=reports.seeds[mask], values=reports.values[mask])

    def slice_reports(self, reports: OLHReports, start: int, stop: int) -> OLHReports:
        """O(stop-start) contiguous sub-batch (direct array slices)."""
        reports = self._validate_olh(reports)
        return OLHReports(
            seeds=reports.seeds[start:stop], values=reports.values[start:stop]
        )

    def encode_reports(self, reports: OLHReports) -> dict:
        """Wire encoding of an OLH batch: seed and value arrays side by side."""
        reports = self._validate_olh(reports)
        return {
            "seeds": encode_array(reports.seeds),
            "values": encode_array(reports.values),
        }

    def decode_reports(self, payload: dict) -> OLHReports:
        """Decode the :meth:`encode_reports` wire form back to reports."""
        try:
            seeds, values = payload["seeds"], payload["values"]
        except (TypeError, KeyError) as exc:
            raise ProtocolError(f"malformed OLH wire payload: {exc!r}") from exc
        return OLHReports(seeds=decode_array(seeds), values=decode_array(values))

    # ------------------------------------------------------------------
    # Distributional path
    # ------------------------------------------------------------------
    def sample_genuine_counts(self, true_counts: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Marginally exact aggregated counts.

        For a genuine user with item ``x``: ``Pr[x in S] = p*`` and
        ``Pr[v in S] = 1/g`` for ``v != x`` (hash uniformity), so marginally
        ``C(v) = Binom(n_v, p*) + Binom(n - n_v, 1/g)``.  Cross-item
        correlations induced by shared hash keys are ignored; they do not
        affect per-item estimates or their variances.  The cohort policy
        does not change these marginals, so this path is identical with
        and without ``cohort`` (the extra cross-user correlation of small
        cohorts is likewise not modeled).
        """
        counts = self._validate_true_counts(true_counts)
        gen = as_generator(rng)
        n = int(counts.sum())
        own = gen.binomial(counts, self.p)
        others = gen.binomial(n - counts, self.q)
        return (own + others).astype(np.int64)

    def sample_crafted_counts(self, item_counts: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Marginally exact crafted counts.

        A crafted report (:meth:`craft_supporting`) always supports its
        item, and its fresh key makes any other item collide with
        probability ``1/g``, so marginally ``C(v) = c_v + Binom(m - c_v,
        1/g)`` with ``m = sum(c)``.  As in :meth:`sample_genuine_counts`,
        the cross-item correlations of shared keys are not modeled.
        """
        counts = self._validate_true_counts(item_counts)
        m = int(counts.sum())
        return counts + as_generator(rng).binomial(m - counts, self.q).astype(np.int64)

    def theoretical_variance(self, n: int, frequency: float = 0.0) -> float:
        """Paper Eq. (10) (approximation, frequency-independent)."""
        if n <= 0:
            raise ProtocolError(f"n must be positive, got {n}")
        e_eps = math.exp(self.epsilon)
        return n * 4.0 * e_eps / (e_eps - 1.0) ** 2
