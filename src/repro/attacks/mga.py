"""MGA: the Maximal Gain Attack of Cao, Jia & Gong (USENIX Security'21).

A targeted poisoning attack that maximizes the frequency gain of the
attacker-chosen target items ``T`` (``|T| = r``).  The crafted report is
protocol specific:

* **GRR** — each malicious user reports a uniformly chosen target item.
* **OUE** — each malicious user sends a bit vector with all target bits on;
  to evade count-based detection the total number of on-bits is padded with
  random non-target bits up to the expected genuine count
  ``round(p + (d-1)*q)``.
* **OLH** — each malicious user picks a hash key whose induced hash maps as
  many targets as possible to one value, and reports that ``(key, value)``
  pair, so a single report supports many targets at once.

The item-level distribution (uniform over targets, the paper's Section
VI-A3 description) backs the IPA variant and analysis code.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro._rng import RngLike, as_generator
from repro.attacks.base import ItemSamplingAttack, PoisoningAttack, resolve_target_items
from repro.exceptions import AttackError
from repro.protocols import hashing
from repro.protocols.base import FrequencyOracle
from repro.protocols.grr import GRR
from repro.protocols.olh import OLH, OLHReports
from repro.protocols.oue import OUE


class MGAAttack(ItemSamplingAttack):
    """Maximal Gain Attack promoting ``r`` target items.

    Parameters
    ----------
    domain_size:
        Size of the item domain.
    targets:
        Explicit target items; mutually exclusive with random selection.
    r:
        Number of random target items to select when ``targets`` is omitted
        (paper default: 10).
    pad_oue:
        Whether the OUE crafted vectors are padded to the expected genuine
        on-bit count (MGA's detection evasion; default True).
    seed_candidates:
        Number of candidate hash keys scanned for the OLH report search.
    rng:
        Randomness for random target selection.
    """

    name = "mga"
    targeted = True

    def __init__(
        self,
        domain_size: int,
        targets: Optional[Sequence[int]] = None,
        r: Optional[int] = 10,
        pad_oue: bool = True,
        seed_candidates: int = 256,
        rng: RngLike = None,
    ) -> None:
        if domain_size < 2:
            raise AttackError(f"domain_size must be >= 2, got {domain_size}")
        self.domain_size = int(domain_size)
        self._targets = resolve_target_items(
            None if targets is None else np.asarray(list(targets)),
            r,
            self.domain_size,
            rng,
        )
        self.pad_oue = bool(pad_oue)
        if seed_candidates < 1:
            raise AttackError(f"seed_candidates must be >= 1, got {seed_candidates}")
        self.seed_candidates = int(seed_candidates)

    @property
    def target_items(self) -> np.ndarray:
        return self._targets

    @property
    def r(self) -> int:
        """Number of target items."""
        return int(self._targets.size)

    def item_distribution(self, protocol: FrequencyOracle) -> np.ndarray:
        if protocol.domain_size != self.domain_size:
            raise AttackError(
                f"attack built for domain size {self.domain_size}, protocol has "
                f"{protocol.domain_size}"
            )
        probs = np.zeros(self.domain_size, dtype=np.float64)
        probs[self._targets] = 1.0 / self._targets.size
        return probs

    # ------------------------------------------------------------------
    # Protocol-specific crafting
    # ------------------------------------------------------------------
    def craft(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> Any:
        m = self._validate_m(m)
        gen = as_generator(rng)
        if isinstance(protocol, OLH):
            return self._craft_olh(protocol, m, gen)
        if isinstance(protocol, OUE):
            return self._craft_oue(protocol, m, gen)
        if isinstance(protocol, GRR):
            return protocol.craft_supporting(self.sample_items(protocol, m, gen), gen)
        # Unknown pure protocol: fall back to the generic sampling template.
        return super().craft(protocol, m, gen)

    def sample_counts(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> np.ndarray:
        """Support counts of ``m`` crafted reports (see the base class).

        OUE draws the joint law of :meth:`_craft_oue`'s columns in
        O(k * pad).  OLH crafts and counts through the default: its batch
        reuses a few winning keys, so grouped counting already makes it
        cheap, and its draws stay those of the crafting path.  GRR and
        unknown protocols draw the item histogram and apply the protocol's
        crafted-count law.
        """
        m = self._validate_m(m)
        gen = as_generator(rng)
        if isinstance(protocol, OLH):
            return PoisoningAttack.sample_counts(self, protocol, m, gen)
        if isinstance(protocol, OUE):
            return self._sample_oue_counts(protocol, m, gen)
        return super().sample_counts(protocol, m, gen)

    def _oue_padding(self, protocol: OUE) -> tuple[int, np.ndarray]:
        """``(pad, non_targets)``: the padding bits each crafted OUE report
        draws, up to the expected genuine on-bit count, and the columns
        it draws them from."""
        d = protocol.domain_size
        non_targets = np.setdiff1d(np.arange(d, dtype=np.int64), self._targets)
        if not self.pad_oue:
            return 0, non_targets
        expected_ones = int(round(protocol.p + (d - 1) * protocol.q))
        return min(max(0, expected_ones - self._targets.size), non_targets.size), non_targets

    def _craft_oue(self, protocol: OUE, m: int, gen: np.random.Generator) -> np.ndarray:
        """``m`` bit vectors: every target bit on, plus ``pad`` padding bits.

        Each report's padding is a uniform ``pad``-subset of the ``k``
        non-target bits, drawn by Knuth's selection sampling (Algorithm S)
        for all reports at once: walking the non-target columns in
        ascending order, column ``j`` is taken with probability
        ``need / (k - j)``, where ``need`` counts the bits the report still
        lacks, so every row ends with exactly ``pad`` of them.  It draws
        exactly one double per (report, non-target column), ``m * k`` in
        all, and needs O(m) scratch memory beyond the output.
        """
        bits = np.zeros((m, protocol.domain_size), dtype=bool)
        bits[:, self._targets] = True
        pad, non_targets = self._oue_padding(protocol)
        if pad and m:
            k = non_targets.size
            need = np.full(m, pad, dtype=np.int64)
            for j, column in enumerate(non_targets):
                take = gen.random(m) * (k - j) < need
                bits[:, column] = take
                need -= take
        return bits

    def _sample_oue_counts(self, protocol: OUE, m: int, gen: np.random.Generator) -> np.ndarray:
        """The column sums of :meth:`_craft_oue`'s reports, without the reports.

        Reports pad independently, so Algorithm S runs on a histogram of
        them by remaining need: ``rows[r]`` reports still lack ``r`` bits,
        and at non-target column ``j`` a ``Binomial(rows[r], r / (k - j))``
        of them take it.  The column counts have the crafting path's joint
        law, every report still ends with exactly ``pad`` bits, and the
        cost is O(k * pad) draws.
        """
        counts = np.zeros(protocol.domain_size, dtype=np.int64)
        counts[self._targets] = m
        pad, non_targets = self._oue_padding(protocol)
        if pad and m:
            k = non_targets.size
            need = np.arange(1, pad + 1)
            rows = np.zeros(pad + 1, dtype=np.int64)
            rows[pad] = m
            for j, column in enumerate(non_targets):
                # Rows needing more bits than columns remain are empty.
                take = gen.binomial(rows[1:], np.minimum(1.0, need / (k - j)))
                counts[column] = take.sum()
                rows[1:] -= take
                rows[:-1] += take
        return counts

    def _craft_olh(self, protocol: OLH, m: int, gen: np.random.Generator) -> OLHReports:
        best_seeds, best_values = self._search_olh_reports(protocol, gen)
        pick = gen.integers(0, best_seeds.size, size=m)
        return OLHReports(seeds=best_seeds[pick], values=best_values[pick])

    def _search_olh_reports(
        self, protocol: OLH, gen: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scan candidate hash keys; keep the (key, value) pairs covering
        the most targets.  Each malicious user then samples a winner, which
        matches MGA's per-user maximization at a fraction of the cost."""
        seeds = hashing.draw_seeds(self.seed_candidates, gen)
        grid = hashing.hash_items(
            seeds[:, None], self._targets.astype(np.uint64)[None, :], protocol.g
        ).astype(np.int64)
        coverage = np.zeros(self.seed_candidates, dtype=np.int64)
        best_value = np.zeros(self.seed_candidates, dtype=np.int64)
        for i in range(self.seed_candidates):
            buckets = np.bincount(grid[i], minlength=protocol.g)
            best_value[i] = int(buckets.argmax())
            coverage[i] = int(buckets.max())
        winners = coverage == coverage.max()
        return seeds[winners], best_value[winners]

    def describe(self) -> str:
        return f"mga(r={self.r}, pad_oue={self.pad_oue})"
