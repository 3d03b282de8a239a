"""Multi-attacker poisoning (paper Section VII-C).

Several attackers control disjoint groups of malicious users, each sampling
from its own attacker-designed distribution.  The paper observes this is
equivalent to a single adaptive attacker sampling from the mixture of the
individual distributions, so LDPRecover applies unchanged; Figure 10
validates it with five independent adaptive attackers.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro._rng import RngLike, as_generator, spawn
from repro.attacks.base import PoisoningAttack
from repro.exceptions import AttackError
from repro.protocols.base import FrequencyOracle


class MultiAttacker(PoisoningAttack):
    """Compose several attacks, splitting malicious users among them.

    Parameters
    ----------
    attacks:
        The individual attackers.
    weights:
        Relative share of malicious users per attacker (default: equal).
        Users are split by rounding the cumulative shares, so the total is
        always exactly ``m`` and deterministic given the weights.
    """

    name = "multi"

    #: The weight split is deterministic per craft call, so crafting in
    #: sub-batches would re-round the shares each time and can starve
    #: low-weight attackers entirely; chunked simulation must not split.
    iid_reports = False

    def __init__(
        self,
        attacks: Sequence[PoisoningAttack],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not attacks:
            raise AttackError("MultiAttacker needs at least one attack")
        self.attacks = list(attacks)
        if weights is None:
            w = np.full(len(self.attacks), 1.0 / len(self.attacks))
        else:
            w = np.asarray(list(weights), dtype=np.float64)
            if w.shape != (len(self.attacks),):
                raise AttackError("weights must match the number of attacks")
            if np.any(w < 0) or w.sum() <= 0:
                raise AttackError("weights must be non-negative with positive sum")
            w = w / w.sum()
        self.weights = w
        self.targeted = any(a.targeted for a in self.attacks)

    def split_users(self, m: int) -> np.ndarray:
        """Deterministic split of ``m`` malicious users by weight."""
        m = self._validate_m(m)
        boundaries = np.round(np.cumsum(self.weights) * m).astype(np.int64)
        starts = np.concatenate([[0], boundaries[:-1]])
        return (boundaries - starts).astype(np.int64)

    def craft(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> Any:
        counts = self.split_users(m)
        rngs = spawn(rng, len(self.attacks))
        batches = [
            attack.craft(protocol, int(mi), child)
            for attack, mi, child in zip(self.attacks, counts, rngs)
        ]
        combined = batches[0]
        for batch in batches[1:]:
            combined = protocol.concat_reports(combined, batch)
        return combined

    def sample_counts(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> np.ndarray:
        """The sum of each attacker's ``sample_counts`` over the same user
        split and child generators as :meth:`craft`."""
        counts = self.split_users(m)
        rngs = spawn(rng, len(self.attacks))
        total = np.zeros(protocol.domain_size, dtype=np.int64)
        for attack, mi, child in zip(self.attacks, counts, rngs):
            total += attack.sample_counts(protocol, int(mi), child)
        return total

    def sample_items(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> np.ndarray:
        counts = self.split_users(m)
        gen = as_generator(rng)
        rngs = spawn(gen, len(self.attacks))
        parts = [
            attack.sample_items(protocol, int(mi), child)
            for attack, mi, child in zip(self.attacks, counts, rngs)
        ]
        items = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        gen.shuffle(items)
        return items

    def item_distribution(self, protocol: FrequencyOracle) -> Optional[np.ndarray]:
        mix = np.zeros(protocol.domain_size, dtype=np.float64)
        for attack, weight in zip(self.attacks, self.weights):
            probs = attack.item_distribution(protocol)
            if probs is None:
                return None
            mix += weight * np.asarray(probs, dtype=np.float64)
        return mix

    @property
    def target_items(self) -> Optional[np.ndarray]:
        target_sets = [a.target_items for a in self.attacks if a.target_items is not None]
        if not target_sets:
            return None
        return np.unique(np.concatenate(target_sets))

    def describe(self) -> str:
        inner = ", ".join(a.describe() for a in self.attacks)
        return f"multi[{inner}]"
