"""Input poisoning attacks (IPA), paper Section VII-B.

Under IPA the malicious users *follow the protocol*: the attacker chooses
each malicious user's input item, but the item then goes through the
genuine LDP perturbation before reaching the server.  The paper shows IPA
is orders of magnitude weaker than the general (output) poisoning attack —
Figure 8 — and that LDPRecover can still counter it when combined with the
k-means defense (Figure 9).

:class:`InputPoisoningAttack` wraps any item-level attack (Manip, MGA, AA)
and routes its sampled items through ``protocol.perturb``.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro._rng import RngLike, as_generator
from repro.attacks.base import ItemSamplingAttack, PoisoningAttack
from repro.protocols.base import FrequencyOracle


class InputPoisoningAttack(PoisoningAttack):
    """Wrap an item-level attack so crafted items pass through perturbation."""

    name = "ipa"

    def __init__(self, inner: PoisoningAttack) -> None:
        self.inner = inner
        self.targeted = inner.targeted
        # Crafted reports are one genuine perturbation per sampled item, so
        # batch-splitting is safe exactly when the inner sampling is.
        self.iid_reports = inner.iid_reports

    def craft(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> Any:
        gen = as_generator(rng)
        items = self.inner.sample_items(protocol, self._validate_m(m), gen)
        return protocol.perturb(items, gen)

    def sample_counts(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> np.ndarray:
        """The inner attack's item histogram through the genuine count law
        (:meth:`~repro.protocols.base.FrequencyOracle.sample_genuine_counts`),
        in O(d) when the inner attack samples items from a distribution."""
        gen = as_generator(rng)
        m = self._validate_m(m)
        if isinstance(self.inner, ItemSamplingAttack):
            items = self.inner.sample_item_counts(protocol, m, gen)
        else:
            items = np.bincount(
                self.inner.sample_items(protocol, m, gen), minlength=protocol.domain_size
            )
        return protocol.sample_genuine_counts(items, gen)

    def sample_items(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> np.ndarray:
        return self.inner.sample_items(protocol, m, rng)

    def item_distribution(self, protocol: FrequencyOracle) -> Optional[np.ndarray]:
        return self.inner.item_distribution(protocol)

    @property
    def target_items(self) -> Optional[np.ndarray]:
        return self.inner.target_items

    def describe(self) -> str:
        return f"ipa({self.inner.describe()})"
