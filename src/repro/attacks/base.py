"""Attack abstractions (paper Sections II, IV-A, V-C).

The paper's threat model: an attacker controls ``m`` malicious users who
send attacker-crafted *encoded* data directly to the server, bypassing the
LDP perturbation.  The adaptive-attack framework of Section V-C observes
that every such attack is equivalent to sampling each malicious report
i.i.d. from an attacker-designed distribution over the encoded domain.

:class:`PoisoningAttack` captures that contract: ``craft`` produces the
``m`` malicious reports for a given protocol.  Attacks whose design is
naturally expressed as a distribution over *items* additionally implement
``sample_items`` (used by the item-level analysis and by the IPA variant,
where the crafted items go through the genuine perturbation instead).

Because the server sees the reports only through their support counts,
the effect of ``m`` crafted reports is a sum of ``m`` i.i.d. support
indicators whose law the protocol fixes.  ``sample_counts`` draws those
counts directly; fast-mode trials (:func:`repro.sim.pipeline.run_trial`)
call it instead of crafting.  Its default crafts and counts, and attacks
with a closed-form count law override it to cost O(d) instead of O(m*d).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Optional

import numpy as np

from repro._rng import RngLike, as_generator
from repro.exceptions import AttackError
from repro.protocols.base import FrequencyOracle


class PoisoningAttack(ABC):
    """Base class for poisoning attacks against LDP frequency estimation."""

    #: Short attack name, e.g. ``"mga"``; set by subclasses.
    name: ClassVar[str] = "abstract"

    #: True when the attack promotes specific items (targeted attacks).
    targeted: ClassVar[bool] = False

    #: True when crafted reports are i.i.d. draws, so ``craft(m)`` may be
    #: split into smaller batches without changing the report distribution
    #: (the adaptive-attack contract).  Attacks whose output depends on the
    #: batch size as a whole (e.g. deterministic user splits) set False;
    #: chunked simulation then falls back to a single craft call.
    iid_reports: ClassVar[bool] = True

    @abstractmethod
    def craft(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> Any:
        """Produce ``m`` malicious reports for ``protocol``.

        The reports are in the protocol's report representation, exactly as
        if sent by ``m`` malicious users.
        """

    def sample_items(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> np.ndarray:
        """Sample ``m`` items from the attack's item-level distribution.

        Optional: only attacks with a natural item-level design implement
        this (Manip, MGA, AA).  Needed by the input-poisoning variant and
        by analysis code.
        """
        raise AttackError(f"{type(self).__name__} has no item-level distribution")

    def sample_counts(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> np.ndarray:
        """Draw the ``(d,)`` int64 support counts of ``m`` crafted reports.

        Distributed as ``protocol.support_counts(self.craft(protocol, m,
        rng))``, which is what this default computes.  Overrides draw the
        counts from their law without crafting the reports: exactly where
        the protocol's crafted-count law is exact (GRR, OUE), matching the
        per-item marginals only on the local hashes (OLH), as
        :meth:`~repro.protocols.base.FrequencyOracle.sample_genuine_counts`
        does for genuine users.
        """
        return protocol.support_counts(self.craft(protocol, m, rng))

    def item_distribution(self, protocol: FrequencyOracle) -> Optional[np.ndarray]:
        """The attacker-designed distribution over items, if one exists.

        Returns ``None`` for attacks without an item-level description.
        Used to compute *true* malicious frequencies in Figure 7.
        """
        return None

    @property
    def target_items(self) -> Optional[np.ndarray]:
        """Attacker-selected items for targeted attacks, else ``None``."""
        return None

    def describe(self) -> str:
        """One-line human description for experiment logs."""
        return self.name

    @staticmethod
    def _validate_m(m: int) -> int:
        if m < 0:
            raise AttackError(f"number of malicious users m must be >= 0, got {m}")
        return int(m)


class ItemSamplingAttack(PoisoningAttack):
    """Attacks defined by a distribution over items.

    Subclasses implement :meth:`item_distribution`; crafting then samples
    items from it and encodes each with the protocol's
    :meth:`~repro.protocols.base.FrequencyOracle.craft_supporting`
    primitive.  This is exactly the paper's adaptive-attack template.
    """

    def _item_probabilities(self, protocol: FrequencyOracle) -> np.ndarray:
        """The checked item distribution, normalized to sum to one."""
        probs = self.item_distribution(protocol)
        if probs is None:
            raise AttackError(f"{type(self).__name__} did not define an item distribution")
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (protocol.domain_size,):
            raise AttackError(
                f"item distribution has shape {probs.shape}, expected ({protocol.domain_size},)"
            )
        total = probs.sum()
        if total <= 0:
            raise AttackError("item distribution must have positive mass")
        return probs / total

    def sample_items(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> np.ndarray:
        m = self._validate_m(m)
        probs = self._item_probabilities(protocol)
        gen = as_generator(rng)
        return gen.choice(protocol.domain_size, size=m, p=probs)

    def sample_item_counts(
        self, protocol: FrequencyOracle, m: int, rng: RngLike = None
    ) -> np.ndarray:
        """Histogram of ``m`` items drawn from the item distribution.

        ``multinomial(m, p)`` has the law of
        ``bincount(sample_items(protocol, m))`` and costs O(d).
        """
        m = self._validate_m(m)
        probs = self._item_probabilities(protocol)
        return as_generator(rng).multinomial(m, probs).astype(np.int64, copy=False)

    def craft(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> Any:
        gen = as_generator(rng)
        items = self.sample_items(protocol, m, gen)
        return protocol.craft_supporting(items, gen)

    def sample_counts(self, protocol: FrequencyOracle, m: int, rng: RngLike = None) -> np.ndarray:
        """The item histogram through the protocol's crafted-count law
        (:meth:`~repro.protocols.base.FrequencyOracle.sample_crafted_counts`).

        This is the law of :meth:`craft` above; a subclass that crafts
        differently (as MGA does on OUE and OLH) overrides this too.
        """
        gen = as_generator(rng)
        items = self.sample_item_counts(protocol, m, gen)
        return protocol.sample_crafted_counts(items, gen)


def resolve_target_items(
    targets: Optional[np.ndarray],
    r: Optional[int],
    domain_size: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Resolve explicit target items or draw ``r`` random distinct ones.

    Mirrors the paper's MGA setup ("we randomly select target items").
    """
    if targets is not None:
        arr = np.unique(np.asarray(targets, dtype=np.int64))
        if arr.size == 0:
            raise AttackError("target item set must be non-empty")
        if arr.min() < 0 or arr.max() >= domain_size:
            raise AttackError(f"target items must lie in [0, {domain_size})")
        return arr
    if r is None or r <= 0:
        raise AttackError("either explicit targets or a positive r is required")
    if r > domain_size:
        raise AttackError(f"r={r} exceeds domain size {domain_size}")
    gen = as_generator(rng)
    return np.sort(gen.choice(domain_size, size=r, replace=False).astype(np.int64))
