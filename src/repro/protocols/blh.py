"""Binary Local Hashing (BLH): local hashing with a 2-value range.

The special case of OLH with ``g = 2`` (Bassily-Smith style): each user
hashes her item to one bit and perturbs it with binary randomized
response.  Aggregation probabilities ``p = e^eps/(e^eps+1)``, ``q = 1/2``.
OLH's adaptive ``g = ceil(e^eps + 1)`` dominates BLH in variance, but BLH
is the historically important baseline and exercises the hashing stack at
its extreme (every report supports about half the domain).
"""

from __future__ import annotations

from repro.exceptions import ProtocolError
from repro.protocols.olh import OLH


class BLH(OLH):
    """Binary Local Hashing frequency oracle (OLH with g = 2)."""

    name = "blh"

    def __init__(
        self,
        epsilon: float,
        domain_size: int,
        cohort: int | None = None,
    ) -> None:
        super().__init__(epsilon, domain_size, g=2, cohort=cohort)

    def theoretical_variance(self, n: int, frequency: float = 0.0) -> float:
        """Low-frequency variance from the unified support model:
        ``n q(1-q)/(p-q)^2`` with q = 1/2 (Wang et al. 2017)."""
        if n <= 0:
            raise ProtocolError(f"n must be positive, got {n}")
        gap = self.p - self.q
        return n * self.q * (1.0 - self.q) / gap**2
