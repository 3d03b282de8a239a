"""The Detection baseline (paper Section VI-A5).

The comparison method adapted from Cao et al.'s countermeasures with the
same partial knowledge as LDPRecover*: "Detection identifies users as
malicious if their reported data matches the target items" and drops them
before aggregation.  Because genuine users also (noisily) support target
items, Detection over-removes and loses accuracy — which is exactly what
Figures 3-4 show.

"Matches the target items" is protocol dependent.  For GRR a report *is*
an item, so matching means reporting a target.  For the vector protocols
(OUE, OLH) a single report supports many items, and flagging any-target
support would remove essentially every user; instead a report matches when
it supports at least ``min_support_fraction`` of the target set — the
signature of an MGA-crafted report, which supports all (OUE) or most (OLH)
targets simultaneously.  With the default fraction of 0.5 the rule
degenerates to the paper's "reported data is a target item" for GRR
(support counts are 0/1 there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.exceptions import RecoveryError
from repro.protocols.base import FrequencyOracle


@dataclass(frozen=True)
class DetectionResult:
    """Frequencies after detection plus bookkeeping about removals."""

    frequencies: np.ndarray
    removed: int
    kept: int

    @property
    def removal_rate(self) -> float:
        total = self.removed + self.kept
        return self.removed / total if total else 0.0


def detect_and_aggregate(
    protocol: FrequencyOracle,
    reports: Any,
    target_items: Sequence[int],
    min_support_fraction: float = 0.5,
    counts: np.ndarray | None = None,
) -> DetectionResult:
    """Drop reports matching the target-item signature, then aggregate.

    Parameters
    ----------
    protocol:
        The frequency oracle that produced ``reports``.
    reports:
        The full (poisoned) report batch.
    target_items:
        The attacker-selected items the server believes in; each must lie
        in ``[0, d)``.
    min_support_fraction:
        A report is flagged when it supports at least
        ``ceil(min_support_fraction * |T|)`` of the targets (minimum 1).
    counts:
        ``protocol.support_counts(reports)`` when the caller already
        holds it.  The kept reports' counts are then these minus the
        flagged reports' counts, so only the flagged side is rescanned;
        without it the kept reports are aggregated directly.  Either way
        the result is the same, as long as ``counts`` is exactly the
        support count of ``reports``.
    """
    items = [int(t) for t in target_items]
    d = protocol.domain_size
    if not all(0 <= t < d for t in items):
        raise RecoveryError(f"target items must lie in [0, {d})")
    targets = np.unique(np.asarray(items, dtype=np.int64))
    if targets.size == 0:
        raise RecoveryError("Detection needs a non-empty target item set")
    if not 0.0 < min_support_fraction <= 1.0:
        raise RecoveryError(
            f"min_support_fraction must be in (0, 1], got {min_support_fraction}"
        )
    cap = min(targets.size, protocol.max_report_support())
    threshold = max(1, math.ceil(min_support_fraction * cap))
    support = protocol.target_support_counts(reports, targets)
    flagged = support >= threshold
    removed = int(flagged.sum())
    kept = flagged.size - removed
    if kept == 0:
        raise RecoveryError("Detection removed every report; cannot aggregate")
    scanned = protocol.support_counts(
        protocol.select_reports(reports, ~flagged if counts is None else flagged)
    )
    kept_counts = scanned if counts is None else counts - scanned
    return DetectionResult(
        frequencies=protocol.estimate_frequencies(kept_counts, kept),
        removed=removed,
        kept=kept,
    )
