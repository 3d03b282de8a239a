"""The online recovery service behind the HTTP front end.

:class:`RecoveryService` is the transport-free core: it owns one
streaming :class:`repro.sim.AggregatorState`, folds ingested report
batches into per-epoch ``support_counts`` partial sums, and serves four
frequency views per epoch — ``raw`` (Eq. 11 estimates), ``recover``
(LDPRecover), ``recover_star`` (LDPRecover* given target items) and
``detection`` (the Section VI-A5 baseline, which needs the raw reports
and is therefore only available with ``retain_reports=True``).

Views are **recomputed lazily with dirty-epoch invalidation**: every
ingest marks its epoch dirty; a read of a dirty epoch drops that epoch's
cached views and recomputes on demand; warm reads after no new ingests
run zero recovery recomputation.  Each epoch caches at most
``_MAX_VIEWS_PER_EPOCH`` views, evicting the least recently read.  The
:class:`repro.sim.CallCounter` at :attr:`RecoveryService.recomputes`
makes that claim testable, exactly like the engine's ``TASK_COUNTER``
does for cached cells.

Every number the service produces is byte-equal to the batch pipeline on
the same reports: ingest folds through
:meth:`repro.protocols.base.FrequencyOracle.fold_support_counts` (a sum
over reports, so equal to one ``support_counts`` pass over the epoch) and
the views call the exact recovery functions the exhibits use.

The ingest totals (:attr:`RecoveryService.ingested_reports` /
:attr:`~RecoveryService.ingested_batches`) are derived from the
aggregator's epochs, never kept beside them, so a snapshot carries the
state once.  A snapshot read back is checked field by field under the
cell cache's one type rule (:func:`repro.sim.cache.json_typed`).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.detection import detect_and_aggregate
from repro.core.recover import DEFAULT_ETA, recover_frequencies
from repro.exceptions import InvalidParameterError, ProtocolError
from repro.protocols.base import FrequencyOracle
from repro.sim.cache import json_typed
from repro.sim.engine import CallCounter
from repro.sim.streaming import AggregatorState, snapshot_object

#: The frequency views a service can serve per epoch.
METHODS = ("raw", "recover", "recover_star", "detection")

#: Cached views kept per epoch; the least recently read is evicted first.
#: ``raw`` and ``recover`` take one slot each whatever the targets, so only
#: distinct ``recover_star``/``detection`` target sets compete for the rest.
_MAX_VIEWS_PER_EPOCH = 32

#: Snapshot wire-format version of :meth:`RecoveryService.snapshot`.
SERVICE_SNAPSHOT_FORMAT = 1


@dataclass(frozen=True)
class FrequencyView:
    """One served frequency vector plus its provenance.

    ``recomputed`` says whether this read actually ran the recovery
    computation (a cache miss on a dirty or never-read epoch) or was
    served warm.
    """

    epoch: str
    method: str
    frequencies: np.ndarray
    num_reports: int
    recomputed: bool


def _normalize_targets(
    targets: Optional[Sequence[int]], domain_size: int
) -> tuple[int, ...]:
    """Canonical (sorted, deduplicated) tuple form of a target-item list.

    Rejects items outside ``[0, domain_size)`` before they can key a
    cached view or reach numpy (where ``2**70`` would overflow int64).
    """
    if targets is None:
        return ()
    normalized = tuple(sorted({int(t) for t in targets}))
    if normalized and (normalized[0] < 0 or normalized[-1] >= domain_size):
        raise InvalidParameterError(f"target items must lie in [0, {domain_size})")
    return normalized


class RecoveryService:
    """Ingest perturbed reports per epoch; serve recovered frequencies.

    Parameters
    ----------
    protocol:
        The frequency oracle the clients perturb with; also the identity
        snapshots are pinned to.
    eta:
        LDPRecover's frequency-sum tuning parameter (paper Section V-D),
        default :data:`repro.core.recover.DEFAULT_ETA`.
    retain_reports:
        Keep every ingested batch in memory (O(total reports)) so the
        ``detection`` view — which must rescan raw reports — is
        available.  Batches are listed per epoch and joined once per
        ``detection`` recompute, so ingest stays O(batch).  Off by
        default: the streaming partial sums alone are O(d) per epoch.

    Cached views are bounded: each epoch keeps at most
    ``_MAX_VIEWS_PER_EPOCH`` of them (O(d) floats each) in
    least-recently-read order, keyed by method and, for the two methods
    that use them, the normalized targets.  An evicted view recomputes
    byte-equal on its next read.
    """

    def __init__(
        self,
        protocol: FrequencyOracle,
        eta: float = DEFAULT_ETA,
        retain_reports: bool = False,
    ) -> None:
        self.protocol = protocol
        self.eta = float(eta)
        self.retain_reports = bool(retain_reports)
        self.state = AggregatorState(protocol)
        #: Counts actual recovery recomputations (cache misses); warm
        #: reads leave it untouched, which tests assert directly.
        self.recomputes = CallCounter()
        self._dirty: set[str] = set()
        self._views: dict[str, OrderedDict[tuple[str, tuple[int, ...]], np.ndarray]] = {}
        self._retained: dict[str, list[Any]] = {}
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------
    def ingest(self, epoch: str, reports: Any) -> int:
        """Fold one report batch into ``epoch``; returns the batch size.

        Marks the epoch dirty, so the next ``frequencies`` read of it
        recomputes; other epochs' cached views are untouched.
        """
        n = self.state.ingest(epoch, reports)
        if self.retain_reports:
            self._retained.setdefault(epoch, []).append(reports)
        self._dirty.add(epoch)
        return n

    def ingest_payload(self, epoch: str, payload: dict[str, Any]) -> int:
        """Decode a wire-encoded batch (see ``encode_reports``) and ingest it."""
        return self.ingest(epoch, self.protocol.decode_reports(payload))

    def absorb(self, other: AggregatorState) -> int:
        """Fan a collector's accumulated state into this service.

        The multi-collector ingest seam: remote collectors fold their
        share of the reports into local
        :class:`~repro.sim.streaming.AggregatorState` instances and ship
        the folded state here (fingerprint-matched protocols enforced by
        :meth:`~repro.sim.streaming.AggregatorState.merge`).  Every epoch
        ``other`` touched is marked dirty, so subsequent reads recompute —
        byte-equal to having ingested the collector's batches directly.
        Returns the number of reports absorbed.
        """
        absorbed = sum(state.num_reports for state in other.epochs.values())
        self.state.merge(other)
        self._dirty.update(other.epoch_names())
        return absorbed

    @property
    def ingested_reports(self) -> int:
        """Reports folded in so far: the sum of every epoch's
        ``num_reports`` (restored ones included)."""
        return sum(state.num_reports for state in self.state.epochs.values())

    @property
    def ingested_batches(self) -> int:
        """Batches folded in so far: the sum of every epoch's ``batches``."""
        return sum(state.batches for state in self.state.epochs.values())

    # ------------------------------------------------------------------
    # Read path (lazy, dirty-epoch invalidated)
    # ------------------------------------------------------------------
    def frequencies(
        self,
        epoch: str,
        method: str = "raw",
        targets: Optional[Sequence[int]] = None,
    ) -> FrequencyView:
        """The ``method`` frequency view of ``epoch``, recomputed if stale.

        ``targets`` (attacker-selected items) is required by
        ``recover_star`` and ``detection`` and ignored by the others, which
        therefore cache one view whatever the targets; its order does not
        matter.  Raises
        :class:`~repro.exceptions.InvalidParameterError` for unknown
        epochs, empty epochs, unknown methods, targets outside the domain,
        or a ``detection`` read on a service built without
        ``retain_reports``.
        """
        if method not in METHODS:
            raise InvalidParameterError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        if epoch not in self.state.epochs:
            raise InvalidParameterError(f"unknown epoch {epoch!r}")
        if self.state.num_reports(epoch) == 0:
            raise InvalidParameterError(f"epoch {epoch!r} holds no reports")
        if epoch in self._dirty:
            self._views.pop(epoch, None)
            self._dirty.discard(epoch)
        normalized = _normalize_targets(targets, self.protocol.domain_size)
        key = (method, normalized if method in ("recover_star", "detection") else ())
        cached = self._views.setdefault(epoch, OrderedDict())
        freq = cached.get(key)
        recomputed = freq is None
        if freq is None:
            freq = self._compute(epoch, method, key[1])
            cached[key] = freq
            if len(cached) > _MAX_VIEWS_PER_EPOCH:
                cached.popitem(last=False)
            self.recomputes.add(1)
        else:
            cached.move_to_end(key)
        return FrequencyView(
            epoch=epoch,
            method=method,
            frequencies=freq,
            num_reports=self.state.num_reports(epoch),
            recomputed=recomputed,
        )

    def _compute(self, epoch: str, method: str, targets: tuple[int, ...]) -> np.ndarray:
        """One actual recovery computation (the thing the counter counts).

        The detection view aggregates the retained reports themselves and
        passes Detection no ``counts``: the epoch's streamed counts also
        hold collector state merged by :meth:`absorb` and snapshot-restored
        reports that the retained batches lack, so subtracting the flagged
        reports from them would not give the retained kept side.
        """
        raw = self.state.estimate_frequencies(epoch)
        if method == "raw":
            return raw
        if method == "recover":
            return recover_frequencies(raw, self.protocol, eta=self.eta).frequencies
        if not targets:
            raise InvalidParameterError(f"method {method!r} requires target items")
        if method == "recover_star":
            return recover_frequencies(
                raw, self.protocol, eta=self.eta, target_items=list(targets)
            ).frequencies
        batches = self._retained.get(epoch)
        if not batches:
            raise InvalidParameterError(
                "detection needs raw reports; start the service with "
                "retain_reports=True (note the O(total reports) memory cost)"
            )
        # Balanced pairwise joins copy each report O(log batches) times.
        while len(batches) > 1:
            pairs = zip(batches[::2], batches[1::2])
            joined = [self.protocol.concat_reports(a, b) for a, b in pairs]
            batches = joined + batches[len(joined) * 2 :]
        self._retained[epoch] = batches
        return detect_and_aggregate(self.protocol, batches[0], list(targets)).frequencies

    # ------------------------------------------------------------------
    # Observability and persistence
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Operational counters for the ``/stats`` endpoint.

        ``recomputes`` is the running count of actual recovery
        computations — a warm read sequence holds it constant, which is
        the service-level "zero recomputation" guarantee in number form.
        """
        return {
            "protocol": {
                "name": self.protocol.name,
                "epsilon": self.protocol.epsilon,
                "domain_size": self.protocol.domain_size,
            },
            "eta": self.eta,
            "retain_reports": self.retain_reports,
            "uptime_seconds": time.monotonic() - self._started,
            "ingested_reports": self.ingested_reports,
            "ingested_batches": self.ingested_batches,
            "recomputes": self.recomputes.count,
            "epochs": {
                name: {
                    "num_reports": self.state.num_reports(name),
                    "batches": self.state.epochs[name].batches,
                    "dirty": name in self._dirty,
                }
                for name in self.state.epoch_names()
            },
        }

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe snapshot: ``eta`` and the aggregator state.

        The ingest totals are not stored: they are sums over the
        aggregator's epochs.  Cached views and retained raw reports are
        *not* persisted either — views recompute lazily after restore, and
        a restored service serves ``detection`` only for reports ingested
        after the restore.
        """
        return {
            "format": SERVICE_SNAPSHOT_FORMAT,
            "eta": self.eta,
            "aggregator": self.state.snapshot(),
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict[str, Any],
        protocol: FrequencyOracle,
        retain_reports: bool = False,
    ) -> "RecoveryService":
        """Resume a service from a :meth:`snapshot` dict.

        ``protocol`` must fingerprint-match the snapshot (enforced by
        :meth:`repro.sim.AggregatorState.restore`); ingesting the
        remainder of a stream into the restored service yields the same
        counts as an uninterrupted run — nothing is double-counted
        because the snapshot holds folded partial sums, not batches.
        Snapshots are read back from files, so every field is checked
        under :func:`~repro.sim.cache.json_typed` (``eta`` a number a
        float can hold): a malformed one raises
        :class:`~repro.exceptions.ProtocolError` naming it.  The
        ``ingested_reports`` / ``ingested_batches`` fields that earlier
        snapshots carry are ignored; the totals are the epochs' sums.
        """
        snapshot = snapshot_object(snapshot, "service snapshot")
        if snapshot.get("format") != SERVICE_SNAPSHOT_FORMAT:
            raise InvalidParameterError(
                f"unsupported service snapshot format {snapshot.get('format')!r}; "
                f"expected {SERVICE_SNAPSHOT_FORMAT}"
            )
        eta = snapshot.get("eta", DEFAULT_ETA)
        if not json_typed(eta, float):
            raise ProtocolError(
                f"service snapshot field 'eta' must be a finite number, got {eta!r}"
            )
        service = cls(protocol, eta=float(eta), retain_reports=retain_reports)
        service.state = AggregatorState.restore(
            snapshot_object(snapshot.get("aggregator"), "service snapshot field 'aggregator'"),
            protocol,
        )
        return service


__all__ = [
    "METHODS",
    "SERVICE_SNAPSHOT_FORMAT",
    "FrequencyView",
    "RecoveryService",
]
