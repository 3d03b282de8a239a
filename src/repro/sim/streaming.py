"""Streaming aggregation core: fold report batches into per-epoch state.

The paper's recovery pipeline is something an *aggregator* runs over
reports it has collected; the batch trial loop reaches it by materializing
a whole trial's reports first.  This module is the seam between the two:
an :class:`AggregatorState` folds report batches into incremental
``support_counts`` partial sums per epoch through the protocol's
explicit-state kernel
(:meth:`repro.protocols.base.FrequencyOracle.fold_support_counts`), which
walks each batch in slices of
:data:`~repro.protocols.base.DEFAULT_CHUNK_USERS` reports — so streaming
any split of the same reports is byte-equal to one batch
``support_counts`` pass.

State survives restarts and shards:

* :meth:`AggregatorState.merge` folds another aggregator's per-epoch sums
  in (support counting is a sum over reports, so shard order is
  irrelevant);
* :meth:`AggregatorState.snapshot` /
  :meth:`AggregatorState.restore` round-trip the state through a JSON-safe
  dict, pinned to the protocol's cache fingerprint so a snapshot can never
  silently resume under a different protocol configuration.  Restore
  checks every count it reads under the cell cache's one type rule
  (:func:`repro.sim.cache.json_typed`), so a count no float can hold is
  refused with :class:`~repro.exceptions.ProtocolError`, not folded in.

:mod:`repro.serve` builds the online recovery service on top of this
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError, ProtocolError
from repro.protocols.base import FrequencyOracle, decode_array, encode_array
from repro.sim.cache import canonical_key, fingerprint_object, json_typed

#: Version tag of the :meth:`AggregatorState.snapshot` wire format; bumped
#: on incompatible layout changes so stale snapshots fail loudly.
SNAPSHOT_FORMAT = 1


def protocol_key(protocol: FrequencyOracle) -> str:
    """Canonical identity string of ``protocol`` for snapshot pinning.

    The cache layer's content fingerprint
    (:func:`repro.sim.cache.fingerprint_object` hashed through
    :func:`repro.sim.cache.canonical_key`): the distribution-shaping
    attributes (``epsilon``, ``domain_size``, OLH's ``cohort``) are in —
    exactly the identity under which folded counts are interchangeable.
    """
    return canonical_key(fingerprint_object(protocol))


@dataclass
class EpochState:
    """Accumulated aggregation state of one epoch.

    ``support_counts`` is the running partial-sum vector (the explicit
    state of the streaming kernel), ``num_reports`` the reports folded
    into it, and ``batches`` the ingest calls that contributed — the
    latter purely observability, never part of the arithmetic.
    """

    support_counts: np.ndarray
    num_reports: int = 0
    batches: int = 0


@dataclass
class AggregatorState:
    """Per-(protocol, epoch) streaming ``support_counts`` accumulator.

    One instance is bound to one ``protocol`` configuration; report
    batches fold into per-``epoch`` partial sums via :meth:`ingest`.
    Epoch names are free-form strings (a day, an hour bucket, a
    collection round) — the paper's aggregator collects one round at a
    time, and recovery runs per round.
    """

    protocol: FrequencyOracle
    epochs: dict[str, EpochState] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._protocol_key = protocol_key(self.protocol)

    @property
    def key(self) -> str:
        """The bound protocol's :func:`protocol_key` (snapshot identity)."""
        return self._protocol_key

    def epoch(self, name: str) -> EpochState:
        """The state of epoch ``name``, created zeroed on first touch."""
        state = self.epochs.get(name)
        if state is None:
            state = EpochState(support_counts=self.protocol.init_support_state())
            self.epochs[name] = state
        return state

    def epoch_names(self) -> list[str]:
        """All epochs seen so far, sorted (deterministic iteration order)."""
        return sorted(self.epochs)

    def ingest(self, name: str, reports: Any) -> int:
        """Fold one report batch into epoch ``name``; returns its size.

        Byte-equal to having aggregated the epoch's reports in one batch:
        the fold routes through the protocol's explicit-state kernel,
        which slices ``reports`` to at most
        :data:`~repro.protocols.base.DEFAULT_CHUNK_USERS` at a time, so
        ingest's transient memory is bounded regardless of batch size.
        """
        state = self.epoch(name)
        n = self.protocol.num_reports(reports)
        self.protocol.fold_support_counts(state.support_counts, reports)
        state.num_reports += n
        state.batches += 1
        return n

    def support_counts(self, name: str) -> np.ndarray:
        """A copy of epoch ``name``'s accumulated ``support_counts``."""
        return self.epoch(name).support_counts.copy()

    def num_reports(self, name: str) -> int:
        """Reports folded into epoch ``name`` so far."""
        return self.epoch(name).num_reports

    def estimate_frequencies(self, name: str) -> np.ndarray:
        """Unbiased frequency estimates for epoch ``name`` (paper Eq. 11).

        Identical to ``protocol.aggregate`` over the epoch's full report
        batch, computed from the streamed partial sums instead.
        """
        state = self.epoch(name)
        return self.protocol.estimate_frequencies(
            state.support_counts, state.num_reports
        )

    def merge(self, other: "AggregatorState") -> None:
        """Fold another aggregator's per-epoch sums into this one.

        ``other`` must be bound to a fingerprint-identical protocol
        (support counts are only interchangeable under the same report
        distribution).  Shared epochs add their partial sums — support
        counting is a sum over reports, so shard boundaries and merge
        order are arithmetic no-ops.
        """
        if other.key != self.key:
            raise ProtocolError(
                "cannot merge aggregator state across protocol identities: "
                f"{self.key[:12]}... != {other.key[:12]}..."
            )
        for name in other.epoch_names():
            theirs = other.epochs[name]
            mine = self.epoch(name)
            mine.support_counts += theirs.support_counts
            mine.num_reports += theirs.num_reports
            mine.batches += theirs.batches

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe snapshot of every epoch's accumulated state.

        Carries the :data:`SNAPSHOT_FORMAT` tag and the protocol's
        :func:`protocol_key`; :meth:`restore` refuses a snapshot whose key
        does not match the protocol it is asked to resume under.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "protocol": self._protocol_key,
            "epochs": {
                name: {
                    "support_counts": encode_array(self.epochs[name].support_counts),
                    "num_reports": self.epochs[name].num_reports,
                    "batches": self.epochs[name].batches,
                }
                for name in self.epoch_names()
            },
        }

    @classmethod
    def restore(cls, snapshot: dict[str, Any], protocol: FrequencyOracle) -> "AggregatorState":
        """Rebuild an aggregator from a :meth:`snapshot` dict.

        ``protocol`` must fingerprint to the key recorded in ``snapshot``
        (resuming under a different protocol configuration would silently
        mix incompatible counts).  Keys the snapshot carries beyond the
        current layout, such as the fold slice size older snapshots
        recorded as ``"chunk_users"``, are ignored: they never shaped the
        counts.  Ingesting the not-yet-snapshotted remainder of a stream
        into the restored state yields byte-equal counts to an
        uninterrupted run.  Every field restore reads is checked first:
        a malformed one raises :class:`~repro.exceptions.ProtocolError`
        naming the epoch and the field.
        """
        snapshot = snapshot_object(snapshot, "snapshot")
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise InvalidParameterError(
                f"unsupported snapshot format {snapshot.get('format')!r}; "
                f"expected {SNAPSHOT_FORMAT}"
            )
        state = cls(protocol=protocol)
        recorded = snapshot.get("protocol")
        if recorded != state.key:
            raise ProtocolError(
                "snapshot was taken under a different protocol identity: "
                f"{str(recorded)[:12]}... != {state.key[:12]}..."
            )
        epochs = snapshot_object(snapshot.get("epochs", {}), "snapshot field 'epochs'")
        for name, entry in sorted(epochs.items()):
            where = f"snapshot epoch {name!r}"
            payload = snapshot_object(entry, where)
            try:
                counts = decode_array(payload.get("support_counts"), "int64")
            except ProtocolError as exc:
                raise ProtocolError(f"{where} field 'support_counts': {exc}") from exc
            if counts.shape != (protocol.domain_size,):
                raise ProtocolError(
                    f"{where} carries counts of shape {counts.shape}; expected "
                    f"({protocol.domain_size},)"
                )
            state.epochs[name] = EpochState(
                support_counts=counts,
                num_reports=snapshot_count(
                    payload.get("num_reports"), f"{where} field 'num_reports'"
                ),
                batches=snapshot_count(payload.get("batches"), f"{where} field 'batches'"),
            )
        return state


def snapshot_object(value: Any, what: str) -> dict[str, Any]:
    """``value`` if it is a JSON object, else :class:`ProtocolError` naming ``what``.

    Snapshots are read back from files, so :meth:`AggregatorState.restore`
    and :meth:`repro.serve.RecoveryService.restore` check every field
    they read before using it.
    """
    if not isinstance(value, dict):
        raise ProtocolError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def snapshot_count(value: Any, what: str) -> int:
    """``value`` if it is a non-negative integer under the cache's type rule
    (:func:`repro.sim.cache.json_typed`, so neither a bool nor an int a
    float cannot hold), else :class:`ProtocolError` naming ``what`` (see
    :func:`snapshot_object`)."""
    if not json_typed(value, int) or value < 0:
        raise ProtocolError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def fan_in(states: Sequence[AggregatorState]) -> AggregatorState:
    """Merge several collectors' states into one fresh aggregator.

    The multi-collector deployment shape: ``k`` collectors each fold a
    share of every epoch's reports, then a coordinator fans their states
    in.  The result is bound to the first state's protocol *instance* and
    is byte-equal to a single collector having ingested every batch —
    :meth:`AggregatorState.merge` is a per-epoch vector sum, so the
    collector partition and merge order cannot matter.  All states must
    share one protocol fingerprint (enforced by ``merge``).
    """
    if not states:
        raise InvalidParameterError("fan_in needs at least one aggregator state")
    merged = AggregatorState(states[0].protocol)
    for state in states:
        merged.merge(state)
    return merged


__all__ = [
    "SNAPSHOT_FORMAT",
    "AggregatorState",
    "EpochState",
    "fan_in",
    "protocol_key",
    "snapshot_count",
    "snapshot_object",
]
