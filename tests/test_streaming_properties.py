"""Algebraic properties of the streaming aggregation state and wire codec.

Two contracts pinned here (ISSUE 10 satellite 2):

* :meth:`repro.sim.AggregatorState.merge` is a commutative, associative
  monoid operation with the empty state as identity — checked over
  random partitions of random multi-epoch report streams, for every
  protocol including OLH's cohort mode, so fan-in topology can never
  change results;
* the ``encode_reports`` / ``decode_reports`` wire codec round-trips
  byte-for-byte through real JSON, and rejects malformed payloads
  (fuzzed truncations, padded lengths, foreign dtypes, missing fields)
  loudly with :class:`~repro.exceptions.ProtocolError` instead of
  mis-slicing untrusted bytes.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, ProtocolError
from repro.protocols import base, make_protocol
from repro.sim.streaming import AggregatorState, fan_in

EPSILON = 1.0
DOMAIN = 24

PROTOCOL_GRID = [
    ("grr", {}),
    ("oue", {}),
    ("olh", {}),
    ("olh", {"cohort": 8}),
]
PROTOCOL_IDS = ["grr", "oue", "olh", "olh-cohort"]


def _protocol(name, kwargs):
    return make_protocol(name, EPSILON, DOMAIN, **kwargs)


def _reports(protocol, n, seed):
    items = np.random.default_rng(seed).integers(0, DOMAIN, size=n)
    return protocol.perturb(items, np.random.default_rng(seed + 1))


def _report_arrays(protocol, reports):
    """The raw ndarrays of a batch, protocol-shape agnostic."""
    if protocol.name == "olh":
        return [reports.seeds, reports.values]
    return [np.asarray(reports)]


def _epoch_equal(a: AggregatorState, b: AggregatorState) -> None:
    assert a.epoch_names() == b.epoch_names()
    for name in a.epoch_names():
        np.testing.assert_array_equal(a.support_counts(name), b.support_counts(name))
        assert a.num_reports(name) == b.num_reports(name)
        np.testing.assert_array_equal(
            a.estimate_frequencies(name), b.estimate_frequencies(name)
        )


@pytest.mark.parametrize("name,kwargs", PROTOCOL_GRID, ids=PROTOCOL_IDS)
class TestMergeMonoid:
    def test_random_partitions_fan_in_to_the_direct_state(self, name, kwargs):
        """Any random split of any epoch across collectors merges back."""
        protocol = _protocol(name, kwargs)
        rng = np.random.default_rng(7)
        direct = AggregatorState(protocol)
        collectors = [AggregatorState(protocol) for _ in range(3)]
        for seed, epoch in enumerate(("day-0", "day-1", "day-2")):
            reports = _reports(protocol, 400 + 50 * seed, seed)
            direct.ingest(epoch, reports)
            lanes = rng.integers(0, len(collectors), size=protocol.num_reports(reports))
            for lane, state in enumerate(collectors):
                share = protocol.select_reports(reports, lanes == lane)
                if protocol.num_reports(share):
                    state.ingest(epoch, share)
        _epoch_equal(fan_in(collectors), direct)

    def test_merge_is_commutative_and_associative(self, name, kwargs):
        protocol = _protocol(name, kwargs)
        # Overlapping epoch sets, so merging actually sums shared epochs.
        parts = []
        for seed, epochs in enumerate((("a", "b"), ("b", "c"), ("a", "c"))):
            state = AggregatorState(protocol)
            for epoch in epochs:
                state.ingest(epoch, _reports(protocol, 300, 10 * seed + len(epoch)))
            parts.append(state)
        a, b, c = parts

        def fold(*states):
            out = AggregatorState(protocol)
            for state in states:
                out.merge(state)
            return out

        left = fold(fold(a, b), c)
        right = fold(a, fold(b, c))
        shuffled = fold(c, a, b)
        # Full snapshot equality: counts, report totals and batch totals.
        assert left.snapshot() == right.snapshot() == shuffled.snapshot()

    def test_empty_state_is_the_identity(self, name, kwargs):
        protocol = _protocol(name, kwargs)
        state = AggregatorState(protocol)
        state.ingest("e", _reports(protocol, 500, 3))
        before = state.snapshot()
        state.merge(AggregatorState(protocol))
        assert state.snapshot() == before
        absorbed = AggregatorState(protocol)
        absorbed.merge(state)
        assert absorbed.snapshot() == before

    def test_merge_rejects_foreign_protocol_identities(self, name, kwargs):
        state = AggregatorState(_protocol(name, kwargs))
        other = AggregatorState(make_protocol(name, EPSILON * 2, DOMAIN, **kwargs))
        with pytest.raises(ProtocolError):
            state.merge(other)
        with pytest.raises(InvalidParameterError):
            fan_in([])

    def test_chunk_users_is_execution_only_for_merge(self, name, kwargs, monkeypatch):
        """States folded in different slice sizes share one protocol
        identity, so they merge."""
        protocol = _protocol(name, kwargs)
        reports = _reports(protocol, 700, 5)
        coarse = AggregatorState(protocol)
        coarse.ingest("e", reports)
        monkeypatch.setattr(base, "DEFAULT_CHUNK_USERS", 64)
        fine = AggregatorState(protocol)
        fine.ingest("e", reports)
        merged = fan_in([coarse, fine])
        np.testing.assert_array_equal(
            merged.support_counts("e"), 2 * coarse.support_counts("e")
        )


@pytest.mark.parametrize("name,kwargs", PROTOCOL_GRID, ids=PROTOCOL_IDS)
class TestWireCodec:
    def test_round_trip_is_byte_identical_through_json(self, name, kwargs):
        protocol = _protocol(name, kwargs)
        reports = _reports(protocol, 600, 2)
        payload = json.loads(json.dumps(protocol.encode_reports(reports)))
        decoded = protocol.decode_reports(payload)
        for original, restored in zip(
            _report_arrays(protocol, reports), _report_arrays(protocol, decoded)
        ):
            assert restored.dtype == original.dtype
            assert restored.shape == original.shape
            np.testing.assert_array_equal(restored, original)
        # Re-encoding the decoded batch reproduces the exact wire bytes.
        assert protocol.encode_reports(decoded) == protocol.encode_reports(reports)
        np.testing.assert_array_equal(
            protocol.aggregate(decoded), protocol.aggregate(reports)
        )

    def test_fuzzed_truncations_and_paddings_rejected(self, name, kwargs):
        """No prefix, cut or extension of the data bytes may decode."""
        protocol = _protocol(name, kwargs)
        payload = protocol.encode_reports(_reports(protocol, 64, 4))
        rng = np.random.default_rng(0)
        for array_payload, mutate in _array_payload_sites(payload):
            raw = base64.b64decode(array_payload["data"])
            cuts = {int(c) for c in rng.integers(0, len(raw), size=8)} | {0, len(raw) - 1}
            grown = [raw + b"\x00", raw + raw[:17]]
            for bad_bytes in [raw[:cut] for cut in sorted(cuts)] + grown:
                if len(bad_bytes) == len(raw):
                    continue
                corrupt = dict(
                    array_payload,
                    data=base64.b64encode(bad_bytes).decode("ascii"),
                )
                with pytest.raises(ProtocolError):
                    protocol.decode_reports(mutate(corrupt))

    def test_foreign_dtypes_rejected(self, name, kwargs):
        protocol = _protocol(name, kwargs)
        payload = protocol.encode_reports(_reports(protocol, 32, 4))
        for array_payload, mutate in _array_payload_sites(payload):
            for dtype in ("float64", "int32", "uint8", "complex128", "object"):
                corrupt = dict(array_payload, dtype=dtype)
                with pytest.raises(ProtocolError):
                    protocol.decode_reports(mutate(corrupt))

    def test_missing_fields_rejected(self, name, kwargs):
        protocol = _protocol(name, kwargs)
        payload = protocol.encode_reports(_reports(protocol, 32, 4))
        for array_payload, mutate in _array_payload_sites(payload):
            for field in ("dtype", "shape", "data"):
                corrupt = {k: v for k, v in array_payload.items() if k != field}
                with pytest.raises(ProtocolError):
                    protocol.decode_reports(mutate(corrupt))
        with pytest.raises(ProtocolError):
            protocol.decode_reports(None)

    def test_shape_byte_count_mismatch_rejected(self, name, kwargs):
        protocol = _protocol(name, kwargs)
        payload = protocol.encode_reports(_reports(protocol, 32, 4))
        for array_payload, mutate in _array_payload_sites(payload):
            shape = list(array_payload["shape"])
            shape[0] += 1
            with pytest.raises(ProtocolError):
                protocol.decode_reports(mutate(dict(array_payload, shape=shape)))


def _array_payload_sites(payload):
    """Each wire-array sub-payload plus a function grafting a corrupted
    version of it back into a full ``decode_reports`` input."""
    if "seeds" in payload:  # OLH: two arrays side by side
        return [
            (payload["seeds"], lambda bad: {**payload, "seeds": bad}),
            (payload["values"], lambda bad: {**payload, "values": bad}),
        ]
    return [(payload, lambda bad: bad)]
