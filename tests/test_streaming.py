"""Bit-identity of the streaming aggregation core.

The contract the online service stands on: folding the same reports in
*any* chunking — through the explicit-state protocol kernel or the
per-epoch :class:`repro.sim.AggregatorState` — must equal one batch
``support_counts`` pass byte for byte, for every shipped protocol,
OLH cohort mode included.
"""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, ProtocolError
from repro.protocols import base, decode_array, encode_array, hashing, make_protocol
from repro.serve import RecoveryService
from repro.sim import AggregatorState, epochs_rows
from repro.sim.scenarios import _epoch_trial
from repro.sim.streaming import protocol_key

EPSILON = 1.0
DOMAIN = 24
USERS = 4000


def _protocols():
    """Every shipped frequency oracle, plus OLH/BLH in cohort mode."""
    params = [
        ("grr", {}),
        ("oue", {}),
        ("sue", {}),
        ("olh", {}),
        ("blh", {}),
        ("olh", {"cohort": 8}),
        ("blh", {"cohort": 8}),
    ]
    for name, kwargs in params:
        label = name + ("-cohort" if kwargs else "")
        yield pytest.param(name, kwargs, id=label)


def _reports_for(name, kwargs, seed=0):
    protocol = make_protocol(name, EPSILON, DOMAIN, **kwargs)
    items = np.random.default_rng(seed).integers(0, DOMAIN, size=USERS)
    reports = protocol.perturb(items, np.random.default_rng(seed + 1))
    return protocol, reports


class TestFoldBitIdentity:
    """The fold's slice size is the module constant
    ``base.DEFAULT_CHUNK_USERS``, read at call time, so these tests
    monkeypatch it small to exercise many slice boundaries."""

    @pytest.mark.parametrize("name,kwargs", _protocols())
    @pytest.mark.parametrize("chunk", [1, 7, 333, USERS, 10 * USERS])
    def test_fold_equals_batch_support_counts(self, name, kwargs, chunk, monkeypatch):
        protocol, reports = _reports_for(name, kwargs)
        batch = protocol.support_counts(reports)
        monkeypatch.setattr(base, "DEFAULT_CHUNK_USERS", chunk)
        folded = protocol.fold_support_counts(protocol.init_support_state(), reports)
        assert folded.dtype == np.int64
        assert np.array_equal(folded, batch)

    @pytest.mark.parametrize("name,kwargs", _protocols())
    def test_fold_equals_chunked_support_counts(self, name, kwargs, monkeypatch):
        """The fold walks the batch through ``slice_reports`` in consecutive
        slices of ``DEFAULT_CHUNK_USERS`` reports, which is what bounds its
        memory, and sums each slice's support counts."""
        protocol, reports = _reports_for(name, kwargs)
        whole_slice = protocol.slice_reports
        slices = []

        def recording(batch, start, stop):
            slices.append((start, stop))
            return whole_slice(batch, start, stop)

        protocol.slice_reports = recording
        for chunk in (5, 1000, base.DEFAULT_CHUNK_USERS):
            monkeypatch.setattr(base, "DEFAULT_CHUNK_USERS", chunk)
            slices.clear()
            folded = protocol.fold_support_counts(protocol.init_support_state(), reports)
            assert slices == [
                (start, min(start + chunk, USERS)) for start in range(0, USERS, chunk)
            ]
            chunked = protocol.init_support_state()
            for start, stop in slices:
                chunked += protocol.support_counts(whole_slice(reports, start, stop))
            assert np.array_equal(folded, chunked)

    @pytest.mark.parametrize("name,kwargs", _protocols())
    @pytest.mark.parametrize("split", [1, 11, 901, USERS])
    def test_arbitrary_batch_splits_fold_identically(self, name, kwargs, split, monkeypatch):
        protocol, reports = _reports_for(name, kwargs)
        batch = protocol.support_counts(reports)
        state = protocol.init_support_state()
        monkeypatch.setattr(base, "DEFAULT_CHUNK_USERS", 137)
        for start in range(0, USERS, split):
            protocol.fold_support_counts(
                state, protocol.slice_reports(reports, start, min(start + split, USERS))
            )
        assert np.array_equal(state, batch)

    def test_fold_accumulates_in_place(self):
        protocol, reports = _reports_for("grr", {})
        state = protocol.init_support_state()
        out = protocol.fold_support_counts(state, reports)
        assert out is state

    def test_fold_rejects_bad_state(self):
        protocol, reports = _reports_for("grr", {})
        with pytest.raises(ProtocolError):
            protocol.fold_support_counts(np.zeros(DOMAIN + 1, dtype=np.int64), reports)
        with pytest.raises(ProtocolError):
            protocol.fold_support_counts(np.zeros(DOMAIN, dtype=np.float64), reports)

    def test_slice_size_is_no_parameter(self):
        """``chunk_users`` means only the chunked trial mode: the fold, the
        streaming state, the service and the epochs scenario take no slice
        size."""
        protocol, reports = _reports_for("grr", {})
        with pytest.raises(TypeError):
            protocol.fold_support_counts(
                protocol.init_support_state(), reports, chunk_users=0
            )
        for fn in (
            AggregatorState,
            AggregatorState.restore,
            RecoveryService,
            RecoveryService.restore,
            epochs_rows,
            _epoch_trial,
        ):
            assert "chunk_users" not in inspect.signature(fn).parameters, fn

    def test_scan_bounded_caps_olh_grid_without_changing_counts(self, monkeypatch):
        """OLH's scan tile bounds the hash grid independently of the fold's
        slice size; neither changes the folded counts."""
        protocol, reports = _reports_for("olh", {})
        batch = protocol.support_counts(reports)
        monkeypatch.setattr(hashing, "TILE_CELLS", 3 * DOMAIN - 1)
        for chunk in (1, 3, 50, USERS):
            monkeypatch.setattr(base, "DEFAULT_CHUNK_USERS", chunk)
            folded = protocol.fold_support_counts(protocol.init_support_state(), reports)
            assert np.array_equal(folded, batch)


class TestWireCodec:
    @pytest.mark.parametrize("name,kwargs", _protocols())
    def test_round_trip_is_byte_equal(self, name, kwargs):
        protocol, reports = _reports_for(name, kwargs)
        payload = json.loads(json.dumps(protocol.encode_reports(reports)))
        decoded = protocol.decode_reports(payload)
        assert protocol.num_reports(decoded) == USERS
        assert np.array_equal(
            protocol.support_counts(decoded), protocol.support_counts(reports)
        )

    def test_encode_array_rejects_foreign_dtypes(self):
        with pytest.raises(ProtocolError):
            encode_array(np.zeros(3, dtype=np.float64))

    def test_decode_array_rejects_tampered_payloads(self):
        payload = encode_array(np.arange(4, dtype=np.int64))
        wrong_len = dict(payload, shape=[5])
        with pytest.raises(ProtocolError):
            decode_array(wrong_len, "int64")
        wrong_dtype = dict(payload, dtype="float64")
        with pytest.raises(ProtocolError):
            decode_array(wrong_dtype, "int64")
        with pytest.raises(ProtocolError):
            decode_array(payload, "uint64")
        with pytest.raises(ProtocolError):
            decode_array({"nope": 1}, "int64")

    def test_decoded_arrays_are_writable(self):
        decoded = decode_array(encode_array(np.arange(4, dtype=np.int64)), "int64")
        decoded += 1  # would raise on a read-only frombuffer view
        assert decoded[0] == 1


class TestAggregatorState:
    @pytest.mark.parametrize("name,kwargs", _protocols())
    def test_ingest_matches_batch(self, name, kwargs, monkeypatch):
        protocol, reports = _reports_for(name, kwargs)
        monkeypatch.setattr(base, "DEFAULT_CHUNK_USERS", 256)
        agg = AggregatorState(protocol)
        for start in range(0, USERS, 707):
            agg.ingest(
                "round-1",
                protocol.slice_reports(reports, start, min(start + 707, USERS)),
            )
        assert np.array_equal(
            agg.support_counts("round-1"), protocol.support_counts(reports)
        )
        assert agg.num_reports("round-1") == USERS
        assert np.array_equal(
            agg.estimate_frequencies("round-1"), protocol.aggregate(reports)
        )

    def test_epochs_are_independent(self):
        protocol, reports = _reports_for("oue", {})
        agg = AggregatorState(protocol)
        agg.ingest("a", protocol.slice_reports(reports, 0, 1000))
        agg.ingest("b", protocol.slice_reports(reports, 1000, 4000))
        assert agg.num_reports("a") == 1000
        assert agg.num_reports("b") == 3000
        assert agg.epoch_names() == ["a", "b"]
        total = agg.support_counts("a") + agg.support_counts("b")
        assert np.array_equal(total, protocol.support_counts(reports))

    @pytest.mark.parametrize("name,kwargs", _protocols())
    def test_merge_equals_single_stream(self, name, kwargs):
        protocol, reports = _reports_for(name, kwargs)
        left = AggregatorState(protocol)
        right = AggregatorState(protocol)
        left.ingest("e", protocol.slice_reports(reports, 0, 1500))
        right.ingest("e", protocol.slice_reports(reports, 1500, USERS))
        right.ingest("only-right", protocol.slice_reports(reports, 0, 10))
        left.merge(right)
        assert np.array_equal(
            left.support_counts("e"), protocol.support_counts(reports)
        )
        assert left.num_reports("e") == USERS
        assert left.num_reports("only-right") == 10

    def test_merge_rejects_protocol_mismatch(self):
        a = AggregatorState(make_protocol("olh", EPSILON, DOMAIN, cohort=8))
        b = AggregatorState(make_protocol("olh", EPSILON, DOMAIN))
        with pytest.raises(ProtocolError):
            a.merge(b)

    @pytest.mark.parametrize("name,kwargs", _protocols())
    def test_snapshot_restore_resumes_mid_stream(self, name, kwargs):
        protocol, reports = _reports_for(name, kwargs)
        straight = AggregatorState(protocol)
        straight.ingest("e", reports)

        interrupted = AggregatorState(protocol)
        interrupted.ingest("e", protocol.slice_reports(reports, 0, 2500))
        snap = json.loads(json.dumps(interrupted.snapshot()))
        resumed = AggregatorState.restore(snap, protocol)
        resumed.ingest("e", protocol.slice_reports(reports, 2500, USERS))

        assert np.array_equal(
            resumed.support_counts("e"), straight.support_counts("e")
        )
        assert resumed.num_reports("e") == straight.num_reports("e")

    def test_restore_ignores_a_recorded_slice_size(self):
        """Snapshots written while the fold slice was configurable carry a
        ``"chunk_users"`` key; they restore and resume byte-equal, and new
        snapshots no longer record one."""
        protocol, reports = _reports_for("olh", {"cohort": 8})
        interrupted = AggregatorState(protocol)
        interrupted.ingest("e", protocol.slice_reports(reports, 0, 2500))
        snap = json.loads(json.dumps(interrupted.snapshot()))
        assert "chunk_users" not in snap
        snap["chunk_users"] = 13
        resumed = AggregatorState.restore(snap, protocol)
        resumed.ingest("e", protocol.slice_reports(reports, 2500, USERS))
        counts = resumed.support_counts("e")
        assert counts.dtype == np.int64
        assert counts.tobytes() == protocol.support_counts(reports).tobytes()
        assert resumed.num_reports("e") == USERS

    def test_restore_rejects_wrong_protocol(self):
        protocol, reports = _reports_for("olh", {"cohort": 8})
        agg = AggregatorState(protocol)
        agg.ingest("e", reports)
        snap = agg.snapshot()
        with pytest.raises(ProtocolError):
            AggregatorState.restore(snap, make_protocol("olh", EPSILON, DOMAIN))

    def test_restore_rejects_unknown_format(self):
        protocol = make_protocol("grr", EPSILON, DOMAIN)
        snap = AggregatorState(protocol).snapshot()
        snap["format"] = 999
        with pytest.raises(InvalidParameterError):
            AggregatorState.restore(snap, protocol)

    def test_chunk_users_is_execution_only(self, monkeypatch):
        """The fold's slice size shapes execution only: states folded in
        different slice sizes hold equal counts and write equal snapshots."""
        protocol, reports = _reports_for("olh", {})
        coarse = AggregatorState(protocol)
        coarse.ingest("e", reports)
        monkeypatch.setattr(base, "DEFAULT_CHUNK_USERS", 13)
        fine = AggregatorState(protocol)
        fine.ingest("e", reports)
        assert np.array_equal(coarse.support_counts("e"), fine.support_counts("e"))
        assert fine.snapshot() == coarse.snapshot()

    def test_protocol_key_tracks_distribution_not_execution(self):
        base = make_protocol("olh", EPSILON, DOMAIN)
        assert protocol_key(base) == protocol_key(make_protocol("olh", EPSILON, DOMAIN))
        assert protocol_key(base) != protocol_key(base.with_cohort(8))
        assert protocol_key(base) != protocol_key(make_protocol("blh", EPSILON, DOMAIN))
