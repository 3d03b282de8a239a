"""Algebraic properties of the streaming aggregation state and wire codec.

Two contracts pinned here:

* :meth:`repro.sim.AggregatorState.merge` is a commutative, associative
  monoid operation with the empty state as identity — checked over
  random partitions of random multi-epoch report streams, for every
  protocol including OLH's cohort mode, so fan-in topology can never
  change results;
* the ``encode_reports`` / ``decode_reports`` wire codec round-trips
  byte-for-byte through real JSON in its compact forms (GRR items in the
  narrowest unsigned dtype holding ``d - 1``, OUE/SUE ``np.packbits``
  rows, OLH seed/value pairs), at the domain sizes where GRR's dtype
  steps and OUE rows gain padding, and rejects every malformed payload
  (fuzzed truncations and paddings, every foreign dtype, the old
  ``int64``/``bool`` forms, forged shapes, wrong row widths, set padding
  bits, items or values out of range, batches over the decoded-size
  bound, missing fields) loudly with
  :class:`~repro.exceptions.ProtocolError` instead of mis-slicing
  untrusted bytes.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, ProtocolError
from repro.protocols import OLHReports, base, encode_array, make_protocol
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
    items = np.random.default_rng(seed).integers(0, protocol.domain_size, size=n)
    return protocol.perturb(items, np.random.default_rng(seed + 1))


def _report_arrays(reports):
    """The raw ndarrays of a batch, protocol-shape agnostic."""
    if isinstance(reports, OLHReports):
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


#: The codec grid: the d = 24 rows keep the monoid grid's ids, the rest
#: sit where the compact forms change: GRR's wire dtype steps from uint8
#: to uint16 past d = 256 and to uint32 past d = 65,536, and OUE/SUE rows
#: carry padding bits when d % 8 != 0.
CODEC_GRID = [
    pytest.param("grr", {}, DOMAIN, id="grr"),
    pytest.param("oue", {}, DOMAIN, id="oue"),
    pytest.param("olh", {}, DOMAIN, id="olh"),
    pytest.param("olh", {"cohort": 8}, DOMAIN, id="olh-cohort"),
    pytest.param("blh", {}, DOMAIN, id="blh"),
    *(pytest.param("grr", {}, d, id=f"grr-d{d}") for d in (2, 256, 257, 1024, 65_537)),
    *(
        pytest.param(name, {}, d, id=f"{name}-d{d}")
        for name in ("oue", "sue")
        for d in (8, 9, 102, 1024)
    ),
]


def _codec_protocol(name, kwargs, d):
    return make_protocol(name, EPSILON, d, **kwargs)


def _edge_reports(protocol, n, seed):
    """Perturbed reports plus crafted ones supporting items 0 and d - 1
    (and, for unary encodings, a row with every bit on)."""
    d = protocol.domain_size
    reports = protocol.concat_reports(
        _reports(protocol, n, seed), protocol.craft_supporting(np.array([0, d - 1]))
    )
    if protocol.name in ("oue", "sue"):
        reports = protocol.concat_reports(reports, np.ones((1, d), dtype=bool))
    return reports


def _wire_form(name, d):
    """The compact form: (bytes per report, dtype of each array site).
    GRR items take 1, 2 or 4 bytes, OUE/SUE one packed bit per item,
    OLH/BLH an 8-byte seed beside an 8-byte value."""
    if name == "grr":
        return (1, ["uint8"]) if d <= 256 else (2, ["uint16"]) if d <= 65_536 else (4, ["uint32"])
    if name in ("oue", "sue"):
        return -(-d // 8), ["uint8"]
    return 16, ["uint64", "int64"]


def _decoded_bytes_per_report(name, d):
    """In-memory size of one decoded report: an int64 item, a row of d
    bools, a uint64 seed beside an int64 value."""
    return {"grr": 8, "oue": d, "sue": d}.get(name, 16)


def _dtype_names():
    """Every dtype spelling numpy knows: canonical names, scalar-type
    aliases, one-letter type codes and each type's byte-ordered form."""
    names = set(np.sctypeDict) | set(np.typecodes["All"])
    for scalar in set(np.sctypeDict.values()):
        dtype = np.dtype(scalar)
        names |= {str(dtype), dtype.str, dtype.newbyteorder().str}
    return sorted(names)


DTYPE_NAMES = _dtype_names()


def _with_data(site, raw):
    return dict(site, data=base64.b64encode(bytes(raw)).decode("ascii"))


@pytest.mark.parametrize("name,kwargs,d", CODEC_GRID)
class TestWireCodec:
    def test_round_trip_is_byte_identical_through_json(self, name, kwargs, d):
        protocol = _codec_protocol(name, kwargs, d)
        reports = _edge_reports(protocol, 600, 2)
        payload = json.loads(json.dumps(protocol.encode_reports(reports)))
        decoded = protocol.decode_reports(payload)
        for original, restored in zip(_report_arrays(reports), _report_arrays(decoded)):
            assert restored.dtype == original.dtype
            assert restored.shape == original.shape
            np.testing.assert_array_equal(restored, original)
        # Re-encoding the decoded batch reproduces the exact wire bytes.
        assert protocol.encode_reports(decoded) == protocol.encode_reports(reports)
        np.testing.assert_array_equal(
            protocol.aggregate(decoded), protocol.aggregate(reports)
        )

    def test_compact_size_per_report(self, name, kwargs, d):
        protocol = _codec_protocol(name, kwargs, d)
        n = 40
        payload = protocol.encode_reports(_reports(protocol, n, 5))
        sites = [site for site, _ in _array_payload_sites(payload)]
        per_report, dtypes = _wire_form(name, d)
        assert sum(len(base64.b64decode(site["data"])) for site in sites) == n * per_report
        assert [site["dtype"] for site in sites] == dtypes
        if name in ("oue", "sue"):
            assert sites[0]["shape"] == [n, per_report]

    def test_fuzzed_truncations_and_paddings_rejected(self, name, kwargs, d):
        """No prefix, cut or extension of the data bytes may decode."""
        protocol = _codec_protocol(name, kwargs, d)
        payload = protocol.encode_reports(_reports(protocol, 64, 4))
        rng = np.random.default_rng(0)
        for array_payload, mutate in _array_payload_sites(payload):
            raw = base64.b64decode(array_payload["data"])
            cuts = {int(c) for c in rng.integers(0, len(raw), size=8)} | {0, len(raw) - 1}
            grown = [raw + b"\x00", raw + raw[:17]]
            for bad_bytes in [raw[:cut] for cut in sorted(cuts)] + grown:
                if len(bad_bytes) == len(raw):
                    continue
                with pytest.raises(ProtocolError):
                    protocol.decode_reports(mutate(_with_data(array_payload, bad_bytes)))

    def test_foreign_dtypes_rejected(self, name, kwargs, d):
        """Each site accepts exactly the dtype it emits: every other dtype
        spelling numpy knows (other spellings of that same dtype, such as
        ``"u2"`` for ``"uint16"``, included) and non-strings are refused."""
        protocol = _codec_protocol(name, kwargs, d)
        payload = protocol.encode_reports(_reports(protocol, 32, 4))
        for array_payload, mutate in _array_payload_sites(payload):
            emitted = array_payload["dtype"]
            assert emitted in base.WIRE_DTYPES
            for dtype in [*DTYPE_NAMES, None, 8, [emitted]]:
                if dtype == emitted:
                    continue
                corrupt = dict(array_payload, dtype=dtype)
                with pytest.raises(ProtocolError, match="refusing wire dtype"):
                    protocol.decode_reports(mutate(corrupt))

    def test_missing_fields_rejected(self, name, kwargs, d):
        protocol = _codec_protocol(name, kwargs, d)
        payload = protocol.encode_reports(_reports(protocol, 32, 4))
        for array_payload, mutate in _array_payload_sites(payload):
            for field in ("dtype", "shape", "data"):
                corrupt = {k: v for k, v in array_payload.items() if k != field}
                with pytest.raises(ProtocolError):
                    protocol.decode_reports(mutate(corrupt))
        with pytest.raises(ProtocolError):
            protocol.decode_reports(None)

    def test_shape_byte_count_mismatch_rejected(self, name, kwargs, d):
        protocol = _codec_protocol(name, kwargs, d)
        payload = protocol.encode_reports(_reports(protocol, 32, 4))
        for array_payload, mutate in _array_payload_sites(payload):
            shape = list(array_payload["shape"])
            shape[0] += 1
            with pytest.raises(ProtocolError):
                protocol.decode_reports(mutate(dict(array_payload, shape=shape)))

    def test_forged_shapes_rejected(self, name, kwargs, d):
        """Only a list of non-negative plain ints is a shape: infinities,
        huge floats, strings, booleans and fractions are never coerced
        (``"12"`` once read as ``(1, 2)``, ``[true]`` as ``(1,)``)."""
        protocol = _codec_protocol(name, kwargs, d)
        payload = protocol.encode_reports(_reports(protocol, 12, 4))
        for array_payload, mutate in _array_payload_sites(payload):
            n, *rest = array_payload["shape"]
            forged = [
                [float("inf")], [1e30], "12", [True], [2.5], [-1], None, 12,
                [[n]], {"0": n}, [float(n), *rest], [n, *rest, 1], [],
            ]
            if rest:  # packed rows: a float row width too
                forged.append([n, float(rest[0])])
            for shape in forged:
                # Through JSON text, as an ingest body arrives: ``inf``
                # travels as ``Infinity`` and ``1e30`` as a float.
                corrupt = json.loads(json.dumps(mutate(dict(array_payload, shape=shape))))
                with pytest.raises(ProtocolError, match="shape"):
                    protocol.decode_reports(corrupt)

    def test_wrong_row_width_rejected(self, name, kwargs, d):
        """A row width or rank other than the protocol's is refused even when
        the data holds exactly the bytes the forged shape needs."""
        protocol = _codec_protocol(name, kwargs, d)
        payload = protocol.encode_reports(_reports(protocol, 12, 4))
        for array_payload, mutate in _array_payload_sites(payload):
            raw = base64.b64decode(array_payload["data"])
            itemsize = np.dtype(array_payload["dtype"]).itemsize
            n, *rest = array_payload["shape"]
            if rest:  # packed rows: (n, width)
                width = rest[0]
                forged = [[n * width], [n, width, 1], [n, width + 1], [n, width - 1]]
            else:
                forged = [[n, 1], [n, 1, 1]]
            for shape in forged:
                need = int(np.prod(shape)) * itemsize
                corrupt = _with_data(dict(array_payload, shape=shape), (raw * 2)[:need])
                with pytest.raises(ProtocolError, match="is not \\[n"):
                    protocol.decode_reports(mutate(corrupt))

    def test_decoded_size_bound(self, name, kwargs, d, monkeypatch):
        """The bound is on the in-memory batch (int64 items, unpacked rows),
        checked from the declared shape before any base64 is decoded."""
        protocol = _codec_protocol(name, kwargs, d)
        n = 12
        reports = _reports(protocol, n, 4)
        payload = protocol.encode_reports(reports)
        decoded = n * _decoded_bytes_per_report(name, d)
        monkeypatch.setattr(base, "MAX_DECODED_BYTES", decoded)
        np.testing.assert_array_equal(
            protocol.support_counts(protocol.decode_reports(payload)),
            protocol.support_counts(reports),
        )
        monkeypatch.setattr(base, "MAX_DECODED_BYTES", decoded - 1)
        for array_payload, mutate in _array_payload_sites(payload):
            # Data that is not even base64: the bound must fire first.
            corrupt = dict(array_payload, data="!")
            with pytest.raises(ProtocolError, match="byte limit; split the batch"):
                protocol.decode_reports(mutate(corrupt))
        monkeypatch.undo()
        for array_payload, mutate in _array_payload_sites(payload):
            rows = base.MAX_DECODED_BYTES // _decoded_bytes_per_report(name, d) + 1
            shape = [rows, *array_payload["shape"][1:]]
            with pytest.raises(ProtocolError, match="byte limit; split the batch"):
                protocol.decode_reports(mutate(dict(array_payload, shape=shape)))


@pytest.mark.parametrize(
    "name,d", [("grr", d) for d in (2, 257, 1024, 65_537)] + [("oue", 9), ("sue", 1024)]
)
def test_old_wide_forms_rejected_naming_the_expected_dtype(name, d):
    """GRR's int64 items and OUE's one-byte-per-bit rows are gone from the
    wire (OLH kept its seed/value form)."""
    protocol = make_protocol(name, EPSILON, d)
    reports = _reports(protocol, 32, 4)
    if name == "grr":
        old = encode_array(np.asarray(reports, dtype=np.int64))
    else:
        bits = np.asarray(reports, dtype=bool)
        old = {
            "dtype": "bool",
            "shape": list(bits.shape),
            "data": base64.b64encode(bits.tobytes()).decode("ascii"),
        }
    emitted = protocol.encode_reports(reports)["dtype"]
    with pytest.raises(ProtocolError, match=f"expected '{emitted}'"):
        protocol.decode_reports(json.loads(json.dumps(old)))


def _grr_items_payload(protocol, values):
    items = np.zeros(8, dtype=np.int64)
    payload = protocol.encode_reports(items)
    raw = np.frombuffer(base64.b64decode(payload["data"]), dtype=payload["dtype"]).copy()
    raw[3] = values
    return _with_data(payload, raw.tobytes())


@pytest.mark.parametrize("d", [2, DOMAIN, 256, 257, 1024, 65_537])
def test_grr_items_at_or_above_d_rejected(d):
    """Every item the wire dtype can carry at or above d is refused; at
    d = 256 the uint8 dtype carries none."""
    protocol = make_protocol("grr", EPSILON, d)
    top = int(np.iinfo(protocol.wire_dtype).max)
    decoded = protocol.decode_reports(_grr_items_payload(protocol, d - 1))
    assert decoded.dtype == np.int64 and decoded[3] == d - 1
    bad = sorted({v for v in (d, d + 1, top) if d <= v <= top})
    if d == 256:
        assert not bad and top == d - 1
    for value in bad:
        with pytest.raises(ProtocolError, match=f"must lie in \\[0, {d}\\)"):
            protocol.decode_reports(_grr_items_payload(protocol, value))


@pytest.mark.parametrize("name", ["oue", "sue"])
@pytest.mark.parametrize("d", [9, 102, 1_023])
def test_each_padding_bit_rejected(name, d):
    """Rows end in ``8 - d % 8`` padding bits; setting any single one of
    them, in any row, is refused."""
    protocol = make_protocol(name, EPSILON, d)
    n = 5
    payload = protocol.encode_reports(_reports(protocol, n, 6))
    packed = np.frombuffer(base64.b64decode(payload["data"]), dtype=np.uint8).reshape(n, -1)
    assert packed.shape[1] == -(-d // 8)
    assert not np.any(packed[:, -1] & (0xFF >> (d % 8)))
    for row in range(n):
        for bit in range(8 - d % 8):
            forged = packed.copy()
            forged[row, -1] |= 1 << bit
            with pytest.raises(ProtocolError, match="padding bits"):
                protocol.decode_reports(_with_data(payload, forged.tobytes()))
    # The last real item's bit is not padding.
    forged = packed.copy()
    forged[:, -1] |= 1 << (8 - d % 8)
    assert protocol.decode_reports(_with_data(payload, forged.tobytes()))[:, d - 1].all()


@pytest.mark.parametrize("name,kwargs", [("olh", {}), ("olh", {"cohort": 8}), ("blh", {})])
def test_olh_values_outside_the_hashed_range_rejected(name, kwargs):
    """Values must lie in [0, g) and seeds be uint64: a value outside the
    range supports no item yet would count toward n."""
    protocol = make_protocol(name, EPSILON, DOMAIN, **kwargs)
    reports = _reports(protocol, 16, 8)
    g = protocol.g
    for value, accepted in ((0, True), (g - 1, True), (g, False), (g + 1000, False), (-1000, False)):
        values = reports.values.copy()
        values[5] = value
        payload = protocol.encode_reports(OLHReports(seeds=reports.seeds, values=values))
        if accepted:
            assert protocol.decode_reports(payload).values[5] == value
        else:
            with pytest.raises(ProtocolError, match=f"must lie in \\[0, {g}\\)"):
                protocol.decode_reports(payload)
    payload = protocol.encode_reports(reports)
    int64_seeds = encode_array(reports.seeds.astype(np.int64))
    with pytest.raises(ProtocolError, match="expected 'uint64'"):
        protocol.decode_reports({**payload, "seeds": int64_seeds})


def _array_payload_sites(payload):
    """Each wire-array sub-payload plus a function grafting a corrupted
    version of it back into a full ``decode_reports`` input."""
    if "seeds" in payload:  # OLH: two arrays side by side
        return [
            (payload["seeds"], lambda bad: {**payload, "seeds": bad}),
            (payload["values"], lambda bad: {**payload, "values": bad}),
        ]
    return [(payload, lambda bad: bad)]
