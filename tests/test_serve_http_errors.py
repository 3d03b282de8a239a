"""Error-path behavior of the HTTP front end (:mod:`repro.serve.http`).

The happy paths live in ``test_serve.py``; this module pins the failure
modes a long-lived deployment actually hits:

* an oversized request body is answered with a JSON ``413`` *before* the
  connection closes — never buffered, never silently dropped;
* a syntactically broken (truncated) JSON body mid-keep-alive yields a
  ``400`` and leaves the connection usable for subsequent requests;
* an ingest body nested too deeply for the JSON parser answers ``400``
  and leaves ``/stats`` unchanged, while a ``RecursionError`` from any
  other handler still answers ``500``;
* snapshot-directory corruption on ``--resume``: unparseable files
  (nested too deeply for the parser included) are skipped to the newest
  intact snapshot, while a parseable-but-invalid snapshot fails the CLI
  fast with exit code 2;
* ingests racing a ``/frequencies`` recompute over concurrent
  connections interleave without corrupting state — the final views are
  byte-equal to an uncontended service fed the same reports;
* target items outside the domain (``d``, ``-1``, ``2**70``) answer 400
  on every protocol and method, and never key a cached view;
* a ``Content-Length`` that is not a plain decimal number answers a JSON
  ``400`` and closes, and the server keeps serving new connections;
* a request line or header line over the line limit, or more header
  lines than ``MAX_HEADERS``, answers a JSON ``431`` and closes, with no
  traceback logged;
* a forged snapshot whose epoch entry lacks a field, is not an object or
  declares a shape that is not a list of plain ints makes ``serve
  --resume`` exit 2 with one error line, and restore names whichever
  snapshot field was forged;
* every forged wire batch (old wide forms, forged shapes, wrong row
  widths, set padding bits, out-of-range items and values, batches over
  the decoded-size bound) answers ``400``, never ``500``, and leaves the
  ``/stats`` counters unchanged.
"""

from __future__ import annotations

import asyncio
import base64
import json
import logging
import re

import numpy as np
import pytest

from repro.attacks import MGAAttack
from repro.cli import main
from repro.exceptions import ProtocolError
from repro.protocols import OLHReports, encode_array, make_protocol
from repro.protocols.base import MAX_DECODED_BYTES
from repro.serve import RecoveryHTTPServer, RecoveryService, SnapshotStore
from repro.serve.http import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES

EPSILON = 1.0
DOMAIN = 16
USERS = 2_000
TARGETS = [1, 2]


def _poisoned_reports(seed=0):
    protocol = make_protocol("oue", EPSILON, DOMAIN)
    items = np.random.default_rng(seed).integers(0, DOMAIN, size=USERS)
    genuine = protocol.perturb(items, np.random.default_rng(seed + 1))
    attack = MGAAttack(domain_size=DOMAIN, targets=TARGETS, rng=seed + 2)
    malicious = attack.craft(protocol, 100, np.random.default_rng(seed + 3))
    return protocol, protocol.concat_reports(genuine, malicious)


async def _read_response(reader):
    """One framed JSON response off the stream: (status, headers, doc)."""
    status_line = await reader.readline()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, json.loads(payload)


async def _request(reader, writer, method, path, body=None, raw_body=None):
    data = raw_body if raw_body is not None else (
        b"" if body is None else json.dumps(body).encode("utf-8")
    )
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(data)}\r\n\r\n"
    writer.write(head.encode("latin-1") + data)
    await writer.drain()
    return await _read_response(reader)


class TestOversizedBody:
    def test_oversized_body_gets_413_then_close(self):
        protocol, _ = _poisoned_reports()

        async def scenario():
            server = RecoveryHTTPServer(RecoveryService(protocol))
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            head = (
                "POST /ingest HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
            )
            writer.write(head.encode("latin-1"))
            await writer.drain()
            status, headers, doc = await _read_response(reader)
            assert status == 413
            assert headers["connection"] == "close"
            assert "exceeds" in doc["error"]
            # The body was never read, so the server must close the stream.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(scenario())

    def test_body_at_the_limit_is_not_rejected_for_size(self):
        """A Content-Length of exactly MAX_BODY_BYTES passes the gate.

        Sent with a tiny *actual* body and Connection: close so nothing
        blocks: the 413 gate fires on the declared length alone, and a
        non-413 outcome proves the declared maximum was accepted.
        """
        protocol, _ = _poisoned_reports()

        async def scenario():
            server = RecoveryHTTPServer(RecoveryService(protocol))
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            head = (
                "POST /ingest HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                f"Content-Length: {MAX_BODY_BYTES}\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + b"{}")
            writer.write_eof()
            await writer.drain()
            # readexactly hits EOF mid-body; the server just drops the
            # connection (no response), which is specifically NOT a 413.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(scenario())


class TestMalformedContentLength:
    """The body of such a request cannot be framed, so, like the 413
    path, the server answers and closes instead of raising out of the
    connection callback (which left the client an empty reply)."""

    @pytest.mark.parametrize("declared", ["abc", "-5", "1e3", "+5", "1_000", "\u0663"])
    def test_answers_400_then_close_and_stays_live(self, declared):
        protocol, _ = _poisoned_reports()
        service = RecoveryService(protocol)

        async def scenario():
            server = RecoveryHTTPServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            head = (
                "POST /ingest HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {declared}\r\n\r\n"
            )
            # EOF after the head: a server that mis-framed the body and
            # waits for more bytes fails here instead of hanging the test.
            writer.write(head.encode("utf-8") + b"{}")
            writer.write_eof()
            await writer.drain()
            status, headers, doc = await _read_response(reader)
            assert status == 400
            assert headers["connection"] == "close"
            assert "malformed Content-Length" in doc["error"]
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            status, _, doc = await _request(reader, writer, "GET", "/healthz")
            assert (status, doc) == (200, {"status": "ok"})
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(scenario())
        assert service.ingested_reports == 0


class TestOverlongLines:
    """asyncio's ``readline`` raises ``ValueError`` past its limit; that
    used to escape the connection callback, leaving the client an empty
    reply and the log a traceback."""

    @pytest.mark.parametrize("where", ["request line", "header line"])
    def test_answers_431_then_close_and_stays_live(self, where, caplog):
        protocol, _ = _poisoned_reports()
        pad = "x" * (100 * 1024)
        assert len(pad) > MAX_LINE_BYTES
        if where == "request line":
            head = f"GET /healthz?pad={pad} HTTP/1.1\r\nHost: t\r\n\r\n"
        else:
            head = f"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {pad}\r\n\r\n"

        async def scenario():
            server = RecoveryHTTPServer(RecoveryService(protocol))
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(head.encode("latin-1"))
            await writer.drain()
            status, headers, doc = await _read_response(reader)
            assert status == 431
            assert headers["connection"] == "close"
            assert doc["error"] == f"{where} exceeds the {MAX_LINE_BYTES}-byte limit"
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            status, _, doc = await _request(reader, writer, "GET", "/healthz")
            assert (status, doc) == (200, {"status": "ok"})
            writer.close()
            await writer.wait_closed()
            await server.stop()

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            asyncio.run(scenario())
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR or r.exc_info]


class TestHeaderFlood:
    """Headers were read into an unbounded dict; past ``MAX_HEADERS``
    lines the request is answered 431 and the connection closed."""

    @staticmethod
    def _head(header_lines):
        extra = "".join(f"X-Flood-{i}: v\r\n" for i in range(header_lines - 1))
        return f"GET /healthz HTTP/1.1\r\nHost: t\r\n{extra}\r\n"

    def test_at_the_cap_is_served(self):
        protocol, _ = _poisoned_reports()

        async def scenario():
            server = RecoveryHTTPServer(RecoveryService(protocol))
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(self._head(MAX_HEADERS).encode("latin-1"))
            await writer.drain()
            status, headers, doc = await _read_response(reader)
            assert (status, doc) == (200, {"status": "ok"})
            assert headers["connection"] == "keep-alive"
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("header_lines", [MAX_HEADERS + 1, 4 * MAX_HEADERS])
    def test_flood_answers_431_then_close_and_stays_live(self, header_lines, caplog):
        protocol, _ = _poisoned_reports()

        async def scenario():
            server = RecoveryHTTPServer(RecoveryService(protocol))
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(self._head(header_lines).encode("latin-1"))
            await writer.drain()
            status, headers, doc = await _read_response(reader)
            assert status == 431
            assert headers["connection"] == "close"
            assert doc["error"] == f"request has more than {MAX_HEADERS} header lines"
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            status, _, doc = await _request(reader, writer, "GET", "/healthz")
            assert (status, doc) == (200, {"status": "ok"})
            writer.close()
            await writer.wait_closed()
            await server.stop()

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            asyncio.run(scenario())
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR or r.exc_info]


class TestTruncatedJSONMidKeepAlive:
    def test_truncated_body_is_400_and_connection_survives(self):
        protocol, reports = _poisoned_reports()
        n = protocol.num_reports(reports)

        async def scenario():
            server = RecoveryHTTPServer(RecoveryService(protocol))
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            batch = {"epoch": "e", "reports": protocol.encode_reports(reports)}
            status, _, doc = await _request(reader, writer, "POST", "/ingest", batch)
            assert status == 200 and doc["total_reports"] == n

            # The same payload cut mid-document: framing is intact
            # (Content-Length matches what is sent), the JSON is not.
            whole = json.dumps(batch).encode("utf-8")
            for cut in (len(whole) // 2, len(whole) - 1, 1):
                status, _, doc = await _request(
                    reader, writer, "POST", "/ingest", raw_body=whole[:cut]
                )
                assert status == 400
                assert "malformed" in doc["error"] or "error" in doc

            # Keep-alive survived all three malformed bodies.
            status, _, doc = await _request(reader, writer, "GET", "/healthz")
            assert (status, doc) == (200, {"status": "ok"})
            status, _, doc = await _request(reader, writer, "POST", "/ingest", batch)
            assert status == 200 and doc["total_reports"] == 2 * n
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(scenario())


class TestDeeplyNestedBody:
    def test_answers_400_leaves_stats_unchanged_and_stays_live(self):
        protocol, reports = _poisoned_reports()
        n = protocol.num_reports(reports)
        depth = 200_000
        nested = b'{"epoch": "e", "reports": ' + b"[" * depth + b"]" * depth + b"}"

        async def scenario():
            server = RecoveryHTTPServer(RecoveryService(protocol))
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            batch = {"epoch": "e", "reports": protocol.encode_reports(reports)}
            status, _, _doc = await _request(reader, writer, "POST", "/ingest", batch)
            assert status == 200
            _, _, before = await _request(reader, writer, "GET", "/stats")
            status, headers, doc = await _request(
                reader, writer, "POST", "/ingest", raw_body=nested
            )
            assert status == 400 and headers["content-type"] == "application/json"
            assert "nested too deeply" in doc["error"]
            _, _, after = await _request(reader, writer, "GET", "/stats")
            before.pop("uptime_seconds")
            after.pop("uptime_seconds")
            assert after == before
            status, _, doc = await _request(reader, writer, "POST", "/ingest", batch)
            assert status == 200 and doc["total_reports"] == 2 * n
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(scenario())

    def test_recursion_error_elsewhere_is_still_500(self, monkeypatch):
        protocol, _ = _poisoned_reports()
        service = RecoveryService(protocol)

        def recurse():
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(service, "stats", recurse)
        status, doc = RecoveryHTTPServer(service)._dispatch("GET", "/stats", b"")
        assert status == 500 and "RecursionError" in doc["error"]


class TestSnapshotDirCorruptionOnResume:
    def test_unparseable_latest_falls_back_to_newest_intact(self, tmp_path):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        service.ingest("e", reports)
        store = SnapshotStore(tmp_path)
        store.save(json.loads(json.dumps(service.snapshot(), default=float)))
        (tmp_path / "snapshot-00000007.json").write_text("{trunc", encoding="utf-8")
        (tmp_path / "snapshot-00000009.json").write_bytes(b"\x00\xffgarbage")
        (tmp_path / "snapshot-00000011.json").write_text(
            "[" * 100_000 + "]" * 100_000, encoding="utf-8"
        )
        latest = SnapshotStore(tmp_path).latest()
        assert latest is not None
        resumed = RecoveryService.restore(latest, protocol)
        np.testing.assert_array_equal(
            resumed.frequencies("e", "recover").frequencies,
            service.frequencies("e", "recover").frequencies,
        )

    def test_resume_from_invalid_format_snapshot_exits_2(self, tmp_path, capsys):
        SnapshotStore(tmp_path).save({"format": -1})
        code = main([
            "serve", "--protocol", "oue", "--epsilon", str(EPSILON),
            "--domain-size", str(DOMAIN),
            "--snapshot-dir", str(tmp_path), "--resume",
        ])
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_from_tampered_counts_exits_2(self, tmp_path, capsys):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        service.ingest("e", reports)
        snap = json.loads(json.dumps(service.snapshot(), default=float))
        # Valid wrapper, corrupt payload: the counts dtype is tampered so
        # the aggregator restore must refuse it.
        snap["aggregator"]["epochs"]["e"]["support_counts"]["dtype"] = "float64"
        SnapshotStore(tmp_path).save(snap)
        code = main([
            "serve", "--protocol", "oue", "--epsilon", str(EPSILON),
            "--domain-size", str(DOMAIN),
            "--snapshot-dir", str(tmp_path), "--resume",
        ])
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "forge,message",
        [
            (lambda snap: snap["aggregator"]["epochs"]["e"].pop("num_reports"),
             "snapshot epoch 'e' field 'num_reports' must be a non-negative integer"),
            (lambda snap: snap["aggregator"]["epochs"].update(e="forged"),
             "snapshot epoch 'e' must be a JSON object, got str"),
            (lambda snap: snap["aggregator"]["epochs"]["e"]["support_counts"].update(
                shape=[1e30]),
             "snapshot epoch 'e' field 'support_counts': wire array shape must be "
             "a list of non-negative integers, got [1e+30]"),
            (lambda snap: snap["aggregator"]["epochs"]["e"]["support_counts"].update(
                shape=[float("inf")]),
             "snapshot epoch 'e' field 'support_counts': wire array shape must be "
             "a list of non-negative integers, got [inf]"),
        ],
        ids=["missing-num-reports", "string-entry", "shape-1e30", "shape-infinity"],
    )
    def test_resume_from_forged_epoch_entry_exits_2(self, tmp_path, capsys, forge, message):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        service.ingest("e", reports)
        snap = json.loads(json.dumps(service.snapshot(), default=float))
        forge(snap)
        SnapshotStore(tmp_path).save(snap)
        code = main([
            "serve", "--protocol", "oue", "--epsilon", str(EPSILON),
            "--domain-size", str(DOMAIN),
            "--snapshot-dir", str(tmp_path), "--resume",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot resume from snapshot: ")
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "forge,message",
        [
            (lambda snap: snap.pop("aggregator"),
             "service snapshot field 'aggregator' must be a JSON object, got NoneType"),
            (lambda snap: snap.update(eta="0.1"),
             "service snapshot field 'eta' must be a finite number"),
            (lambda snap: snap.update(eta=10**400),
             "service snapshot field 'eta' must be a finite number"),
            (lambda snap: snap["aggregator"].update(epochs=[]),
             "snapshot field 'epochs' must be a JSON object, got list"),
            (lambda snap: snap["aggregator"]["epochs"]["e"].update(batches=1.5),
             "snapshot epoch 'e' field 'batches' must be a non-negative integer"),
            (lambda snap: snap["aggregator"]["epochs"]["e"].update(num_reports=10**400),
             "snapshot epoch 'e' field 'num_reports' must be a non-negative integer"),
            (lambda snap: snap["aggregator"]["epochs"]["e"]["support_counts"].update(data="!"),
             "snapshot epoch 'e' field 'support_counts'"),
            (lambda snap: snap["aggregator"]["epochs"]["e"]["support_counts"].update(shape=["x"]),
             "snapshot epoch 'e' field 'support_counts'"),
        ],
        ids=["no-aggregator", "string-eta", "eta-too-large", "epochs-list",
             "float-batches", "num-reports-too-large", "bad-base64", "bad-shape"],
    )
    def test_restore_names_the_forged_field(self, forge, message):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        service.ingest("e", reports)
        snap = json.loads(json.dumps(service.snapshot(), default=float))
        forge(snap)
        with pytest.raises(ProtocolError, match=re.escape(message)):
            RecoveryService.restore(snap, protocol)


class TestConcurrentIngestDuringRecompute:
    def test_interleaved_connections_converge_to_the_batch_state(self):
        protocol, reports = _poisoned_reports()
        n = protocol.num_reports(reports)
        service = RecoveryService(protocol)

        async def scenario():
            server = RecoveryHTTPServer(service)
            await server.start()
            conn_a = await asyncio.open_connection("127.0.0.1", server.port)
            conn_b = await asyncio.open_connection("127.0.0.1", server.port)

            async def ingest(start, stop):
                batch = protocol.slice_reports(reports, start, stop)
                return await _request(
                    conn_a[0], conn_a[1], "POST", "/ingest",
                    {"epoch": "e", "reports": protocol.encode_reports(batch)},
                )

            # Seed the epoch, then race every further ingest against a
            # recover read of the same epoch on the other connection.
            status, _, _doc = await ingest(0, 500)
            assert status == 200
            for start in range(500, n, 500):
                (in_status, _, in_doc), (rd_status, _, rd_doc) = await asyncio.gather(
                    ingest(start, min(start + 500, n)),
                    _request(
                        conn_b[0], conn_b[1], "GET",
                        "/frequencies?epoch=e&method=recover",
                    ),
                )
                assert in_status == 200 and rd_status == 200
                assert in_doc["total_reports"] >= rd_doc["num_reports"]
            for conn in (conn_a, conn_b):
                conn[1].close()
                await conn[1].wait_closed()
            await server.stop()

        asyncio.run(scenario())
        # Whatever the interleaving, the settled state is the batch state.
        straight = RecoveryService(protocol)
        straight.ingest("e", reports)
        assert service.ingested_reports == n
        for method in ("raw", "recover"):
            np.testing.assert_array_equal(
                service.frequencies("e", method).frequencies,
                straight.frequencies("e", method).frequencies,
            )

    def test_read_during_dirty_window_recomputes_once_settled(self):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        half = protocol.num_reports(reports) // 2
        service.ingest("e", protocol.slice_reports(reports, 0, half))
        assert service.frequencies("e", "recover").recomputed is True
        warm = service.recomputes.count
        assert service.frequencies("e", "recover").recomputed is False
        assert service.recomputes.count == warm
        service.ingest(
            "e", protocol.slice_reports(reports, half, protocol.num_reports(reports))
        )
        assert service.frequencies("e", "recover").recomputed is True


class TestOutOfDomainTargets:
    """Bad ``targets`` end in a JSON 400, never a 500 or a phantom item."""

    D = 10

    def _server(self, name):
        protocol = make_protocol(name, EPSILON, self.D)
        items = np.random.default_rng(0).integers(0, self.D, size=500)
        service = RecoveryService(protocol, retain_reports=True)
        service.ingest("e", protocol.perturb(items, np.random.default_rng(1)))
        return RecoveryHTTPServer(service)

    @pytest.mark.parametrize("name", ["grr", "oue", "olh"])
    @pytest.mark.parametrize("method", ["raw", "recover", "recover_star", "detection"])
    @pytest.mark.parametrize("targets", ["10", "-1", str(2**70), "1,10", "-1,2"])
    def test_answers_400(self, name, method, targets):
        server = self._server(name)
        status, doc = server._dispatch(
            "GET", f"/frequencies?epoch=e&method={method}&targets={targets}", b""
        )
        assert status == 400
        assert "target items must lie in [0, 10)" in doc["error"]
        assert server.service.recomputes.count == 0
        assert not server.service._views.get("e")

    @pytest.mark.parametrize("name", ["grr", "oue", "olh"])
    def test_in_domain_edges_still_served(self, name):
        server = self._server(name)
        for method in ("recover_star", "detection"):
            status, doc = server._dispatch(
                "GET", f"/frequencies?epoch=e&method={method}&targets=0,9", b""
            )
            assert status == 200 and len(doc["frequencies"]) == self.D


def _b64(raw):
    return base64.b64encode(bytes(raw)).decode("ascii")


class TestForgedBatches:
    """Every forged ingest batch answers 400, never 500, and changes nothing.

    At d = 1020 GRR ships ``uint16`` items and OUE ships 128-byte rows
    whose last four bits are padding.
    """

    D = 1020
    N = 40

    def _forgeries(self, name):
        protocol = make_protocol(name, EPSILON, self.D)
        items = np.random.default_rng(0).integers(0, self.D, size=self.N)
        reports = protocol.perturb(items, np.random.default_rng(1))
        payload = protocol.encode_reports(reports)
        key = "seeds" if name == "olh" else None
        site = payload[key] if key else payload

        def graft(bad):
            return {**payload, key: bad} if key else bad

        forged = {
            f"shape-{label}": graft(dict(site, shape=shape))
            for label, shape in [
                ("infinity", [float("inf")]),
                ("1e30", [1e30]),
                ("string", "12"),
                ("true", [True]),
                ("fraction", [2.5]),
            ]
        }
        in_memory = {"grr": 8, "oue": self.D, "olh": 16}[name]
        over = [MAX_DECODED_BYTES // in_memory + 1, *site["shape"][1:]]
        forged["over-bound"] = graft(dict(site, shape=over))
        if name == "grr":
            forged["old-int64"] = encode_array(np.asarray(reports, dtype=np.int64))
            raw = np.frombuffer(base64.b64decode(payload["data"]), dtype=np.uint16).copy()
            raw[0] = self.D
            forged["item-d"] = dict(payload, data=_b64(raw.tobytes()))
        elif name == "oue":
            bits = np.asarray(reports, dtype=bool)
            forged["old-bool"] = {
                "dtype": "bool", "shape": list(bits.shape), "data": _b64(bits.tobytes())
            }
            packed = np.frombuffer(base64.b64decode(payload["data"]), dtype=np.uint8)
            packed = packed.reshape(self.N, -1).copy()
            packed[0, -1] |= 1
            forged["padding-bit"] = dict(payload, data=_b64(packed.tobytes()))
            forged["wide-row"] = dict(payload, shape=[self.N // 2, 2 * packed.shape[1]])
        else:
            forged["int64-seeds"] = {
                **payload, "seeds": encode_array(reports.seeds.astype(np.int64))
            }
            for value in (protocol.g + 1000, -1000):
                values = reports.values.copy()
                values[0] = value
                forged[f"value-{value}"] = protocol.encode_reports(
                    OLHReports(seeds=reports.seeds, values=values)
                )
        return protocol, reports, forged

    @pytest.mark.parametrize("name", ["grr", "oue", "olh"])
    def test_answers_400_and_leaves_stats_unchanged(self, name):
        protocol, reports, forgeries = self._forgeries(name)
        service = RecoveryService(protocol)

        async def scenario():
            server = RecoveryHTTPServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            genuine = {"epoch": "e", "reports": protocol.encode_reports(reports)}
            status, _, _doc = await _request(reader, writer, "POST", "/ingest", genuine)
            assert status == 200
            _, _, before = await _request(reader, writer, "GET", "/stats")
            for label, forged in forgeries.items():
                for epoch in ("e", "fresh"):
                    status, _, doc = await _request(
                        reader, writer, "POST", "/ingest",
                        {"epoch": epoch, "reports": forged},
                    )
                    assert status == 400, (label, doc)
                    if label.startswith("old-"):
                        expected = "uint16" if name == "grr" else "uint8"
                        assert f"expected '{expected}'" in doc["error"], doc
            _, _, after = await _request(reader, writer, "GET", "/stats")
            before.pop("uptime_seconds")
            after.pop("uptime_seconds")
            assert after == before
            status, _, view = await _request(
                reader, writer, "GET", "/frequencies?epoch=e&method=raw"
            )
            assert status == 200
            assert view["frequencies"] == [float(f) for f in protocol.aggregate(reports)]
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(scenario())
        assert service.ingested_reports == self.N
