"""Error-path behavior of the HTTP front end (:mod:`repro.serve.http`).

The happy paths live in ``test_serve.py``; this module pins the failure
modes a long-lived deployment actually hits (ISSUE 10 satellite 4):

* an oversized request body is answered with a JSON ``413`` *before* the
  connection closes — never buffered, never silently dropped;
* a syntactically broken (truncated) JSON body mid-keep-alive yields a
  ``400`` and leaves the connection usable for subsequent requests;
* snapshot-directory corruption on ``--resume``: unparseable files are
  skipped to the newest intact snapshot, while a parseable-but-invalid
  snapshot fails the CLI fast with exit code 2;
* ingests racing a ``/frequencies`` recompute over concurrent
  connections interleave without corrupting state — the final views are
  byte-equal to an uncontended service fed the same reports;
* target items outside the domain (``d``, ``-1``, ``2**70``) answer 400
  on every protocol and method, and never key a cached view;
* a ``Content-Length`` that is not a plain decimal number answers a JSON
  ``400`` and closes, and the server keeps serving new connections.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.attacks import MGAAttack
from repro.cli import main
from repro.protocols import make_protocol
from repro.serve import RecoveryHTTPServer, RecoveryService, SnapshotStore
from repro.serve.http import MAX_BODY_BYTES

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


class TestSnapshotDirCorruptionOnResume:
    def test_unparseable_latest_falls_back_to_newest_intact(self, tmp_path):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        service.ingest("e", reports)
        store = SnapshotStore(tmp_path)
        store.save(json.loads(json.dumps(service.snapshot(), default=float)))
        (tmp_path / "snapshot-00000007.json").write_text("{trunc", encoding="utf-8")
        (tmp_path / "snapshot-00000009.json").write_bytes(b"\x00\xffgarbage")
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
