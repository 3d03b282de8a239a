"""Dependency-free asyncio HTTP front end for the recovery service.

A deliberately small HTTP/1.1 server over ``asyncio`` streams — the
container ships no aiohttp, and the service needs only four JSON
endpoints:

* ``POST /ingest`` — body ``{"epoch": ..., "reports": <wire batch>}``
  where the batch is the protocol's ``encode_reports`` form; folds into
  the streaming state and marks the epoch dirty.
* ``GET /frequencies?epoch=E&method=M[&targets=1,2]`` — one of the
  :data:`repro.serve.service.METHODS` views, recomputed lazily.
* ``GET /healthz`` — liveness probe.
* ``GET /stats`` — the service's operational counters.
* ``POST /snapshot`` — persist the service state through the configured
  :class:`repro.serve.snapshots.SnapshotStore` (400 when none is).

Connections are keep-alive (HTTP/1.1 default), which is what lets the
throughput benchmark stream many ingest batches over one socket.  The
wall clock appears exactly once — the RFC 7231 ``Date`` response header —
which is transport metadata, never service state (this module is
allowlisted for REP002 on those grounds).
"""

from __future__ import annotations

import asyncio
import json
import time
from email.utils import formatdate
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ProtocolError, ReproError
from repro.serve.service import RecoveryService
from repro.serve.snapshots import SnapshotStore

#: Largest accepted request body; ingest batches beyond this must be split.
MAX_BODY_BYTES = 1 << 28

# An ingest batch is bounded a second time, after JSON parsing: the
# protocol decoders refuse (400), from the declared shape and before any
# base64 is decoded, a batch that would decode to more than
# ``MAX_DECODED_BYTES`` (256 MiB) of in-memory reports.  The compact wire
# forms widen up to 8x when decoded, so the body cap alone would let a
# batch decode to about 1.5 GiB.  See repro.protocols.base.MAX_DECODED_BYTES.

#: A request line or header line longer than about this many bytes is
#: answered with 431: the stream reader's buffer limit (asyncio's default).
MAX_LINE_BYTES = 1 << 16

#: A request with more header lines than this is answered with 431 and
#: closed, so one request head holds at most about
#: ``MAX_HEADERS * MAX_LINE_BYTES`` (6.25 MiB) of headers.
MAX_HEADERS = 100

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _Unframeable(Exception):
    """A request that cannot be framed off the stream.

    Raised by the request parser *before* reading the body, with the
    status to answer: ``413`` for a declared body beyond
    :data:`MAX_BODY_BYTES` (never buffered), ``400`` for a
    ``Content-Length`` that is not a plain decimal number, ``431`` for a
    request line or header line beyond :data:`MAX_LINE_BYTES` or for more
    than :data:`MAX_HEADERS` header lines.  The
    unread rest of the request makes the stream unrecoverable, hence a
    close after the answer.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class RecoveryHTTPServer:
    """Serve one :class:`~repro.serve.service.RecoveryService` over HTTP.

    Parameters
    ----------
    service:
        The transport-free service core.
    host:
        Bind address (default loopback).
    port:
        TCP port; ``0`` binds an ephemeral port, readable from
        :attr:`port` after :meth:`start`.
    snapshot_store:
        Optional :class:`~repro.serve.snapshots.SnapshotStore` backing
        ``POST /snapshot``.
    """

    def __init__(
        self,
        service: RecoveryService,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_store: Optional[SnapshotStore] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.snapshot_store = snapshot_store
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections; resolves :attr:`port`."""
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port, limit=MAX_LINE_BYTES
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (:meth:`start` must have been awaited)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and close the listening sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: a keep-alive loop of request/response."""
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _Unframeable as exc:
                    # The rest of the request is still unread, so the
                    # stream cannot be resynchronized: answer and close.
                    writer.write(_render_response(exc.status, {"error": str(exc)}, False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                status, payload = self._dispatch(method, target, body)
                writer.write(_render_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # The task is ending either way; a cancellation landing in
                # the close waiter (event-loop shutdown) has nothing left
                # to interrupt.
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[tuple[str, str, dict[str, str], bytes]]:
        """Parse one request off the stream, ``None`` at end of stream."""
        line = await _read_line(reader, "request line")
        if not line or not line.strip():
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        lines = 0
        while True:
            raw = await _read_line(reader, "header line")
            if not raw or raw in (b"\r\n", b"\n"):
                break
            lines += 1
            if lines > MAX_HEADERS:
                raise _Unframeable(431, f"request has more than {MAX_HEADERS} header lines")
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _Unframeable(400, f"malformed Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _Unframeable(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit; split the batch",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _dispatch(self, method: str, target: str, body: bytes) -> tuple[int, dict[str, Any]]:
        """Route one request to its handler; all errors become JSON."""
        split = urlsplit(target)
        path = split.path
        query = {key: values[-1] for key, values in parse_qs(split.query).items()}
        try:
            if path == "/healthz":
                if method != "GET":
                    return 405, {"error": "healthz is GET-only"}
                return 200, {"status": "ok"}
            if path == "/stats":
                if method != "GET":
                    return 405, {"error": "stats is GET-only"}
                return 200, self.service.stats()
            if path == "/frequencies":
                if method != "GET":
                    return 405, {"error": "frequencies is GET-only"}
                return self._frequencies(query)
            if path == "/ingest":
                if method != "POST":
                    return 405, {"error": "ingest is POST-only"}
                return self._ingest(body)
            if path == "/snapshot":
                if method != "POST":
                    return 405, {"error": "snapshot is POST-only"}
                return self._snapshot()
            return 404, {"error": f"no route for {path}"}
        except ReproError as exc:
            return 400, {"error": str(exc)}
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": f"malformed request: {exc!r}"}
        except Exception as exc:  # pragma: no cover - defensive catch-all
            return 500, {"error": f"internal error: {exc!r}"}

    def _ingest(self, body: bytes) -> tuple[int, dict[str, Any]]:
        """``POST /ingest``: decode and fold one wire-encoded batch.

        A body nested too deeply for :func:`json.loads` is a malformed
        request (400); a ``RecursionError`` raised anywhere else is a bug
        and still reaches :meth:`_dispatch`'s 500.
        """
        try:
            doc = json.loads(body.decode("utf-8"))
        except RecursionError as exc:
            raise ProtocolError("ingest body is nested too deeply to parse") from exc
        epoch = str(doc["epoch"])
        ingested = self.service.ingest_payload(epoch, doc["reports"])
        return 200, {
            "epoch": epoch,
            "ingested": ingested,
            "total_reports": self.service.state.num_reports(epoch),
        }

    def _frequencies(self, query: dict[str, str]) -> tuple[int, dict[str, Any]]:
        """``GET /frequencies``: serve one lazily recomputed view."""
        if "epoch" not in query:
            return 400, {"error": "missing required query parameter 'epoch'"}
        targets = None
        if query.get("targets"):
            targets = [int(part) for part in query["targets"].split(",") if part]
        view = self.service.frequencies(
            query["epoch"], method=query.get("method", "raw"), targets=targets
        )
        return 200, {
            "epoch": view.epoch,
            "method": view.method,
            "num_reports": view.num_reports,
            "recomputed": view.recomputed,
            "frequencies": [float(f) for f in view.frequencies],
        }

    def _snapshot(self) -> tuple[int, dict[str, Any]]:
        """``POST /snapshot``: persist state via the configured store."""
        if self.snapshot_store is None:
            return 400, {"error": "no snapshot store configured (--snapshot-dir)"}
        path = self.snapshot_store.save(self.service.snapshot())
        return 200, {"path": str(path)}


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line off the stream; one beyond :data:`MAX_LINE_BYTES` is a 431.

    ``readline`` reports a line over the reader's limit as ``ValueError``,
    after discarding the part it buffered.
    """
    try:
        return await reader.readline()
    except ValueError as exc:
        raise _Unframeable(
            431, f"{what} exceeds the {MAX_LINE_BYTES}-byte limit"
        ) from exc


def _render_response(status: int, payload: dict[str, Any], keep_alive: bool) -> bytes:
    """Serialize one JSON response with the standard HTTP/1.1 framing."""
    body = json.dumps(payload, separators=(",", ":"), default=float).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Date: {formatdate(time.time(), usegmt=True)}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def _serve_until_cancelled(server: RecoveryHTTPServer) -> None:
    """Start ``server``, announce the bound address on stdout, run forever."""
    await server.start()
    print(f"serving on http://{server.host}:{server.port}", flush=True)
    await server.serve_forever()


def run_server(
    service: RecoveryService,
    host: str = "127.0.0.1",
    port: int = 0,
    snapshot_store: Optional[SnapshotStore] = None,
) -> None:
    """Blocking convenience wrapper: serve until interrupted.

    Builds a :class:`RecoveryHTTPServer` for ``service`` on
    ``host``:``port`` (with ``snapshot_store`` backing ``POST
    /snapshot``), prints the bound address line the smoke tooling waits
    for, and blocks in the event loop; Ctrl-C returns cleanly.
    """
    server = RecoveryHTTPServer(
        service, host=host, port=port, snapshot_store=snapshot_store
    )
    try:
        asyncio.run(_serve_until_cancelled(server))
    except KeyboardInterrupt:
        pass


__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADERS",
    "MAX_LINE_BYTES",
    "RecoveryHTTPServer",
    "run_server",
]
