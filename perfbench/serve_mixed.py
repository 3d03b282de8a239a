"""The ``serve-mixed`` workload: three live ``ldprecover serve`` processes.

One GRR, one OUE and one per-user OLH server (epsilon 1, d = 1024) are
driven by this client over two keep-alive connections each, a writer and
a reader.

* Bulk phase, closed loop: each server ingests pre-encoded wire batches
  into a fresh epoch per round, one request in flight at a time.
* Read phase, open loop in windows of :data:`READ_WINDOW_S`: ``GET
  /frequencies`` at :data:`READ_RATE` per second across the servers,
  cycling ``raw`` / ``recover`` / ``recover_star`` with rotating target
  sets, each read timed from when it was due.  Meanwhile a collector posts
  :data:`COLLECT_BATCH`-report batches at :data:`COLLECT_RATE` per second
  into the same epoch, so cached views go dirty and recompute.

The client and the servers share one CPU (:func:`common.pin`), whose
speed is probed (:func:`common.speed`) between protocols of a bulk round
and between read windows, while no request is in flight; timings are
reported at the reference speed.

Afterwards every epoch's ``raw`` view must byte-equal the frequencies of
all reports sent to it, and ``recover`` / ``recover_star`` must byte-equal
``recover_frequencies`` on that vector.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import common

EPSILON = 1.0
DOMAIN = 1024
ETA = 0.2
PROTOCOLS = ("grr", "oue", "olh")

#: (reports per bulk batch, batches per bulk round) per protocol.  GRR
#: decodes and folds two orders of magnitude faster than OUE and OLH, so
#: its batches are larger and more; each protocol takes about a third of
#: a round.
BULK = {
    "full": {"grr": (40_000, 150), "oue": (500, 100), "olh": (150, 100)},
    "tiny": {"grr": (1_000, 8), "oue": (100, 8), "olh": (50, 8)},
}
#: Distinct batches generated per protocol; rounds cycle through them.
POOL = 16
MALICIOUS_SHARE = 0.05
#: Reads and collector posts per second.  Well below saturation on two
#: CPUs, so host jitter does not snowball into queueing in the open loop.
READ_RATE = 100.0
COLLECT_RATE = 10.0
COLLECT_BATCH = 200
TARGET_SETS = 6
TARGETS_PER_SET = 10
METHODS = ("raw", "recover", "recover_star")
SETUP_ROUNDS = 5
BULK_SHARE = 0.4
MIN_READ_S = {"full": 4.0, "tiny": 1.0}
#: The read phase runs in windows of about this many seconds with a speed
#: probe between them; a CPU's speed holds for about a second.
READ_WINDOW_S = 0.5
#: ``read_p99_ms`` is the median of the p99s of this many consecutive
#: slices of the reads.
READ_SLICES = 9


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Batch:
    """One pre-encoded report batch and its exact support counts."""

    body_tail: bytes  # '"reports": ...}' part of the JSON body
    counts: Any
    n: int


@dataclass
class Inputs:
    protocols: dict[str, Any]
    bulk: dict[str, list[Batch]]
    collect: dict[str, list[Batch]]
    target_sets: list[list[int]]


def _batch(protocol: Any, attack: Any, popularity: Any, size: int, rng: Any) -> Batch:
    m = int(round(size * MALICIOUS_SHARE))
    items = rng.choice(DOMAIN, size=size - m, p=popularity)
    reports = protocol.concat_reports(
        protocol.perturb(items, rng), attack.craft(protocol, m, rng)
    )
    tail = json.dumps(protocol.encode_reports(reports), separators=(",", ":"))
    return Batch(
        body_tail=f'"reports":{tail}}}'.encode("ascii"),
        counts=protocol.support_counts(reports),
        n=protocol.num_reports(reports),
    )


def make_inputs(seed: int, scale: str) -> Inputs:
    """Every report the client will send, drawn from ``seed``."""
    import numpy as np

    from repro.attacks import MGAAttack
    from repro.protocols import make_protocol

    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, DOMAIN + 1) ** 1.1
    popularity = rng.permutation(weights / weights.sum())
    attack = MGAAttack(domain_size=DOMAIN, r=TARGETS_PER_SET, rng=rng)
    protocols, bulk, collect = {}, {}, {}
    for name in PROTOCOLS:
        protocol = make_protocol(name, epsilon=EPSILON, domain_size=DOMAIN)
        protocols[name] = protocol
        size, _batches = BULK[scale][name]
        bulk[name] = [_batch(protocol, attack, popularity, size, rng) for _ in range(POOL)]
        collect[name] = [
            _batch(protocol, attack, popularity, COLLECT_BATCH, rng) for _ in range(POOL)
        ]
    target_sets = [sorted(int(t) for t in attack.target_items)]
    while len(target_sets) < TARGET_SETS:
        picks = rng.choice(DOMAIN, size=TARGETS_PER_SET, replace=False)
        target_sets.append(sorted(int(t) for t in picks))
    return Inputs(protocols, bulk, collect, target_sets)


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
@dataclass
class Server:
    name: str
    proc: subprocess.Popen
    port: int
    boot_s: float
    #: ``boot_s`` at the reference speed.
    boot_ref_s: float
    spans_path: Optional[pathlib.Path] = None


def boot(name: str, traced: bool, work: pathlib.Path) -> Server:
    """Start one server; returns once it prints its "serving on" line."""
    args = [
        "serve", "--protocol", name, "--epsilon", str(EPSILON),
        "--domain-size", str(DOMAIN), "--eta", str(ETA), "--port", "0",
    ]
    spans_path = None
    if traced:
        spans_path = work / f"spans-{name}.json"
        cmd = [sys.executable, "-B", str(common.HERE / "serve_launcher.py"), str(spans_path)]
    else:
        cmd = [sys.executable, "-B", "-m", "repro.cli"]
    before = common.speed()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd + args, stdout=subprocess.PIPE, env=common.child_env())
    try:
        line = common.read_line(proc, timeout=120.0)
    except BaseException:
        common.reap(proc, timeout=0.0)
        raise
    boot_s = time.perf_counter() - start
    if not line or not line.startswith("serving on "):
        common.reap(proc, timeout=5.0)
        raise RuntimeError(f"{name} server did not start: {line!r}")
    port = int(line.strip().rsplit(":", 1)[1])
    boot_ref_s = boot_s * (before + common.speed()) / 2
    return Server(name, proc, port, boot_s, boot_ref_s, spans_path)


def stop_all(servers: list[Server]) -> float:
    """Interrupt every server and reap it; returns their summed peak RSS
    in MB."""
    for server in servers:
        server.proc.send_signal(signal.SIGINT)
    rss, failures = 0.0, []
    for server in servers:
        code, peak = common.reap(server.proc, timeout=30.0)
        rss += peak
        if code != 0:
            failures.append(f"{server.name} server exited with {code}")
    if failures:
        raise RuntimeError("; ".join(failures))
    return rss


def boot_all(traced: bool, work: pathlib.Path) -> list[Server]:
    servers: list[Server] = []
    try:
        for name in PROTOCOLS:
            servers.append(boot(name, traced, work))
    except BaseException:
        stop_all(servers)
        raise
    return servers


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
class Conn:
    """One keep-alive HTTP/1.1 connection; one request in flight."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
        return cls(reader, writer)

    async def request(self, data: bytes) -> tuple[int, bytes, float]:
        """Send ``data``; returns status, body and seconds from send."""
        async with self.lock:
            start = time.perf_counter()
            self.writer.write(data)
            await self.writer.drain()
            status = int((await self.reader.readline()).split()[1])
            length = 0
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                if line[:15].lower() == b"content-length:":
                    length = int(line[15:])
            body = await self.reader.readexactly(length)
            return status, body, time.perf_counter() - start

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def _post(epoch: str, batch: Batch) -> bytes:
    body = b'{"epoch":"' + epoch.encode("ascii") + b'",' + batch.body_tail
    head = f"POST /ingest HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def _view_path(epoch: str, method: str, targets: Optional[list[int]]) -> str:
    path = f"/frequencies?epoch={epoch}&method={method}"
    if method == "recover_star" and targets:
        path += "&targets=" + ",".join(str(t) for t in targets)
    return path


@dataclass
class Client:
    """State of one client session against a trio of servers."""

    inputs: Inputs
    checks: common.Checks
    writers: dict[str, Conn] = field(default_factory=dict)
    readers: dict[str, Conn] = field(default_factory=dict)
    #: (server, epoch) -> [support counts, reports] sent so far.
    sent: dict[tuple[str, str], list[Any]] = field(default_factory=dict)
    reads: dict[str, int] = field(default_factory=dict)
    ingest_latency: dict[str, list[float]] = field(default_factory=dict)
    #: Client-observed seconds and counts of requests, per endpoint.
    request_s: dict[str, float] = field(default_factory=lambda: {"ingest": 0.0, "frequencies": 0.0})
    requests: dict[str, int] = field(default_factory=lambda: {"ingest": 0, "frequencies": 0})
    #: Raw read latencies, and per read window the latencies at the
    #: reference speed.
    read_latency: list[float] = field(default_factory=list)
    read_windows: list[list[float]] = field(default_factory=list)
    #: Raw wall seconds of each bulk round, per protocol.
    raw_rounds: list[dict[str, float]] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    collected: int = 0

    async def ingest(self, name: str, epoch: str, batch: Batch) -> float:
        status, _body, seconds = await self.writers[name].request(_post(epoch, batch))
        self.request_s["ingest"] += seconds
        self.requests["ingest"] += 1
        if self.checks.op(status == 200, f"{name} ingest answered {status}"):
            entry = self.sent.setdefault((name, epoch), [0, 0])
            entry[0] = entry[0] + batch.counts
            entry[1] += batch.n
        return seconds

    async def read(self, name: str, path: str) -> tuple[int, bytes]:
        status, body, seconds = await self.readers[name].request(_get(path))
        self.request_s["frequencies"] += seconds
        self.requests["frequencies"] += 1
        self.reads[name] = self.reads.get(name, 0) + 1
        self.checks.op(status == 200, f"{name} {path} answered {status}")
        return status, body

    async def bulk_round(self, epoch: str, scale: str) -> dict[str, float]:
        """Closed-loop ingest of one round per server; returns the wall
        time per protocol at the reference speed (raw in ``raw_rounds``)."""
        walls, scaled = {}, {}
        before = common.speed()
        for name in PROTOCOLS:
            pool = self.inputs.bulk[name]
            latencies = self.ingest_latency.setdefault(name, [])
            start = time.perf_counter()
            for i in range(BULK[scale][name][1]):
                latencies.append(await self.ingest(name, epoch, pool[i % len(pool)]))
            walls[name] = time.perf_counter() - start
            after = common.speed()
            scaled[name] = walls[name] * (before + after) / 2
            before = after
        self.raw_rounds.append(walls)
        return scaled

    async def read_phase(self, seconds: float) -> None:
        """Windows of open-loop reads plus the collector, both on fixed
        schedules, with a speed probe between windows."""
        for name in PROTOCOLS:
            await self.ingest(name, "live", self.inputs.collect[name][0])
        windows = max(1, round(seconds / READ_WINDOW_S))
        window_s = seconds / windows
        before = common.speed()
        for _ in range(windows):
            first = len(self.read_latency)
            await self._read_window(window_s)
            after = common.speed()
            factor = (before + after) / 2
            self.read_windows.append([lat * factor for lat in self.read_latency[first:]])
            before = after

    async def _read_window(self, seconds: float) -> None:
        start = time.perf_counter()
        read_tasks: list[asyncio.Task] = []
        base = len(self.late)

        async def one_read(k: int, due: float) -> None:
            name = PROTOCOLS[k % len(PROTOCOLS)]
            method = METHODS[(k // len(PROTOCOLS)) % len(METHODS)]
            targets = self.inputs.target_sets[(k // 9) % len(self.inputs.target_sets)]
            await self.read(name, _view_path("live", method, targets))
            self.read_latency.append(time.perf_counter() - due)

        async def collector() -> None:
            k = 0
            while True:
                due = start + k / COLLECT_RATE
                if due - start >= seconds:
                    return
                await asyncio.sleep(max(0.0, due - time.perf_counter()))
                n = self.collected
                name = PROTOCOLS[n % len(PROTOCOLS)]
                pool = self.inputs.collect[name]
                await self.ingest(name, "live", pool[(n // len(PROTOCOLS)) % len(pool)])
                self.collected += 1
                k += 1

        collect_task = asyncio.ensure_future(collector())
        k = 0
        while True:
            due = start + k / READ_RATE
            if due - start >= seconds:
                break
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            self.late.append(time.perf_counter() - due)
            read_tasks.append(asyncio.ensure_future(one_read(base + k, due)))
            k += 1
        await asyncio.gather(*read_tasks)
        await collect_task

    async def final_views(self) -> dict[tuple[str, str, str], bytes]:
        """Read back and check every epoch's three views; returns their bytes."""
        import numpy as np

        from repro.core.recover import recover_frequencies

        views = {}
        for (name, epoch), (counts, n) in sorted(self.sent.items()):
            protocol = self.inputs.protocols[name]
            raw = protocol.estimate_frequencies(counts, n)
            targets = self.inputs.target_sets[0]
            expected = {
                "raw": raw,
                "recover": recover_frequencies(raw, protocol, eta=ETA).frequencies,
                "recover_star": recover_frequencies(
                    raw, protocol, eta=ETA, target_items=targets
                ).frequencies,
            }
            for method in METHODS:
                status, body = await self.read(name, _view_path(epoch, method, targets))
                if status != 200:
                    continue
                doc = json.loads(body)
                got = np.asarray(doc["frequencies"], dtype=np.float64).tobytes()
                views[(name, epoch, method)] = got
                self.checks.op(
                    got == expected[method].tobytes() and doc["num_reports"] == n,
                    f"{name}/{epoch}/{method} view equals the batch pipeline",
                )
        return views

    async def hit_ratio(self) -> float:
        """Share of ``/frequencies`` reads served without a recompute."""
        recomputes = reads = 0
        for name in PROTOCOLS:
            status, body, _seconds = await self.writers[name].request(_get("/stats"))
            if not self.checks.op(status == 200, f"{name} /stats answered {status}"):
                continue
            stats = json.loads(body)
            sent = sum(n for (server, _e), (_c, n) in self.sent.items() if server == name)
            self.checks.op(stats["ingested_reports"] == sent, f"{name} ingested every report")
            recomputes += stats["recomputes"]
            reads += self.reads.get(name, 0)
        return 1.0 - recomputes / reads if reads else 0.0


@dataclass
class Session:
    """What one client session measured."""

    rounds: list[dict[str, float]]
    views: dict[tuple[str, str, str], bytes]
    hit_ratio: float
    client: Client


async def drive(
    servers: list[Server], inputs: Inputs, checks: common.Checks,
    scale: str, bulk_s: float, read_s: float, min_rounds: int,
) -> Session:
    """Bulk rounds for ``bulk_s`` (at least ``min_rounds``), then the read
    phase for ``read_s``, then the checks."""
    client = Client(inputs, checks)
    for server in servers:
        client.writers[server.name] = await Conn.open(server.port)
        client.readers[server.name] = await Conn.open(server.port)
    try:
        rounds: list[dict[str, float]] = []
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < bulk_s:
            rounds.append(await client.bulk_round(f"bulk{len(rounds)}", scale))
        await client.read_phase(read_s)
        views = await client.final_views()
        ratio = await client.hit_ratio()
    finally:
        for conn in list(client.writers.values()) + list(client.readers.values()):
            await conn.close()
    return Session(rounds, views, ratio, client)


# ----------------------------------------------------------------------
# Workload entry points
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> int:
    checks = common.Checks()
    metrics = common.Metrics()
    inputs = make_inputs(seed, scale)
    common.pin(common.ONE_CPU)
    with common.WorkDir() as work:
        if trace:
            _traced(inputs, checks, metrics, scale, work)
        else:
            _untraced(inputs, checks, metrics, scale, seconds, work)
    return common.emit(common.provenance(workload, seed, trace), checks, metrics)


def _untraced(
    inputs: Inputs, checks: common.Checks, metrics: common.Metrics,
    scale: str, seconds: float, work: pathlib.Path,
) -> None:
    trios = []
    for _ in range(SETUP_ROUNDS - 1):
        trio = boot_all(False, work)
        trios.append(trio)
        stop_all(trio)
    servers = boot_all(False, work)
    trios.append(servers)
    try:
        bulk_s = BULK_SHARE * seconds
        read_s = max(MIN_READ_S[scale], seconds - bulk_s)
        session = asyncio.run(drive(servers, inputs, checks, scale, bulk_s, read_s, 2))
    finally:
        rss = stop_all(servers)
    rounds = session.rounds
    client = session.client
    setups = [sum(server.boot_ref_s for server in trio) for trio in trios]
    metrics.add("setup_s", common.median(setups), "s", len(setups))
    metrics.add("run_s", common.median([sum(r.values()) for r in rounds]), "s", len(rounds))
    metrics.add("peak_rss_mb", rss, "MB", len(servers))
    reads = [lat for window in client.read_windows for lat in window]
    metrics.add("read_p50_ms", 1e3 * common.percentile(reads, 50), "ms", len(reads))
    metrics.add(
        "read_p99_ms", 1e3 * common.windowed_percentile(reads, 99, READ_SLICES), "ms", len(reads)
    )
    for name in PROTOCOLS:
        rate = _ingest_rate(session, name, scale)
        metrics.note(f"ingest_{name}_reports_per_s", rate, "reports/s", len(rounds))
        share = common.median([r[name] / sum(r.values()) for r in rounds])
        metrics.note(f"run_share_{name}", share, "ratio", len(rounds))
    raw_setups = [sum(server.boot_s for server in trio) for trio in trios]
    metrics.note("setup_wall_s", common.median(raw_setups), "s", len(raw_setups))
    raw_rounds = [sum(r.values()) for r in client.raw_rounds]
    metrics.note("run_wall_s", common.median(raw_rounds), "s", len(raw_rounds))
    raw_reads = client.read_latency
    metrics.note("read_wall_p50_ms", 1e3 * common.percentile(raw_reads, 50), "ms", len(raw_reads))


def _ingest_rate(session: Session, name: str, scale: str) -> float:
    """Bulk-phase reports per second of one server (median round, at the
    reference speed)."""
    reports = session.client.inputs.bulk[name][0].n * BULK[scale][name][1]
    return reports / common.median([r[name] for r in session.rounds])


def _client_metrics(session: Session, scale: str) -> dict[str, float]:
    """Per-layer figures the client observes (from the untraced session)."""
    client = session.client
    out = {
        "serve.service.view_hit_ratio": session.hit_ratio,
        "loadgen.late_p99_ms": 1e3 * common.percentile(client.late, 99),
    }
    for name in PROTOCOLS:
        latencies = client.ingest_latency[name]
        out[f"serve.ingest.{name}.reports_per_s"] = _ingest_rate(session, name, scale)
        out[f"serve.ingest.{name}.p50_ms"] = 1e3 * common.percentile(latencies, 50)
        out[f"serve.ingest.{name}.p99_ms"] = 1e3 * common.percentile(latencies, 99)
    return out


def _traced(
    inputs: Inputs, checks: common.Checks, metrics: common.Metrics,
    scale: str, work: pathlib.Path,
) -> None:
    """One untraced and one traced session on the same inputs."""
    import tracing

    sessions = []
    for traced in (False, True):
        servers = boot_all(traced, work)
        try:
            sessions.append(
                asyncio.run(drive(servers, inputs, checks, scale, 0.0, MIN_READ_S[scale], 1))
            )
        finally:
            stop_all(servers)
        if traced:
            recorder = tracing.Recorder()
            for server in servers:
                assert server.spans_path is not None
                raw = json.loads(server.spans_path.read_text(encoding="utf-8"))
                recorder.adopt([tracing.Span(*fields) for fields in raw], -1)
    plain, traced_session = sessions
    checks.op(plain.views == traced_session.views, "served views identical with tracing on")
    client = traced_session.client
    request_s = sum(client.request_s.values())
    summary = tracing.summarize(recorder.spans, request_s)
    service = {"ingest": 0.0, "frequencies": 0.0}
    for span in recorder.spans:
        if span.parent < 0 and span.layer == "serve.service":
            key = "ingest" if span.op == "ingest_payload" else "frequencies"
            service[key] += span.end - span.start
    http_self = {key: client.request_s[key] - service[key] for key in service}
    summary["layers"]["serve.http"] = {
        "calls": sum(client.requests.values()),
        "self_s": sum(http_self.values()),
        "share": sum(http_self.values()) / request_s,
    }
    summary["covered_s"] = request_s
    extra = _client_metrics(plain, scale)
    extra["serve.http.ingest_s"] = http_self["ingest"]
    extra["serve.http.frequencies_s"] = http_self["frequencies"]
    overhead = sum(traced_session.client.raw_rounds[0].values()) - sum(
        plain.client.raw_rounds[0].values()
    )
    tracing.report(metrics, summary, request_s, overhead, extra)
