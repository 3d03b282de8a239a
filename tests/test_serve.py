"""Behavior of the online recovery service (:mod:`repro.serve`).

Three promises under test: an ingest→recover round-trip is byte-equal to
the batch pipeline on the same reports; views recompute lazily and only
on dirty epochs (counted, like the engine's ``TASK_COUNTER``); and a
snapshot/restore cycle resumes mid-stream without double-counting.  The
HTTP layer is exercised end to end over a real socket with a minimal
stdlib client.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time

import numpy as np
import pytest

from repro.attacks import MGAAttack
from repro.cli import build_parser, main
from repro.core.detection import detect_and_aggregate
from repro.core.recover import recover_frequencies
from repro.exceptions import InvalidParameterError
from repro.protocols import make_protocol
from repro.serve import RecoveryHTTPServer, RecoveryService, SnapshotStore
from repro.serve import service as service_module
from repro.sim.streaming import AggregatorState

EPSILON = 1.0
DOMAIN = 16
USERS = 3000
TARGETS = [1, 2]


def _poisoned_reports(name="oue", seed=0, **kwargs):
    """A genuine+malicious report batch, as an aggregator would receive."""
    protocol = make_protocol(name, EPSILON, DOMAIN, **kwargs)
    items = np.random.default_rng(seed).integers(0, DOMAIN, size=USERS)
    genuine = protocol.perturb(items, np.random.default_rng(seed + 1))
    attack = MGAAttack(domain_size=DOMAIN, targets=TARGETS, rng=seed + 2)
    malicious = attack.craft(protocol, 150, np.random.default_rng(seed + 3))
    return protocol, protocol.concat_reports(genuine, malicious)


class TestRoundTripMatchesBatch:
    @pytest.mark.parametrize("name,kwargs", [
        ("grr", {}),
        ("oue", {}),
        ("olh", {}),
        ("olh", {"cohort": 8}),
    ], ids=["grr", "oue", "olh", "olh-cohort"])
    def test_streamed_views_equal_batch_pipeline(self, name, kwargs):
        protocol, reports = _poisoned_reports(name, **kwargs)
        n = protocol.num_reports(reports)
        service = RecoveryService(protocol, retain_reports=True)
        for start in range(0, n, 500):
            service.ingest(
                "e", protocol.slice_reports(reports, start, min(start + 500, n))
            )

        batch_raw = protocol.aggregate(reports)
        assert np.array_equal(
            service.frequencies("e", "raw").frequencies, batch_raw
        )
        assert np.array_equal(
            service.frequencies("e", "recover").frequencies,
            recover_frequencies(batch_raw, protocol, eta=service.eta).frequencies,
        )
        assert np.array_equal(
            service.frequencies("e", "recover_star", targets=TARGETS).frequencies,
            recover_frequencies(
                batch_raw, protocol, eta=service.eta, target_items=TARGETS
            ).frequencies,
        )
        assert np.array_equal(
            service.frequencies("e", "detection", targets=TARGETS).frequencies,
            detect_and_aggregate(protocol, reports, TARGETS).frequencies,
        )

    def test_target_order_is_irrelevant(self):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        service.ingest("e", reports)
        first = service.frequencies("e", "recover_star", targets=[2, 1])
        second = service.frequencies("e", "recover_star", targets=[1, 2, 2])
        assert np.array_equal(first.frequencies, second.frequencies)
        assert second.recomputed is False  # same normalized key


class TestRetainedReports:
    """retain_reports keeps a batch list per epoch and joins it only on
    a detection recompute, so ingest cost is linear in the batch count."""

    @pytest.mark.parametrize("name", ["grr", "oue", "olh"])
    def test_detection_views_equal_batch_detection(self, name):
        protocol, reports = _poisoned_reports(name)
        n = protocol.num_reports(reports)
        cuts = [0, 1, 2, 40, 41, 700, 1500, 1501, 2222, 3000, n]
        service = RecoveryService(protocol, retain_reports=True)
        for stop_index, (start, stop) in enumerate(zip(cuts, cuts[1:])):
            service.ingest("e", protocol.slice_reports(reports, start, stop))
            if stop_index in (4, 7):  # join mid-stream, then keep appending
                head = protocol.slice_reports(reports, 0, stop)
                assert np.array_equal(
                    service.frequencies("e", "detection", targets=TARGETS).frequencies,
                    detect_and_aggregate(protocol, head, TARGETS).frequencies,
                )
        assert np.array_equal(
            service.frequencies("e", "detection", targets=TARGETS).frequencies,
            detect_and_aggregate(protocol, reports, TARGETS).frequencies,
        )

    @pytest.mark.parametrize("name", ["grr", "oue", "olh"])
    def test_detection_after_absorb_covers_retained_reports_only(self, name):
        """Absorbed collector state joins the streamed counts but not the
        retained batches, so the detection view must not subtract from
        those counts: it stays batch detection over the retained reports."""
        protocol, reports = _poisoned_reports(name)
        n = protocol.num_reports(reports)
        cut = 1_000
        retained = protocol.slice_reports(reports, cut, n)
        service = RecoveryService(protocol, retain_reports=True)
        service.ingest("e", retained)
        collector = AggregatorState(protocol)
        collector.ingest("e", protocol.slice_reports(reports, 0, cut))
        service.absorb(collector)
        assert service.state.num_reports("e") == n
        assert np.array_equal(
            service.frequencies("e", "detection", targets=TARGETS).frequencies,
            detect_and_aggregate(protocol, retained, TARGETS).frequencies,
        )

    def test_ingest_never_concatenates(self, monkeypatch):
        protocol = make_protocol("oue", EPSILON, DOMAIN)
        joins = []
        concat = protocol.concat_reports
        monkeypatch.setattr(
            protocol, "concat_reports", lambda a, b: joins.append(1) or concat(a, b)
        )
        batch = protocol.perturb(np.arange(DOMAIN), np.random.default_rng(0))
        service = RecoveryService(protocol, retain_reports=True)
        for _ in range(64):
            service.ingest("e", batch)
        assert joins == []
        service.frequencies("e", "detection", targets=TARGETS)
        assert len(joins) == 63  # a balanced merge of 64 batches

    def test_ingest_time_is_linear_in_batches(self):
        """400 ingests take at most 5x the time of 100.

        Each round times the two sizes back to back, alternating which
        goes first, and the best round's ratio must meet the bound.  A
        host whose CPU speed changes between two measurements then skews
        at most the rounds it falls in, while quadratic ingest (joining
        the retained batches on every ingest) misses the bound in every
        round.
        """
        protocol = make_protocol("oue", EPSILON, 102)
        batch = protocol.perturb(
            np.random.default_rng(0).integers(0, 102, size=2_000),
            np.random.default_rng(1),
        )

        def ingest_seconds(batches):
            service = RecoveryService(protocol, retain_reports=True)
            start = time.perf_counter()
            for _ in range(batches):
                service.ingest("e", batch)
            return time.perf_counter() - start

        ratios = []
        for round_index in range(5):
            if round_index % 2:
                large, small = ingest_seconds(400), ingest_seconds(100)
            else:
                small, large = ingest_seconds(100), ingest_seconds(400)
            ratios.append(large / small)
        assert min(ratios) <= 5, ratios


class TestViewCacheBound:
    """raw and recover ignore targets, so they cache one view each; the
    per-epoch view cache is an LRU capped at ``_MAX_VIEWS_PER_EPOCH``."""

    def _service(self, name="grr"):
        protocol, reports = _poisoned_reports(name)
        service = RecoveryService(protocol, retain_reports=True)
        service.ingest("e", reports)
        return service

    def test_targetless_views_recompute_once_whatever_the_targets(self):
        service = self._service()
        rng = np.random.default_rng(0)
        for method in ("raw", "recover"):
            before = service.recomputes.count
            first = service.frequencies("e", method).frequencies
            for _ in range(150):
                targets = rng.choice(DOMAIN, size=int(rng.integers(1, 6)), replace=False)
                view = service.frequencies("e", method, targets=targets)
                assert view.frequencies is first and not view.recomputed
            assert service.recomputes.count == before + 1
        assert len(service._views["e"]) == 2

    @pytest.mark.parametrize("method", ["raw", "recover", "recover_star", "detection"])
    def test_targets_outside_the_domain_are_rejected_for_every_method(self, method):
        service = self._service()
        for bad in ([DOMAIN], [-1], [1, 2**70]):
            with pytest.raises(InvalidParameterError):
                service.frequencies("e", method, targets=bad)
        assert not service._views.get("e")

    @pytest.mark.parametrize("method", ["recover_star", "detection"])
    def test_cache_stays_at_the_cap_and_evicted_views_recompute_byte_equal(self, method):
        cap = service_module._MAX_VIEWS_PER_EPOCH
        service = self._service()
        target_sets = list(itertools.combinations(range(DOMAIN), 2))[: cap + 10]
        first = service.frequencies("e", method, targets=target_sets[0]).frequencies.copy()
        for targets in target_sets[1:]:
            service.frequencies("e", method, targets=targets)
            assert len(service._views["e"]) <= cap
        assert len(service._views["e"]) == cap
        before = service.recomputes.count
        again = service.frequencies("e", method, targets=target_sets[0])
        assert again.recomputed and service.recomputes.count == before + 1
        assert again.frequencies.tobytes() == first.tobytes()
        assert len(service._views["e"]) == cap

    def test_a_read_refreshes_a_views_recency(self):
        cap = service_module._MAX_VIEWS_PER_EPOCH
        service = self._service()
        target_sets = list(itertools.combinations(range(DOMAIN), 2))[: cap + 1]
        for targets in target_sets[:cap]:
            service.frequencies("e", "recover_star", targets=targets)
        assert not service.frequencies("e", "recover_star", targets=target_sets[0]).recomputed
        service.frequencies("e", "recover_star", targets=target_sets[cap])
        assert not service.frequencies("e", "recover_star", targets=target_sets[0]).recomputed
        assert service.frequencies("e", "recover_star", targets=target_sets[1]).recomputed


class TestLazyRecomputation:
    def test_warm_reads_run_zero_recomputation(self):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        service.ingest("e", reports)
        for method, targets in [
            ("raw", None), ("recover", None), ("recover_star", TARGETS),
        ]:
            assert service.frequencies("e", method, targets=targets).recomputed
        warm = service.recomputes.count
        assert warm == 3
        for method, targets in [
            ("raw", None), ("recover", None), ("recover_star", TARGETS),
        ]:
            view = service.frequencies("e", method, targets=targets)
            assert view.recomputed is False
        assert service.recomputes.count == warm

    def test_only_dirty_epochs_recompute(self):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        half = USERS // 2
        service.ingest("a", protocol.slice_reports(reports, 0, half))
        service.ingest("b", protocol.slice_reports(reports, half, USERS))
        service.frequencies("a", "recover")
        service.frequencies("b", "recover")
        before = service.recomputes.count

        service.ingest("a", protocol.slice_reports(reports, 0, 100))
        # The clean epoch serves warm; the dirty one recomputes.
        assert service.frequencies("b", "recover").recomputed is False
        assert service.frequencies("a", "recover").recomputed is True
        assert service.recomputes.count == before + 1

    def test_stats_reports_counters_and_dirtiness(self):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)
        service.ingest("e", reports)
        stats = service.stats()
        assert stats["ingested_reports"] == protocol.num_reports(reports)
        assert stats["ingested_batches"] == 1
        assert stats["epochs"]["e"]["dirty"] is True
        service.frequencies("e", "raw")
        stats = service.stats()
        assert stats["epochs"]["e"]["dirty"] is False
        assert stats["recomputes"] == 1
        assert stats["protocol"]["name"] == protocol.name

    def test_error_paths(self):
        protocol, reports = _poisoned_reports()
        service = RecoveryService(protocol)  # no retain_reports
        service.ingest("e", reports)
        with pytest.raises(InvalidParameterError):
            service.frequencies("missing")
        with pytest.raises(InvalidParameterError):
            service.frequencies("e", "no-such-method")
        with pytest.raises(InvalidParameterError):
            service.frequencies("e", "recover_star")  # targets required
        with pytest.raises(InvalidParameterError):
            service.frequencies("e", "detection", targets=TARGETS)  # not retained


class TestSnapshotRestore:
    def test_restore_resumes_without_double_counting(self):
        protocol, reports = _poisoned_reports()
        straight = RecoveryService(protocol)
        straight.ingest("e", reports)

        interrupted = RecoveryService(protocol)
        interrupted.ingest("e", protocol.slice_reports(reports, 0, 1200))
        snap = json.loads(json.dumps(interrupted.snapshot(), default=float))
        resumed = RecoveryService.restore(snap, protocol)
        n = protocol.num_reports(reports)
        resumed.ingest("e", protocol.slice_reports(reports, 1200, n))

        for method in ("raw", "recover"):
            assert np.array_equal(
                resumed.frequencies("e", method).frequencies,
                straight.frequencies("e", method).frequencies,
            )
        assert resumed.ingested_reports == straight.ingested_reports

    def test_restore_rejects_bad_format(self):
        protocol = make_protocol("grr", EPSILON, DOMAIN)
        snap = RecoveryService(protocol).snapshot()
        snap["format"] = -1
        with pytest.raises(InvalidParameterError):
            RecoveryService.restore(snap, protocol)

    def test_store_round_trip_and_ordering(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        assert store.latest() is None
        store.save({"gen": 1})
        path = store.save({"gen": 2})
        assert path.name == "snapshot-00000002.json"
        assert store.latest() == {"gen": 2}
        assert [p.name for p in store.paths()] == [
            "snapshot-00000001.json", "snapshot-00000002.json",
        ]
        # no leftover temp files from the atomic writes
        assert not list((tmp_path / "snaps").glob("*.tmp"))

    def test_store_skips_corrupt_latest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"gen": 1})
        (tmp_path / "snapshot-00000009.json").write_text("{trunc", encoding="utf-8")
        assert store.latest() == {"gen": 1}


async def _request(reader, writer, method, path, body=None):
    """One keep-alive HTTP exchange with a running server."""
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(data)}\r\n\r\n"
    writer.write(head.encode("latin-1") + data)
    await writer.drain()
    status_line = await reader.readline()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), json.loads(payload)


class TestHTTPServer:
    def _run(self, coro):
        asyncio.run(coro)

    def test_endpoints_end_to_end(self, tmp_path):
        protocol, reports = _poisoned_reports()
        n = protocol.num_reports(reports)
        service = RecoveryService(protocol, retain_reports=True)
        store = SnapshotStore(tmp_path)

        async def scenario():
            server = RecoveryHTTPServer(service, snapshot_store=store)
            await server.start()
            assert server.port != 0
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

            status, doc = await _request(reader, writer, "GET", "/healthz")
            assert (status, doc) == (200, {"status": "ok"})

            for start in range(0, n, 1000):
                batch = protocol.slice_reports(reports, start, min(start + 1000, n))
                status, doc = await _request(
                    reader, writer, "POST", "/ingest",
                    {"epoch": "e", "reports": protocol.encode_reports(batch)},
                )
                assert status == 200
            assert doc["total_reports"] == n

            status, doc = await _request(
                reader, writer, "GET", "/frequencies?epoch=e&method=recover"
            )
            assert status == 200 and doc["recomputed"] is True
            expected = recover_frequencies(
                protocol.aggregate(reports), protocol, eta=service.eta
            ).frequencies
            assert np.array_equal(np.asarray(doc["frequencies"]), expected)

            status, doc = await _request(
                reader, writer, "GET",
                "/frequencies?epoch=e&method=detection&targets=1,2",
            )
            assert status == 200

            status, doc = await _request(reader, writer, "GET", "/stats")
            assert status == 200 and doc["ingested_reports"] == n

            status, doc = await _request(reader, writer, "POST", "/snapshot")
            assert status == 200 and "snapshot-" in doc["path"]

            # error handling stays JSON all the way down
            status, doc = await _request(reader, writer, "GET", "/frequencies")
            assert status == 400
            status, doc = await _request(
                reader, writer, "GET", "/frequencies?epoch=missing"
            )
            assert status == 400
            status, doc = await _request(reader, writer, "GET", "/nope")
            assert status == 404
            status, doc = await _request(reader, writer, "POST", "/healthz")
            assert status == 405
            writer.write(
                b"POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nhuh{"
            )
            await writer.drain()
            status_line = await reader.readline()
            assert int(status_line.split()[1]) == 400
            while (await reader.readline()) not in (b"\r\n", b"\n", b""):
                pass
            writer.close()
            await writer.wait_closed()
            await server.stop()

        self._run(scenario())
        assert store.latest() is not None

    def test_snapshot_without_store_is_a_client_error(self):
        protocol, _ = _poisoned_reports()

        async def scenario():
            server = RecoveryHTTPServer(RecoveryService(protocol))
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            status, doc = await _request(reader, writer, "POST", "/snapshot")
            assert status == 400 and "snapshot" in doc["error"]
            writer.close()
            await writer.wait_closed()
            await server.stop()

        self._run(scenario())

    def test_http_snapshot_resumes_service(self, tmp_path):
        protocol, reports = _poisoned_reports()
        n = protocol.num_reports(reports)
        service = RecoveryService(protocol)
        store = SnapshotStore(tmp_path)

        async def scenario():
            server = RecoveryHTTPServer(service, snapshot_store=store)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            half = protocol.slice_reports(reports, 0, 1500)
            await _request(
                reader, writer, "POST", "/ingest",
                {"epoch": "e", "reports": protocol.encode_reports(half)},
            )
            await _request(reader, writer, "POST", "/snapshot")
            writer.close()
            await writer.wait_closed()
            await server.stop()

        self._run(scenario())
        resumed = RecoveryService.restore(store.latest(), protocol)
        resumed.ingest("e", protocol.slice_reports(reports, 1500, n))
        straight = RecoveryService(protocol)
        straight.ingest("e", reports)
        assert np.array_equal(
            resumed.frequencies("e", "recover").frequencies,
            straight.frequencies("e", "recover").frequencies,
        )


class TestServeCLI:
    def test_parser_accepts_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--protocol", "olh", "--epsilon", "2.0",
            "--domain-size", "64", "--olh-cohort", "16", "--chunk-users",
            "4096", "--retain-reports", "--port", "9100",
            "--snapshot-dir", "/tmp/snaps", "--resume",
        ])
        assert args.command == "serve"
        assert args.protocol == "olh"
        assert args.olh_cohort == 16
        assert args.retain_reports is True
        assert args.resume is True

    def test_cohort_flag_requires_olh(self, capsys):
        code = main([
            "serve", "--protocol", "grr", "--olh-cohort", "8",
        ])
        assert code == 2
        assert "--olh-cohort" in capsys.readouterr().err

    def test_resume_with_mismatched_snapshot_fails_fast(self, tmp_path, capsys):
        snapshot_dir = tmp_path / "snaps"
        other = RecoveryService(make_protocol("oue", EPSILON, DOMAIN))
        SnapshotStore(snapshot_dir).save(other.snapshot())
        code = main([
            "serve", "--protocol", "grr", "--epsilon", str(EPSILON),
            "--domain-size", str(DOMAIN),
            "--snapshot-dir", str(snapshot_dir), "--resume",
        ])
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err
