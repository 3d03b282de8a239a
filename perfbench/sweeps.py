"""The two exhibit-sweep workloads: ``sweep-report`` and ``sweep-marginal``.

``sweep-report`` runs report-level (``mode="sampled"``) exhibits: every
genuine report is perturbed and aggregated, the Detection and k-means
defenses rescan the reports, and trials run inline (``workers=1``), so
the process pool is bypassed.  ``sweep-marginal`` runs fast-mode exhibits
at paper scale on a two-worker pool: genuine counts are sampled from their
marginals (perturbation bypassed), so the cost sits in crafting malicious
reports, OLH hashing and pool dispatch.

One timed pass runs the workload's exhibits once against a fresh cell
cache.  A warm read re-renders the same exhibits from that now-warm cache.
Host speed is probed (:func:`common.probe`) throughout a cold pass and
between warm reads, and timings are reported at the reference speed.
"""

from __future__ import annotations

import math
import pathlib
import resource
import subprocess
import sys
import time
from typing import Any

import common

#: Exhibits per workload and scale: (figure, SweepConfig keyword args).
#: ``tiny`` is the smoke-test scale.
EXHIBITS: dict[str, dict[str, list[tuple[str, dict[str, Any]]]]] = {
    "sweep-report": {
        "full": [
            ("fig3", {"num_users": 100_000, "trials": 2, "workers": 1}),
            ("fig9", {"num_users": 20_000, "trials": 2, "workers": 1}),
        ],
        "tiny": [
            ("fig3", {"num_users": 6_000, "trials": 2, "workers": 1}),
            ("fig9", {"num_users": 6_000, "trials": 2, "workers": 1}),
        ],
    },
    "sweep-marginal": {
        "full": [
            ("table1", {"trials": 2, "workers": 2}),
            ("fig8", {"trials": 2, "workers": 2}),
            ("fig10", {"trials": 2, "workers": 2}),
        ],
        "tiny": [
            ("table1", {"num_users": 20_000, "trials": 2, "workers": 2}),
            ("fig8", {"num_users": 20_000, "trials": 2, "workers": 2}),
            ("fig10", {"num_users": 20_000, "trials": 2, "workers": 2}),
        ],
    },
}

#: Datasets an exhibit loads, where not just IPUMS.
_DATASETS = {"table1": ("ipums", "fire")}

SETUP_REPEATS = 9
COLD_PASSES = 2
MIN_WARM_READS = 300
#: ``read_p99_ms`` is the median of the p99s of this many consecutive
#: slices of the warm reads.
READ_WINDOWS = 9


def configs(workload: str, scale: str, seed: int) -> list[Any]:
    from repro.sim.shard import SweepConfig

    return [
        SweepConfig(figure=figure, seed=seed, **kwargs)
        for figure, kwargs in EXHIBITS[workload][scale]
    ]


def setup(workload: str, scale: str, cache_dir: pathlib.Path) -> None:
    """What a cold process does before its first exhibit can run:
    import the package, build the datasets and open the cell cache (which
    hashes the simulation sources into its version tag)."""
    from repro.sim.cache import CellCache
    from repro.sim.figures import load_dataset

    for figure, kwargs in EXHIBITS[workload][scale]:
        for name in _DATASETS.get(figure, ("ipums",)):
            load_dataset(name, kwargs.get("num_users"))
    CellCache(cache_dir)


def _probe_setup(workload: str, scale: str, work: pathlib.Path) -> tuple[float, float]:
    """Seconds from spawning a cold interpreter to its ready line, at the
    reference speed and raw."""
    cmd = [
        sys.executable, "-B", str(common.HERE / "probe.py"),
        workload, scale, str(common.fresh_dir(work)),
    ]
    before = common.speed()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=common.child_env())
    line = common.read_line(proc, timeout=120.0)
    code, _rss = common.reap(proc, timeout=30.0)
    if code != 0 or not line or not line.startswith("ready "):
        raise RuntimeError(f"setup probe failed (exit {code}, output {line!r})")
    seconds = float(line.split()[1]) - start
    return seconds * (before + common.speed()) / 2, seconds


def _finite(value: Any) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return True


def _col(rows: list[dict[str, Any]], name: str) -> list[float]:
    return [float(row[name]) for row in rows]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def shape_checks(figure: str, rows: list[dict[str, Any]]) -> list[tuple[bool, str]]:
    """The qualitative claims ``benchmarks/bench_<figure>*.py`` assert.

    They compare averages over cells, which hold for every seed; the
    per-cell orderings those files also assert depend on their pinned
    seeds and are left out.
    """
    if figure == "fig3":
        mga = [row for row in rows if str(row["cell"]).startswith("mga")]
        return [
            (_mean(_col(rows, "mse_ldprecover")) < _mean(_col(rows, "mse_before")),
             "fig3: LDPRecover beats the poisoned vector"),
            (_mean(_col(rows, "mse_ldprecover")) < _mean(_col(rows, "mse_detection")),
             "fig3: LDPRecover beats Detection"),
            (_mean(_col(mga, "mse_ldprecover_star")) < _mean(_col(mga, "mse_ldprecover")),
             "fig3: LDPRecover* wins under MGA"),
        ]
    if figure == "fig9":
        return [
            (_mean(_col(rows, "mse_ldprecover_km")) < 0.7 * _mean(_col(rows, "mse_kmeans")),
             "fig9: LDPRecover-KM beats k-means by 30%"),
        ]
    if figure == "fig8":
        mga, ipa = _col(rows, "mse_mga"), _col(rows, "mse_mga_ipa")
        return [
            (_mean(ipa) < _mean(mga), "fig8: IPA is weaker than MGA"),
            (max(m / i for m, i in zip(mga, ipa)) > 10, "fig8: the gap reaches 10x"),
        ]
    if figure == "fig10":
        grr = [row for row in rows if row["cell"] == "mul-aa-grr"]
        gain = 1 - _mean(_col(grr, "mse_ldprecover")) / _mean(_col(grr, "mse_before"))
        return [
            (_mean(_col(rows, "mse_ldprecover")) < _mean(_col(rows, "mse_before")),
             "fig10: recovery beats the poisoned vector"),
            (gain > 0.5, "fig10: GRR improvement above 50%"),
        ]
    if figure == "table1":
        grr = [row for row in rows if row["protocol"] == "grr"]
        rest = [row for row in rows if row["protocol"] != "grr"]
        return [
            (_mean(_col(grr, "mse_after_recovery")) < _mean(_col(grr, "mse_before_recovery")),
             "table1: GRR improves on clean data"),
            (all(r["mse_after_recovery"] > 0.05 * r["mse_before_recovery"] for r in rest),
             "table1: no spurious large win for OUE/OLH"),
        ]
    return []


def _cold_pass(
    cfgs: list[Any], cache_dir: pathlib.Path
) -> tuple[float, float, list[Any], Any]:
    """Run every exhibit against a fresh cache; returns the raw wall time,
    the wall time at the reference speed, the rows and the cache."""
    from repro.sim.cache import CellCache

    cache = CellCache(cache_dir)
    with common.Timed() as timed:
        rows = [cfg.run(cache) for cfg in cfgs]
    return timed.seconds, timed.at_ref, rows, cache


def _check_rows(
    checks: common.Checks, cfgs: list[Any], rows: list[Any], scale: str
) -> None:
    for cfg, exhibit_rows in zip(cfgs, rows):
        checks.op(bool(exhibit_rows) and _finite(exhibit_rows), f"{cfg.figure}: rows finite")
        if scale == "full":
            for ok, what in shape_checks(cfg.figure, exhibit_rows):
                checks.op(ok, what)


def _warm_read(
    checks: common.Checks, cfgs: list[Any], cache: Any, expected: bytes
) -> float:
    """Re-render every exhibit from the warm ``cache``; returns seconds."""
    from repro.sim.engine import TASK_COUNTER

    TASK_COUNTER.reset()
    start = time.perf_counter()
    rows = [cfg.run(cache) for cfg in cfgs]
    seconds = time.perf_counter() - start
    checks.op(
        common.canonical(rows) == expected and TASK_COUNTER.count == 0,
        "warm pass returns identical rows with zero simulation tasks",
    )
    return seconds


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> int:
    checks = common.Checks()
    metrics = common.Metrics()
    with common.WorkDir() as work:
        if trace:
            setup(workload, scale, common.fresh_dir(work))
            _traced(configs(workload, scale, seed), work, checks, metrics, scale)
        else:
            common.pin(common.ONE_CPU)
            setups = [_probe_setup(workload, scale, work) for _ in range(SETUP_REPEATS)]
            setup(workload, scale, common.fresh_dir(work))
            _untraced(configs(workload, scale, seed), work, seconds, checks, metrics, scale)
            metrics.add("setup_s", common.median([s for s, _raw in setups]), "s", len(setups))
            metrics.note("setup_wall_s", common.median([raw for _s, raw in setups]), "s", len(setups))
            metrics.add("peak_rss_mb", _peak_rss_mb(), "MB")
    return common.emit(common.provenance(workload, seed, trace), checks, metrics)


def _untraced(
    cfgs: list[Any],
    work: pathlib.Path,
    seconds: float,
    checks: common.Checks,
    metrics: common.Metrics,
    scale: str,
) -> None:
    """:data:`COLD_PASSES` cold passes, then warm reads until ``seconds``
    have passed (at least :data:`MIN_WARM_READS` of them).  Runs on one
    CPU, except cold passes whose exhibits use a process pool."""
    deadline = time.perf_counter() + seconds
    pooled = any(cfg.workers > 1 for cfg in cfgs)
    walls: list[float] = []
    scaled: list[float] = []
    expected = b""
    cache = None
    for _ in range(COLD_PASSES):
        common.pin(common.ALL_CPUS if pooled else common.ONE_CPU)
        try:
            wall, at_ref, rows, cache = _cold_pass(cfgs, common.fresh_dir(work))
        finally:
            common.pin(common.ONE_CPU)
        walls.append(wall)
        scaled.append(at_ref)
        if not expected:
            expected = common.canonical(rows)
            _check_rows(checks, cfgs, rows, scale)
        else:
            checks.op(common.canonical(rows) == expected, "cold passes agree")
    reads: list[float] = []
    probes: list[float] = []
    while len(reads) < MIN_WARM_READS or time.perf_counter() < deadline:
        probes.append(common.probe())
        reads.append(_warm_read(checks, cfgs, cache, expected))
    probes.append(common.probe())
    speeds = common.local_speeds(probes, len(reads))
    at_ref_reads = [read * speed for read, speed in zip(reads, speeds)]
    metrics.add("run_s", common.median(scaled), "s", len(scaled))
    metrics.add("read_p50_ms", 1e3 * common.percentile(at_ref_reads, 50), "ms", len(reads))
    metrics.add(
        "read_p99_ms",
        1e3 * common.windowed_percentile(at_ref_reads, 99, READ_WINDOWS),
        "ms",
        len(reads),
    )
    metrics.note("run_wall_s", common.median(walls), "s", len(walls))
    metrics.note("read_wall_p50_ms", 1e3 * common.percentile(reads, 50), "ms", len(reads))
    metrics.note("host_speed", common.median(speeds), "ratio", len(probes))


def _traced(
    cfgs: list[Any],
    work: pathlib.Path,
    checks: common.Checks,
    metrics: common.Metrics,
    scale: str,
) -> None:
    """One untraced and one traced cold pass; per-layer table of the latter."""
    import tracing

    untraced_wall, _scaled, rows, cache = _cold_pass(cfgs, common.fresh_dir(work))
    expected = common.canonical(rows)
    _check_rows(checks, cfgs, rows, scale)
    _warm_read(checks, cfgs, cache, expected)
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        traced_wall, _scaled, traced_rows, _cache = _cold_pass(cfgs, common.fresh_dir(work))
    finally:
        uninstall()
    checks.op(common.canonical(traced_rows) == expected, "rows identical with tracing on")
    summary = tracing.summarize(recorder.spans, traced_wall)
    tracing.report(metrics, summary, traced_wall, traced_wall - untraced_wall)
