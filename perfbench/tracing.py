"""In-memory span recorder that times repro's layers from outside.

:func:`install` replaces the public functions and methods listed in
:data:`TARGETS` with thin wrappers that record one :class:`Span` per call
into a :class:`Recorder`.  Nothing inside ``src/`` changes: module-level
functions are swapped in every loaded ``repro`` module that holds them by
name (``recover_frequencies`` in ``sim.engine`` and ``serve.service``,
``parallel_map`` in ``sim.figures``...), and methods are swapped on every
class that defines them.  The returned callable restores the originals.

A call into a layer from inside the same layer (``put_evaluation`` calling
``put``, ``hash_domains`` calling ``hash_items``) records no second span,
so ``calls`` counts entries into a layer.  ``parallel_map`` is special:
its pool workers are forked, inherit the wrappers, and ship their spans
back with each task result, where they are re-parented under the
dispatch span.  Wrappers never touch arguments or results, so rows and
served bytes are identical with tracing on and off.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Every layer the benchmark reports, in table order.
LAYERS = (
    "datasets.load",
    "protocols.perturb",
    "protocols.hashing",
    "protocols.support_counts",
    "protocols.sample_genuine_counts",
    "protocols.wire_decode",
    "protocols.fold",
    "attacks.craft",
    "core.recover",
    "core.malicious_estimate",
    "core.estimator",
    "core.projection",
    "core.detection",
    "core.kmeans",
    "sim.pipeline",
    "sim.engine.dispatch",
    "sim.cache",
    "sim.streaming",
    "serve.service",
    "serve.http",
)

#: Work counts reported next to a layer's calls and self time.
WORK_COUNTS = (
    ("protocols.perturb", "items"),
    ("protocols.hashing", "cells"),
    ("protocols.wire_decode", "bytes"),
    ("protocols.wire_decode", "reports"),
    ("attacks.craft", "reports"),
    ("sim.cache", "hits"),
    ("sim.cache", "misses"),
    ("sim.cache", "bytes_written"),
)


#: Per-layer figures that are not span sums: (name, unit, better).
EXTRA_METRICS = (
    ("sim.engine.dispatch.pool_efficiency", "ratio", "higher"),
    ("serve.service.view_hit_ratio", "ratio", "higher"),
    ("serve.http.ingest_s", "s", "lower"),
    ("serve.http.frequencies_s", "s", "lower"),
    *(
        metric
        for proto in ("grr", "oue", "olh")
        for metric in (
            (f"serve.ingest.{proto}.reports_per_s", "reports/s", "higher"),
            (f"serve.ingest.{proto}.p50_ms", "ms", "lower"),
            (f"serve.ingest.{proto}.p99_ms", "ms", "lower"),
        )
    ),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run prints: (name, unit, better)."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.share", "ratio", "lower"))
    for layer, count in WORK_COUNTS:
        out.append((f"{layer}.{count}", "count", "higher" if count == "hits" else "lower"))
    return out + list(EXTRA_METRICS)


@dataclass
class Span:
    """One timed call: ``parent`` indexes the recorder's spans, -1 for a root."""

    layer: str
    op: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: Optional[dict[str, float]] = None


@dataclass
class Recorder:
    """Spans of one process, kept in memory until the benchmark ends."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)

    def begin(self, layer: str, op: str) -> int:
        """Open a span under the current one; returns its index, or -1 when
        the current span already belongs to ``layer``."""
        if self.stack and self.spans[self.stack[-1]].layer == layer:
            return -1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(layer, op, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` opened (no-op for -1)."""
        if index >= 0:
            self.spans[index].end = time.perf_counter()
            self.stack.pop()

    def adopt(self, spans: list[Span], parent: int) -> None:
        """Append another process's spans, re-rooting them under ``parent``."""
        offset = len(self.spans)
        for span in spans:
            span.parent = parent if span.parent < 0 else span.parent + offset
            self.spans.append(span)

    def reset(self) -> None:
        """Forget every span (start of a traced pass)."""
        self.spans = []
        self.stack = []


def _num(value: Any) -> int:
    return int(getattr(value, "size", 0) or 0)


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs.get(name)


def _payload_bytes(payload: Any) -> int:
    """Base64 characters in a wire payload (OLH nests two arrays)."""
    if isinstance(payload, dict):
        if isinstance(payload.get("data"), str):
            return len(payload["data"])
        return sum(_payload_bytes(payload[key]) for key in sorted(payload))
    return 0


def _perturb_work(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"items": _num(_arg(args, kwargs, 1, "items"))}


def _hash_work(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"cells": _num(result)}


def _decode_work(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    protocol = args[0]
    return {
        "bytes": _payload_bytes(_arg(args, kwargs, 1, "payload")),
        "reports": protocol.num_reports(result),
    }


def _craft_work(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    m = _arg(args, kwargs, 2, "m")
    return {"reports": int(m) if m is not None else 0}


def _craft_supporting_work(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"reports": _num(_arg(args, kwargs, 1, "items"))}


def _cache_get_work(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"hits": 0 if result is None else 1, "misses": 1 if result is None else 0}


def _cache_put_work(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"bytes_written": result.stat().st_size}


Work = Optional[Callable[[tuple, dict, Any], dict[str, float]]]

#: (layer, owner, attribute names, work count).  An owner ``"module:x"``
#: names module functions; ``"class:mod.Base"`` wraps the attribute on
#: ``Base`` and on every subclass that overrides it.
TARGETS: tuple[tuple[str, str, tuple[str, ...], Work], ...] = (
    ("datasets.load", "module:repro.sim.figures", ("load_dataset",), None),
    ("protocols.perturb", "class:repro.protocols.base.FrequencyOracle", ("perturb",), _perturb_work),
    ("protocols.hashing", "module:repro.protocols.hashing", ("hash_items", "hash_domains"), _hash_work),
    ("protocols.hashing", "module:repro.protocols.hashing", ("value_histograms",), None),
    (
        "protocols.support_counts",
        "class:repro.protocols.base.FrequencyOracle",
        ("support_counts", "target_support_counts", "reports_supporting_any"),
        None,
    ),
    (
        "protocols.sample_genuine_counts",
        "class:repro.protocols.base.FrequencyOracle",
        ("sample_genuine_counts",),
        None,
    ),
    ("protocols.wire_decode", "class:repro.protocols.base.FrequencyOracle", ("decode_reports",), _decode_work),
    ("protocols.fold", "class:repro.protocols.base.FrequencyOracle", ("fold_support_counts",), None),
    ("attacks.craft", "class:repro.attacks.base.PoisoningAttack", ("craft",), _craft_work),
    (
        "attacks.craft",
        "class:repro.protocols.base.FrequencyOracle",
        ("craft_supporting",),
        _craft_supporting_work,
    ),
    ("core.recover", "module:repro.core.recover", ("recover_frequencies",), None),
    ("core.malicious_estimate", "module:repro.core.malicious", ("build_malicious_estimate",), None),
    ("core.estimator", "module:repro.core.estimator", ("genuine_frequency_estimate",), None),
    ("core.projection", "module:repro.core.projection", ("project_onto_simplex_kkt",), None),
    ("core.detection", "module:repro.core.detection", ("detect_and_aggregate",), None),
    ("core.kmeans", "module:repro.core.kmeans", ("recover_with_kmeans",), None),
    ("sim.pipeline", "module:repro.sim.pipeline", ("run_trial",), None),
    ("sim.cache", "class:repro.sim.cache.CellCache", ("get", "get_evaluation"), _cache_get_work),
    ("sim.cache", "class:repro.sim.cache.CellCache", ("put", "put_evaluation"), _cache_put_work),
    ("sim.cache", "class:repro.sim.cache.CellBlockStore", ("load", "peek", "append"), None),
    ("sim.streaming", "class:repro.sim.streaming.AggregatorState", ("ingest", "estimate_frequencies"), None),
    ("serve.service", "class:repro.serve.service.RecoveryService", ("ingest_payload", "frequencies"), None),
)


def _wrap(recorder: Recorder, layer: str, fn: Callable, work: Work) -> Callable:
    op = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.begin(layer, op)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if index >= 0 and work is not None:
            recorder.spans[index].counts = work(args, kwargs, result)
        return result

    return wrapper


def _subclasses(base: type) -> list[type]:
    out, todo = [base], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _resolve(dotted: str) -> Any:
    module_name, _, attr = dotted.rpartition(".")
    __import__(module_name)
    return getattr(sys.modules[module_name], attr)


@dataclass(frozen=True)
class _PoolResult:
    """A pool task's result plus the spans its worker recorded."""

    value: Any
    spans: list[Span]
    busy_s: float


#: The recorder installed in this process.  Forked pool workers inherit
#: it, which is how :class:`_PoolTask` finds it without pickling spans.
_ACTIVE: list[Recorder] = []


@dataclass(frozen=True)
class _PoolTask:
    """Picklable wrapper of a ``parallel_map`` callable.

    In the process that installed tracing it just calls ``fn``; in a forked
    worker it records the task's spans afresh and returns them with the
    result, so they can be merged under the parent's dispatch span.
    """

    fn: Callable[[Any], Any]
    owner_pid: int

    def __call__(self, task: Any) -> Any:
        if os.getpid() == self.owner_pid or not _ACTIVE:
            return self.fn(task)
        recorder = _ACTIVE[-1]
        recorder.reset()
        start = time.perf_counter()
        value = self.fn(task)
        return _PoolResult(value, recorder.spans, time.perf_counter() - start)


def _wrap_parallel_map(recorder: Recorder, original: Callable) -> Callable:
    from repro.sim.engine import resolve_workers

    @functools.wraps(original)
    def parallel_map(fn: Callable, tasks: Any, workers: Optional[int] = 1) -> list:
        tasks = list(tasks)
        index = recorder.begin("sim.engine.dispatch", "parallel_map")
        start = time.perf_counter()
        try:
            results = original(_PoolTask(fn, os.getpid()), tasks, workers=workers)
        finally:
            recorder.end(index)
        wall = time.perf_counter() - start
        pooled = [r for r in results if isinstance(r, _PoolResult)]
        if pooled:
            for result in pooled:
                recorder.adopt(result.spans, index)
            busy = sum(result.busy_s for result in pooled)
            capacity = min(resolve_workers(workers), len(tasks)) * wall
            results = [r.value if isinstance(r, _PoolResult) else r for r in results]
        else:
            busy, capacity = wall, wall
        if index >= 0:
            recorder.spans[index].counts = {"busy_s": busy, "capacity_s": capacity}
        return results

    return parallel_map


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every :data:`TARGETS` entry and ``parallel_map``; returns the
    function that restores the originals."""
    if _ACTIVE:
        raise RuntimeError("tracing is already installed in this process")
    # Load every module that imports a wrapped function by name first, so
    # the by-name references are found and replaced.
    for name in ("repro.cli", "repro.sim.shard", "repro.serve"):
        __import__(name)
    restore: list[tuple[Any, str, Any]] = []

    def replace_everywhere(original: Callable, wrapper: Callable) -> None:
        for name in sorted(sys.modules):
            module = sys.modules[name]
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in sorted(vars(module).items()):
                if value is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    for layer, owner, names, work in TARGETS:
        kind, _, dotted = owner.partition(":")
        if kind == "module":
            __import__(dotted)
            module = sys.modules[dotted]
            for name in names:
                original = getattr(module, name)
                replace_everywhere(original, _wrap(recorder, layer, original, work))
            continue
        for cls in _subclasses(_resolve(dotted)):
            for name in names:
                original = cls.__dict__.get(name)
                if callable(original):
                    restore.append((cls, name, original))
                    setattr(cls, name, _wrap(recorder, layer, original, work))

    import repro.sim.engine as engine

    original_map = engine.parallel_map
    replace_everywhere(original_map, _wrap_parallel_map(recorder, original_map))
    _ACTIVE.append(recorder)

    def uninstall() -> None:
        for owner_obj, attr, original in reversed(restore):
            setattr(owner_obj, attr, original)
        _ACTIVE.clear()

    return uninstall


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def summarize(spans: list[Span], wall: float) -> dict[str, Any]:
    """Per-layer calls, self seconds, share of ``wall`` and work counts.

    A span's self time is its duration minus the part of it its child
    spans cover.  Children from pool workers run in parallel, so shares of
    pool-side layers can add up to more than one on multi-worker runs.
    ``covered_s`` is the part of the recording process's timeline that
    some root span covers.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    layers: dict[str, dict[str, float]] = {
        name: {"calls": 0, "self_s": 0.0} for name in LAYERS
    }
    busy = capacity = 0.0
    for index, span in enumerate(spans):
        row = layers.setdefault(span.layer, {"calls": 0, "self_s": 0.0})
        inner = [
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(index, [])
            if hi > span.start and lo < span.end
        ]
        row["calls"] += 1
        row["self_s"] += (span.end - span.start) - _union(inner)
        for key, value in sorted((span.counts or {}).items()):
            if key == "busy_s":
                busy += value
            elif key == "capacity_s":
                capacity += value
            else:
                row[key] = row.get(key, 0) + value
    for row in layers.values():
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    roots = [(span.start, span.end) for span in spans if span.parent < 0]
    return {
        "layers": layers,
        "pool_efficiency": busy / capacity if capacity > 0 else 0.0,
        "covered_s": _union(roots),
    }


def report(
    metrics: Any,
    summary: dict[str, Any],
    wall: float,
    overhead: float,
    extra: Optional[dict[str, float]] = None,
) -> None:
    """Add every :func:`per_layer_metrics` entry to ``metrics``; layers and
    figures a workload never exercises read 0."""
    values: dict[str, float] = dict(extra or {})
    for layer, row in summary["layers"].items():
        for key, value in row.items():
            values[f"{layer}.{key}"] = value
    values["sim.engine.dispatch.pool_efficiency"] = summary["pool_efficiency"]
    values["trace.wall_s"] = wall
    values["trace.coverage"] = summary["covered_s"] / wall if wall > 0 else 0.0
    values["trace.overhead_s"] = overhead
    values["unattributed_s"] = max(0.0, wall - summary["covered_s"])
    for name, unit, _better in per_layer_metrics():
        metrics.add(name, values.get(name, 0.0), unit)
