"""Shared plumbing of the benchmark: paths, hermetic subprocesses,
statistics, provenance and the result line."""

from __future__ import annotations

import json
import os
import pathlib
import platform
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Scratch space for cache directories and span files; removed after a run.
WORK_ROOT = ROOT / ".perfbench_work"


def bootstrap() -> None:
    """Make ``repro`` importable from the checkout without writing bytecode.

    The package is not installed, and the tree tracks ``__pycache__`` files
    that an import would otherwise rewrite.
    """
    sys.dont_write_bytecode = True
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment of every subprocess: sources on the path, no bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class WorkDir:
    """A fresh directory under :data:`WORK_ROOT`, deleted on exit."""

    def __enter__(self) -> pathlib.Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = pathlib.Path(tempfile.mkdtemp(dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc: Any) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def fresh_dir(parent: pathlib.Path) -> pathlib.Path:
    """An empty subdirectory of ``parent``."""
    return pathlib.Path(tempfile.mkdtemp(dir=parent))


def read_line(proc: subprocess.Popen, timeout: float) -> Optional[str]:
    """The next stdout line of ``proc``, or ``None`` on timeout or exit."""
    assert proc.stdout is not None
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            return None
    line = proc.stdout.readline()
    return line.decode("utf-8", "replace") if line else None


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``); returns its exit
    code and peak resident memory in MB."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode, usage.ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def windowed_percentile(values: list[float], q: float, windows: int) -> float:
    """Median over ``windows`` consecutive slices of ``values`` of each
    slice's ``q``-th percentile; one stall moves one slice, not the result."""
    size = max(1, len(values) // windows)
    slices = [values[i * size:(i + 1) * size] for i in range(windows)]
    return median([percentile(part, q) for part in slices if part])


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
# The shared 2-vCPU hosts this benchmark runs on change speed by up to a
# third within seconds (a fixed interpreter loop spreads 0.30 IQR/median
# across 30-second windows), and each vCPU changes on its own.  Every
# timing is therefore taken beside a fixed probe on the CPUs the timed
# work ran on and reported at the reference speed: raw seconds times
# PROBE_REF_S over the probe's time around the measurement.  On a host
# whose probe takes PROBE_REF_S the two are equal; the raw wall times are
# printed in the table too.  Work that runs in one process at a time is
# pinned to one CPU (:func:`pin`), so the probe measures that CPU.

#: Seconds :func:`probe` takes on an unloaded Intel Xeon 2-vCPU host.
PROBE_REF_S = 0.003

_PROBE_ARRAY = None
_PROBE_DOC = [{"cell": i, "value": i * 0.25} for i in range(200)]


def probe() -> float:
    """CPU seconds one fixed mix of interpreter, json and numpy work takes
    now.  CPU time, so that a probe sharing its CPU with other work still
    measures the CPU's speed."""
    global _PROBE_ARRAY
    import numpy as np

    if _PROBE_ARRAY is None:
        _PROBE_ARRAY = np.arange(4096, dtype=np.float64)
    start = time.thread_time()
    tally: dict[int, int] = {}
    for i in range(12_000):
        tally[i % 211] = tally.get(i % 211, 0) + i
    for _ in range(4):
        json.loads(json.dumps(_PROBE_DOC))
    for _ in range(20):
        np.sort(_PROBE_ARRAY[::-1]).sum()
    return time.thread_time() - start


#: The CPUs the benchmark may use, and the one it pins serial work to.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
ONE_CPU = frozenset({min(ALL_CPUS)})


def pin(cpus: frozenset) -> None:
    """Run this process, and the processes it starts from now on, on ``cpus``."""
    os.sched_setaffinity(0, cpus)


def speed(repeats: int = 3) -> float:
    """Host speed now relative to the reference (below 1 when slower):
    :data:`PROBE_REF_S` over the median of ``repeats`` probes, averaged
    over the CPUs this process may run on, each probed in turn."""
    own = frozenset(os.sched_getaffinity(0))
    speeds = []
    for cpu in sorted(own):
        if len(own) > 1:
            pin(frozenset({cpu}))
        speeds.append(PROBE_REF_S / median([probe() for _ in range(repeats)]))
    if len(own) > 1:
        pin(own)
    return sum(speeds) / len(speeds)


class Timed:
    """Times a long block at the reference speed: a ``SIGALRM`` handler
    probes the speed every :data:`TICK_S` seconds while the block runs, and
    the probes' own time is left out of ``seconds``.  The CPU may change
    speed several times within the block, so a probe at each end would
    not do.  Interval timers are not inherited across ``fork``, so pool
    workers never tick."""

    TICK_S = 0.2

    def __enter__(self) -> "Timed":
        self.speeds = [speed(repeats=1)]
        self.cost = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self.speeds.append(speed(repeats=1))
        self.cost += time.perf_counter() - start

    def __exit__(self, *exc: Any) -> None:
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.speeds.append(speed(repeats=1))
        #: Raw seconds of the block, and the same at the reference speed.
        self.seconds = elapsed - self.cost
        self.at_ref = self.seconds * sum(self.speeds) / len(self.speeds)


def local_speeds(probes: list[float], count: int, reach: int = 1) -> list[float]:
    """Speed around each of ``count`` timed operations interleaved with
    ``probes`` (probe ``i`` ran just before operation ``i``): the median
    of the probes within ``reach`` places."""
    return [
        PROBE_REF_S / median(probes[max(0, i - reach + 1):i + reach + 1])
        for i in range(count)
    ]


def canonical(rows: Any) -> bytes:
    """Byte form of exhibit rows, for identity checks."""
    return json.dumps(rows, sort_keys=True, separators=(",", ":")).encode("utf-8")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, trace: bool) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


class Checks:
    """Counts operations and failed checks; failures are also printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)
        return ok


class Metrics:
    """Named metric values with units and sample counts.

    ``add`` feeds the result line; ``note`` only the printed table.
    """

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str, int]] = {}
        self.notes: dict[str, tuple[float, str, int]] = {}

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.values[name] = (float(value), unit, int(samples))

    def note(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.notes[name] = (float(value), unit, int(samples))


def emit(info: dict[str, Any], checks: Checks, metrics: Metrics) -> int:
    """Print the metric table, provenance and the result line; exit code."""
    table = dict(metrics.values, **metrics.notes)
    width = max((len(name) for name in table), default=16)
    for name, (value, unit, samples) in table.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<10} n={samples}")
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"{'ops_failed_ratio':<{width}}  {ratio:>14.6g} {'ratio':<10} n={checks.attempted}")
    samples = {name: entry[2] for name, entry in metrics.values.items()}
    print("provenance " + json.dumps(dict(info, samples=samples), sort_keys=True))
    correct = checks.failed == 0 and checks.attempted > 0
    result = {
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in metrics.values.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1
