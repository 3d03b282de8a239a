"""Parallel, memory-bounded experiment engine.

The paper's exhibits average MSE/FG over independent trials per cell
across a grid of (dataset x protocol x attack x beta x eta).  This module
is the execution substrate for that grid:

* **Process-parallel trials** — each cell's trial is one picklable
  callable ``trial(seed) -> {metric: value}``: a module-level trial
  function with the cell's parameters bound by :func:`functools.partial`
  and the seed as its last parameter.  :func:`parallel_map` maps it over
  the cell's per-trial seeds on a fork-safe
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Every trial owns a
  :class:`numpy.random.SeedSequence` child spawned from the cell's parent
  (see :func:`repro._rng.spawn_sequences`), so results are bit-identical
  whether the trials run inline (``workers=1``) or across a pool, and
  trial streams never overlap.  The pool lives as long as the
  enclosing :func:`run_scope` — one exhibit run, opened by
  :meth:`repro.sim.shard.SweepConfig.run` — so every cell, adaptive
  checkpoint and exhibit call of that run reuses the same workers; a call
  outside any scope gets a pool of its own.
* **Streaming metric accumulation** — :class:`Welford` keeps running
  mean/variance/count per metric instead of materializing per-trial metric
  lists, so cells can report confidence intervals at no extra memory cost.
  It is a cell's one per-metric trial statistic, in memory and on disk.

:func:`run_adaptive_trials` is every cell's trial step: a fixed trial
count is the :class:`TrialBudget` whose only checkpoint is that count.
Every exhibit cell reaches it through
:func:`repro.sim.experiment.run_cell`, which reads ``workers`` and the
budget off the run's :class:`~repro.sim.experiment.RunContext`;
:func:`repro.sim.experiment.evaluate_recovery` cells run
:func:`trial_metrics` that way.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Protocol, Sequence, TypeVar

import numpy as np

from repro.attacks.base import PoisoningAttack
from repro.core.detection import detect_and_aggregate
from repro.core.recover import recover_frequencies
from repro.datasets.base import Dataset
from repro.exceptions import InvalidParameterError, ReproError
from repro.protocols.base import FrequencyOracle
from repro.sim.metrics import frequency_gain, mse
from repro.sim.outliers import top_increase_items
from repro.sim.pipeline import SimulationMode, TrialResult, run_trial

T = TypeVar("T")
R = TypeVar("R")


# ----------------------------------------------------------------------
# Streaming statistics
# ----------------------------------------------------------------------
@dataclass
class Welford:
    """Streaming mean/variance accumulator (Welford's online algorithm).

    Replaces per-metric Python lists: one float triple per metric instead
    of one float per trial, and it merges (Chan et al.'s parallel update)
    so shards accumulated independently combine exactly.  Stored as
    ``dataclasses.asdict(w)`` — ``{"count", "mean", "m2"}`` — and read
    back as ``Welford(**d)``; JSON round-trips its floats exactly.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def merge(self, other: "Welford") -> None:
        """Fold another accumulator in (parallel/sharded accumulation)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total

    @property
    def variance(self) -> Optional[float]:
        """Unbiased sample variance, ``None`` with fewer than two samples."""
        if self.count < 2:
            return None
        return self.m2 / (self.count - 1)

    @property
    def stderr(self) -> Optional[float]:
        """Standard error of the mean, ``None`` with fewer than two samples."""
        var = self.variance
        if var is None:
            return None
        return math.sqrt(var / self.count)

    @property
    def ci95_halfwidth(self) -> Optional[float]:
        """Half-width of the normal-approximation 95% confidence interval:
        ``1.96 * stderr``, ``None`` with fewer than two samples."""
        stderr = self.stderr
        return None if stderr is None else 1.96 * stderr


def aggregate_metrics(per_trial: Iterable[dict[str, float]]) -> dict[str, Welford]:
    """Fold the ``per_trial`` metric dicts into per-metric statistics.

    Trials are folded in iteration order, so the result is bit-identical
    regardless of how the dicts were computed (inline or across a pool, as
    long as the caller preserves task order — :func:`parallel_map` does).
    """
    accumulators: dict[str, Welford] = {}
    for metrics in per_trial:
        for key, value in metrics.items():
            accumulators.setdefault(key, Welford()).add(float(value))
    return accumulators


# ----------------------------------------------------------------------
# Adaptive trial allocation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialBudget:
    """Variance-targeted trial allocation policy for one experimental cell.

    Instead of a fixed trial count, a budget runs trials in batches until
    every observed metric's 95% CI half-width is at or below
    ``target_halfwidth`` (checked only at the deterministic checkpoints
    ``min_trials, min_trials + batch, min_trials + 2*batch, ...`` capped at
    ``max_trials``), so the *final trial count is a pure function of the
    budget and the canonical per-trial seed stream* — never of how many
    trials happen to sit in a cache.  That makes an adaptive run
    bit-identical to a fixed-budget run at the same final trial count.

    ``target_halfwidth=None`` disables the convergence test: the cell runs
    straight to ``max_trials`` (still in batches, each stored as it
    completes, so it can be topped up later).
    """

    target_halfwidth: Optional[float] = None
    min_trials: int = 2
    max_trials: int = 100
    batch: int = 5

    def __post_init__(self) -> None:
        if self.target_halfwidth is not None and not self.target_halfwidth > 0:
            raise InvalidParameterError(
                f"target_halfwidth must be > 0 or None, got {self.target_halfwidth}"
            )
        if self.min_trials < 1:
            raise InvalidParameterError(
                f"min_trials must be >= 1, got {self.min_trials}"
            )
        if self.max_trials < self.min_trials:
            raise InvalidParameterError(
                f"max_trials ({self.max_trials}) must be >= min_trials "
                f"({self.min_trials})"
            )
        if self.batch < 1:
            raise InvalidParameterError(f"batch must be >= 1, got {self.batch}")

    def checkpoints(self) -> list[int]:
        """The trial counts at which the stopping rule is evaluated.

        ``[min_trials, min_trials + batch, ...]`` capped at (and always
        ending with) ``max_trials``.  Convergence is *only* checked at
        these counts, which is what keeps the final trial count
        independent of pre-existing cache state.
        """
        out: list[int] = []
        count = self.min_trials
        while count < self.max_trials:
            out.append(count)
            count += self.batch
        out.append(self.max_trials)
        return out

    def met(self, stats: dict[str, Welford]) -> bool:
        """Whether ``stats`` satisfies the CI-half-width target.

        True when a ``target_halfwidth`` is set, at least one metric was
        observed, and every observed metric's 95% CI half-width is known
        (two or more observations) and at or below the target.
        """
        if self.target_halfwidth is None or not stats:
            return False
        for stat in stats.values():
            halfwidth = stat.ci95_halfwidth
            if halfwidth is None or halfwidth > self.target_halfwidth:
                return False
        return True

    def fingerprint(self) -> dict[str, Any]:
        """Canonical dict of every result-shaping field, for cache specs.

        All four fields shape the final trial count (``batch`` moves the
        checkpoints), so all four are part of a budgeted cell's identity.
        """
        return {
            "target_halfwidth": self.target_halfwidth,
            "min_trials": self.min_trials,
            "max_trials": self.max_trials,
            "batch": self.batch,
        }


class TrialBlockStore(Protocol):
    """The stored trial stream :func:`run_adaptive_trials` resumes and extends.

    Implemented by :class:`repro.sim.cache.CellBlockStore`; the engine
    only sees this structural interface, so it stays import-free of the
    cache layer.  A store is extended by one driver at a time: under shard
    claims the shard holding a cell's claim runs all of its trials.
    """

    def load(self) -> list[dict[str, float]]:
        """The stored per-trial metrics from trial 0, in trial order."""
        ...  # pragma: no cover - protocol stub

    def append(self, per_trial: list[dict[str, float]]) -> None:
        """Store ``per_trial``, the whole stream from trial 0."""
        ...  # pragma: no cover - protocol stub


@dataclass(frozen=True)
class AdaptiveOutcome:
    """What :func:`run_adaptive_trials` produced for one cell.

    ``stats`` is folded from the first ``trials`` trials in trial order,
    bit-identical to a fixed-budget run at ``trials`` total trials.  A
    block is the batch of trials one checkpoint adds: ``blocks_reused``
    counts the checkpoints reached whose trials were all stored already,
    ``blocks_run`` those that ran trials.
    """

    stats: dict[str, Welford]
    trials: int
    blocks_reused: int
    blocks_run: int

    @property
    def achieved_halfwidth(self) -> Optional[float]:
        """Largest 95% CI half-width across metrics (``None`` if unknown)."""
        widths = [s.ci95_halfwidth for s in self.stats.values()]
        known = [w for w in widths if w is not None]
        if not known or len(known) != len(widths):
            return None
        return max(known)

    def meta(self) -> dict[str, Any]:
        """Summary-entry metadata (block counts, achieved half-width)."""
        return {
            "trials": self.trials,
            "blocks": self.blocks_reused + self.blocks_run,
            "achieved_halfwidth": self.achieved_halfwidth,
        }


def run_adaptive_trials(
    budget: TrialBudget,
    trial: Callable[[np.random.SeedSequence], dict[str, float]],
    seeds: Sequence[np.random.SeedSequence],
    workers: Optional[int] = 1,
    store: Optional[TrialBlockStore] = None,
) -> AdaptiveOutcome:
    """Run one cell's trials until ``budget``'s stopping rule is satisfied.

    The trials already in ``store`` are loaded once.  At each checkpoint
    of ``budget`` the missing trials of the canonical per-trial ``seeds``
    (one :class:`~numpy.random.SeedSequence` child per trial index, at
    least ``budget.max_trials`` of them) run through ``trial`` via
    :func:`parallel_map` (``workers`` as everywhere), and the stream so
    far is appended to ``store``.  The stopping rule is evaluated over
    the *prefix* of trials at each checkpoint, so the final trial count —
    and therefore the returned statistics — is bit-identical to a
    fixed-budget run at that count, regardless of what the store already
    held.  A fixed count ``n`` is ``TrialBudget(min_trials=n,
    max_trials=n)``: its one checkpoint runs the ``n`` trials in one
    :func:`parallel_map` call.
    """
    if len(seeds) < budget.max_trials:
        raise InvalidParameterError(
            f"need at least max_trials={budget.max_trials} seeds, got {len(seeds)}"
        )
    per_trial: list[dict[str, float]] = [] if store is None else store.load()
    blocks_reused = 0
    blocks_run = 0
    final = budget.max_trials
    stats: dict[str, Welford] = {}
    for checkpoint in budget.checkpoints():
        if checkpoint > len(per_trial):
            per_trial += parallel_map(trial, seeds[len(per_trial):checkpoint], workers=workers)
            if store is not None:
                store.append(per_trial)
            blocks_run += 1
        else:
            blocks_reused += 1
        stats = aggregate_metrics(per_trial[:checkpoint])
        if checkpoint >= budget.max_trials or budget.met(stats):
            final = checkpoint
            break
    return AdaptiveOutcome(
        stats=stats,
        trials=final,
        blocks_reused=blocks_reused,
        blocks_run=blocks_run,
    )


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------
@dataclass
class CallCounter:
    """Monotone counter of simulation tasks executed by :func:`parallel_map`.

    The module-level :data:`TASK_COUNTER` instance lets tests and
    benchmarks assert *how much simulation actually ran* — e.g. that a
    warm :class:`repro.sim.cache.CellCache` serves a whole figure with
    zero executed trial tasks.  Counting happens in the parent process
    (tasks submitted, not per-worker), so it is pool-safe.
    """

    count: int = 0

    def add(self, n: int = 1) -> None:
        """Record ``n`` executed tasks."""
        self.count += int(n)

    def reset(self) -> None:
        """Zero the counter (start of a measured section)."""
        self.count = 0


#: Process-wide counter of tasks executed through :func:`parallel_map`.
TASK_COUNTER = CallCounter()


def _cgroup_cpu_quota(root: str = "/sys/fs/cgroup") -> Optional[int]:
    """CPU ceiling imposed by the cgroup CFS quota, or ``None`` if unlimited.

    Containers limited by quota (``docker run --cpus=2``, Kubernetes CPU
    limits) keep a full affinity mask, so the quota must be read
    separately.  Understands cgroup v2 (``cpu.max``: ``"<quota> <period>"``
    or ``"max ..."``) and v1 (``cpu/cpu.cfs_quota_us`` over
    ``cpu/cpu.cfs_period_us``, quota ``-1`` meaning unlimited) under
    ``root``; any read or parse problem means "no known quota".
    """
    def read(*parts: str) -> str:
        with open(os.path.join(root, *parts), encoding="ascii") as handle:
            return handle.read()

    try:
        quota_s, period_s = read("cpu.max").split()[:2]
        if quota_s == "max":
            return None
        quota, period = int(quota_s), int(period_s)
    except (OSError, ValueError, IndexError):
        try:
            quota = int(read("cpu", "cpu.cfs_quota_us"))
            period = int(read("cpu", "cpu.cfs_period_us"))
        except (OSError, ValueError):
            return None
        if quota < 0:
            return None
    if period <= 0:
        return None
    return max(1, math.ceil(quota / period))


def available_cpu_count() -> int:
    """Number of CPUs actually usable by *this* process (always >= 1).

    ``os.cpu_count()`` reports the machine's cores, which oversubscribes
    processes confined to fewer CPUs — CI containers, ``taskset``/cpuset
    restrictions, and shared shard hosts.  The affinity-aware count —
    ``os.process_cpu_count`` (Python 3.13+), else the size of the
    scheduling affinity mask (``os.sched_getaffinity``), else
    ``os.cpu_count`` — is additionally capped by the cgroup CFS quota
    (:func:`_cgroup_cpu_quota` — a ``--cpus=2`` container keeps a full
    affinity mask, so the mask alone is not enough).
    """
    process_count = getattr(os, "process_cpu_count", None)
    if process_count is not None:
        count = process_count() or 1
    else:
        count = 0
        affinity = getattr(os, "sched_getaffinity", None)
        if affinity is not None:
            try:
                count = len(affinity(0))
            except OSError:  # pragma: no cover - affinity unsupported at runtime
                count = 0
        if not count:
            count = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        count = min(count, quota)
    return max(1, count)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` argument: ``None``/``0`` means all cores.

    "All cores" is :func:`available_cpu_count` — the CPUs this process may
    actually run on — not the machine total, so affinity-restricted
    containers and shard hosts are never oversubscribed.
    """
    if workers is None or workers == 0:
        return available_cpu_count()
    if workers < 0:
        raise InvalidParameterError(f"workers must be >= 0 or None, got {workers}")
    return int(workers)


def _pool_context():
    """The multiprocessing context for worker pools (fork where available).

    ``fork`` keeps worker startup at milliseconds and inherits the parent's
    imports; platforms without it (Windows, macOS spawn default) fall back
    to the interpreter default, which only requires the tasks and the
    worker function to be picklable — both hold here.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


#: Worker pools of the open :func:`run_scope`, by worker count; ``None``
#: outside any scope.
_RUN_POOLS: Optional[dict[int, ProcessPoolExecutor]] = None


@contextmanager
def run_scope() -> Iterator[dict[int, ProcessPoolExecutor]]:
    """Share worker pools among every :func:`parallel_map` call inside.

    A pool forks lazily, on the first call that needs one, so a run served
    from cache or run inline forks nothing.  On exit every pool is shut
    down with ``wait=True``, so no worker outlives the scope and each one
    is reaped.  A scope opened inside another is a no-op: the outer scope
    owns the pools.  Forking per scope rather than once per process means
    the workers see module state (test monkeypatches, an installed
    tracer) as it stood when the run began.
    """
    global _RUN_POOLS
    if _RUN_POOLS is not None:
        yield _RUN_POOLS
        return
    pools: dict[int, ProcessPoolExecutor] = {}
    _RUN_POOLS = pools
    try:
        yield pools
    finally:
        _RUN_POOLS = None
        for pool in pools.values():
            pool.shutdown(wait=True)


def parallel_map(
    fn: Callable[[T], R], tasks: Sequence[T], workers: Optional[int] = 1
) -> list[R]:
    """Apply ``fn`` to every task, optionally across a process pool.

    ``workers=1`` (the default) runs inline — no pool, no pickling — and is
    the reference the pool path must match bit for bit.  Results always
    come back in task order.  ``fn`` and the tasks must be picklable when
    ``workers > 1`` (module-level functions, their :func:`functools.partial`
    bindings and seed sequences are).
    Every call adds ``len(tasks)`` to :data:`TASK_COUNTER`, which is how
    tests measure that cached cells skip simulation entirely.

    A pooled call runs on the enclosing :func:`run_scope`'s pool of
    ``resolve_workers(workers)`` processes, forking it if this is the
    scope's first pooled call; outside any scope the call opens its own,
    so its pool lives for this call only.  A worker that dies (killed,
    out of memory, ``os._exit``) raises :class:`~repro.exceptions.ReproError`
    and the broken pool is dropped, so a later call forks a fresh one.
    """
    tasks = list(tasks)
    TASK_COUNTER.add(len(tasks))
    count = resolve_workers(workers)
    if count == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    chunksize = max(1, len(tasks) // (min(count, len(tasks)) * 4))
    with run_scope() as pools:
        if count not in pools:
            pools[count] = ProcessPoolExecutor(max_workers=count, mp_context=_pool_context())
        try:
            return list(pools[count].map(fn, tasks, chunksize=chunksize))
        except BrokenProcessPool as exc:
            pools.pop(count).shutdown(wait=True)
            raise ReproError(
                f"a worker process died while running {len(tasks)} tasks: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# Per-trial metric computation (the worker body)
# ----------------------------------------------------------------------
def resolve_star_targets(
    attack: PoisoningAttack, trial: TrialResult, aa_top_k: int
) -> Optional[np.ndarray]:
    """The attacker-selected items LDPRecover* assumes (Section VI-A4).

    For MGA (and any targeted ``attack``): the explicit target items.
    For AA: the top-``aa_top_k`` items of ``trial`` by frequency increase
    relative to the server's historical estimate (we use the genuine
    aggregate as the history stand-in).  Untargeted Manip: the same
    top-increase rule applies, since the server cannot distinguish attack
    types a priori.
    """
    explicit = attack.target_items
    if explicit is not None:
        return explicit
    if trial.genuine_frequencies is None:
        return None
    k = min(aa_top_k, trial.true_frequencies.size)
    return top_increase_items(trial.genuine_frequencies, trial.poisoned_frequencies, k)


def trial_metrics(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: Optional[PoisoningAttack],
    beta: float,
    eta: float,
    mode: SimulationMode,
    with_star: bool,
    with_detection: bool,
    aa_top_k: int,
    chunk_users: Optional[int],
    seed: np.random.SeedSequence,
) -> dict[str, float]:
    """Run one evaluation-cell trial and compute every recovery metric.

    This is the trial of :func:`repro.sim.experiment.evaluate_recovery`,
    which binds every parameter but ``seed`` with :func:`functools.partial`:
    simulate one poisoning round of ``attack`` (``None`` for an unpoisoned
    round) against ``protocol`` over ``dataset`` at malicious fraction
    ``beta`` in simulation ``mode`` (``chunk_users`` users per chunk in
    chunked mode), apply LDPRecover (zero-threshold ``eta``), LDPRecover*
    when ``with_star`` (targets per :func:`resolve_star_targets`, the top
    ``aa_top_k`` increases for untargeted attacks) and Detection when
    ``with_detection``, and return a flat ``{metric: value}`` dict.  All
    randomness comes from ``seed``, the trial's own
    :class:`~numpy.random.SeedSequence` child, so workers share no state
    and results are independent of placement.  Metrics that do not apply
    (e.g. frequency gain of an untargeted attack) are simply absent,
    which the streaming accumulator treats as "no observation".
    """
    gen = np.random.default_rng(seed)
    trial = run_trial(
        dataset, protocol, attack, beta=beta, mode=mode, rng=gen, chunk_users=chunk_users
    )
    truth = trial.true_frequencies
    out: dict[str, float] = {"mse_before": mse(truth, trial.poisoned_frequencies)}

    recovery = recover_frequencies(trial.poisoned_frequencies, protocol, eta=eta)
    out["mse_recover"] = mse(truth, recovery.frequencies)
    if trial.malicious_frequencies is not None:
        out["mse_malicious_estimate"] = mse(
            trial.malicious_frequencies, recovery.malicious.frequencies
        )

    star_targets = None
    if attack is not None and with_star:
        star_targets = resolve_star_targets(attack, trial, aa_top_k)
    star = None
    if star_targets is not None and star_targets.size:
        star = recover_frequencies(
            trial.poisoned_frequencies, protocol, eta=eta, target_items=star_targets
        )
        out["mse_recover_star"] = mse(truth, star.frequencies)
        if trial.malicious_frequencies is not None:
            out["mse_malicious_estimate_star"] = mse(
                trial.malicious_frequencies, star.malicious.frequencies
            )

    detection_freq = None
    if with_detection and star_targets is not None and star_targets.size:
        detection = detect_and_aggregate(
            protocol, trial.reports, star_targets, counts=trial.support_counts
        )
        detection_freq = detection.frequencies
        out["mse_detection"] = mse(truth, detection_freq)

    measured_targets = attack.target_items if attack is not None else None
    if measured_targets is not None and measured_targets.size:
        genuine = trial.genuine_frequencies
        out["fg_before"] = frequency_gain(
            genuine, trial.poisoned_frequencies, measured_targets
        )
        out["fg_recover"] = frequency_gain(genuine, recovery.frequencies, measured_targets)
        if star is not None:
            out["fg_recover_star"] = frequency_gain(
                genuine, star.frequencies, measured_targets
            )
        if detection_freq is not None:
            out["fg_detection"] = frequency_gain(genuine, detection_freq, measured_targets)
    return out


__all__ = [
    "AdaptiveOutcome",
    "CallCounter",
    "TASK_COUNTER",
    "TrialBlockStore",
    "TrialBudget",
    "Welford",
    "aggregate_metrics",
    "available_cpu_count",
    "parallel_map",
    "resolve_star_targets",
    "resolve_workers",
    "run_adaptive_trials",
    "run_scope",
    "trial_metrics",
]
