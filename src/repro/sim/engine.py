"""Parallel, memory-bounded experiment engine.

The paper's exhibits average MSE/FG over independent trials per cell
across a grid of (dataset x protocol x attack x beta x eta).  This module
is the execution substrate for that grid:

* **Process-parallel trials** — :func:`parallel_map` fans picklable trial
  tasks out over a fork-safe :class:`~concurrent.futures.ProcessPoolExecutor`.
  Every trial owns a :class:`numpy.random.SeedSequence` child spawned from
  the cell's parent (see :func:`repro._rng.spawn_sequences`), so results
  are bit-identical whether the tasks run inline (``workers=1``) or across
  a pool, and trial streams never overlap.  The pool lives as long as the
  enclosing :func:`run_scope` — one exhibit run, opened by
  :meth:`repro.sim.shard.SweepConfig.run` — so every cell, adaptive block
  and exhibit call of that run reuses the same workers; a call outside
  any scope gets a pool of its own.
* **Streaming metric accumulation** — :class:`Welford` keeps running
  mean/variance/count per metric instead of materializing per-trial metric
  lists, so cells can report confidence intervals at no extra memory cost.
* **Chunked trial simulation** — :func:`run_chunked_trial` perturbs and
  aggregates genuine users in bounded-memory chunks of ``support_counts``
  partial sums, so report-level OUE/SUE simulations of tens of millions of
  users fit in RAM (an ``(n, d)`` boolean report matrix never exists).

:func:`run_trials` is every cell's trial step — fixed-budget through
:func:`parallel_map`, or adaptive through :func:`run_adaptive_trials`;
:func:`repro.sim.experiment.evaluate_recovery` runs it over
:func:`trial_metrics`, and the exhibit generators and the CLI expose the
``workers`` / ``chunk_users`` knobs end to end.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Protocol, Sequence, TypeVar

import numpy as np

from repro._rng import RngLike, as_generator
from repro.attacks.base import PoisoningAttack
from repro.core.detection import detect_and_aggregate
from repro.core.recover import recover_frequencies
from repro.datasets.base import Dataset
from repro.exceptions import InvalidParameterError, ReproError
from repro.protocols.base import DEFAULT_CHUNK_USERS, FrequencyOracle
from repro.sim.metrics import frequency_gain, mse
from repro.sim.outliers import top_increase_items
from repro.sim.pipeline import SimulationMode, TrialResult, malicious_count, run_trial

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
    so shards accumulated independently combine exactly.
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

    def snapshot(self) -> "MetricStats":
        """Freeze the current statistics into an immutable record."""
        return MetricStats(
            mean=self.mean, variance=self.variance, stderr=self.stderr, count=self.count
        )


@dataclass(frozen=True)
class MetricStats:
    """Frozen summary of one metric across the trials of a cell."""

    mean: float
    variance: Optional[float]
    stderr: Optional[float]
    count: int

    @property
    def ci95_halfwidth(self) -> Optional[float]:
        """Half-width of the normal-approximation 95% confidence interval."""
        if self.stderr is None:
            return None
        return 1.96 * self.stderr


def aggregate_metrics(per_trial: Iterable[dict[str, float]]) -> dict[str, MetricStats]:
    """Fold the ``per_trial`` metric dicts into per-metric statistics.

    Trials are folded in iteration order, so the result is bit-identical
    regardless of how the dicts were computed (inline or across a pool, as
    long as the caller preserves task order — :func:`parallel_map` does).
    """
    accumulators: dict[str, Welford] = {}
    for metrics in per_trial:
        for key, value in metrics.items():
            accumulators.setdefault(key, Welford()).add(float(value))
    return {key: acc.snapshot() for key, acc in accumulators.items()}


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
    straight to ``max_trials`` (still in appendable batches, so it can be
    topped up later).
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

    def met(self, stats: dict[str, MetricStats]) -> bool:
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
    """Persistence hooks :func:`run_adaptive_trials` drives blocks through.

    Implemented by :class:`repro.sim.cache.CellBlockStore` (and its
    claim-coordinated shard wrapper); the engine only sees this structural
    interface, so it stays import-free of the cache layer.
    """

    def load(self) -> list[tuple[int, int, list[dict[str, float]]]]:
        """Validated, contiguous-from-zero ``(start, stop, per_trial)`` blocks."""
        ...  # pragma: no cover - protocol stub

    def peek(self, start: int, stop: int) -> Optional[list[dict[str, float]]]:
        """The per-trial metrics of block ``[start, stop)`` if present and valid."""
        ...  # pragma: no cover - protocol stub

    def append(self, start: int, stop: int, per_trial: list[dict[str, float]]) -> None:
        """Persist block ``[start, stop)``; a no-op unless it extends the chain."""
        ...  # pragma: no cover - protocol stub

    def claim(self, start: int, stop: int) -> bool:
        """Try to claim block ``[start, stop)`` for exactly-once execution."""
        ...  # pragma: no cover - protocol stub

    def release(self, start: int, stop: int) -> None:
        """Release a claim previously granted by :meth:`claim`."""
        ...  # pragma: no cover - protocol stub


@dataclass(frozen=True)
class AdaptiveOutcome:
    """What :func:`run_adaptive_trials` produced for one cell.

    ``per_trial`` holds the first ``trials`` trials' metric dicts in trial
    order — the ground truth ``stats`` is folded from, bit-identical to a
    fixed-budget run at ``trials`` total trials.  ``blocks_reused`` /
    ``blocks_run`` split the executed blocks into served-from-cache and
    freshly simulated.
    """

    per_trial: list[dict[str, float]]
    stats: dict[str, MetricStats]
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


#: Seconds between re-checks while another worker holds a block claim.
BLOCK_CLAIM_POLL_SECONDS = 0.05


def run_adaptive_trials(
    budget: TrialBudget,
    metrics_fn: Callable[[Any], dict[str, float]],
    task_for: Callable[[np.random.SeedSequence], Any],
    seeds: Sequence[np.random.SeedSequence],
    workers: Optional[int] = 1,
    store: Optional[TrialBlockStore] = None,
) -> AdaptiveOutcome:
    """Run one cell's trials until ``budget``'s stopping rule is satisfied.

    At each checkpoint of ``budget`` the missing trial range is built by
    calling ``task_for`` on the canonical per-trial ``seeds`` (one
    :class:`~numpy.random.SeedSequence` child per trial index, at least
    ``budget.max_trials`` of them), executed with ``metrics_fn`` through
    :func:`parallel_map` (``workers`` as everywhere), and appended to
    ``store`` as a block.  Blocks already in ``store`` are reused instead
    of re-simulated; a block claimed by another worker is awaited rather
    than duplicated (exactly-once under shard claim coordination).  The
    stopping rule is evaluated over the *prefix* of trials at each
    checkpoint, so the final trial count — and therefore the returned
    statistics — is bit-identical to a fixed-budget run at that count,
    regardless of what the store already held.
    """
    if len(seeds) < budget.max_trials:
        raise InvalidParameterError(
            f"need at least max_trials={budget.max_trials} seeds, got {len(seeds)}"
        )
    per_trial: list[dict[str, float]] = []
    blocks_reused = 0
    blocks_run = 0
    if store is not None:
        for _start, _stop, chunk in store.load():
            per_trial.extend(chunk)
            blocks_reused += 1

    def run_block(start: int, stop: int) -> list[dict[str, float]]:
        tasks = [task_for(seeds[i]) for i in range(start, stop)]
        return parallel_map(metrics_fn, tasks, workers=workers)

    final = budget.max_trials
    stats: dict[str, MetricStats] = {}
    for checkpoint in budget.checkpoints():
        if checkpoint > len(per_trial):
            start, stop = len(per_trial), checkpoint
            if store is None:
                per_trial.extend(run_block(start, stop))
                blocks_run += 1
            else:
                chunk: Optional[list[dict[str, float]]] = None
                while True:
                    if store.claim(start, stop):
                        try:
                            chunk = store.peek(start, stop)
                            if chunk is None:
                                chunk = run_block(start, stop)
                                store.append(start, stop, chunk)
                                blocks_run += 1
                            else:
                                blocks_reused += 1
                        finally:
                            store.release(start, stop)
                        break
                    chunk = store.peek(start, stop)
                    if chunk is not None:
                        blocks_reused += 1
                        break
                    time.sleep(BLOCK_CLAIM_POLL_SECONDS)
                per_trial.extend(chunk)
        stats = aggregate_metrics(per_trial[:checkpoint])
        if checkpoint >= budget.max_trials or budget.met(stats):
            final = checkpoint
            break
    return AdaptiveOutcome(
        per_trial=per_trial[:final],
        stats=stats,
        trials=final,
        blocks_reused=blocks_reused,
        blocks_run=blocks_run,
    )


def run_trials(
    metrics_fn: Callable[[Any], dict[str, float]],
    task_for: Callable[[np.random.SeedSequence], Any],
    seeds: Sequence[np.random.SeedSequence],
    workers: Optional[int] = 1,
    budget: Optional[TrialBudget] = None,
    store: Optional[TrialBlockStore] = None,
) -> tuple[dict[str, MetricStats], Optional[AdaptiveOutcome]]:
    """One cell's trial step, fixed-budget or adaptive.

    Without a ``budget`` every seed in ``seeds`` becomes one task via
    ``task_for`` and the tasks run through :func:`parallel_map` with
    ``metrics_fn`` over ``workers`` processes; the outcome is ``None``.
    With a :class:`TrialBudget` the trials run through
    :func:`run_adaptive_trials` instead, resuming from and appending to
    the trial-block ``store`` when one is given.  Returns the aggregated
    per-metric statistics and the adaptive outcome.
    """
    if budget is None:
        tasks = [task_for(seed) for seed in seeds]
        return aggregate_metrics(parallel_map(metrics_fn, tasks, workers=workers)), None
    outcome = run_adaptive_trials(
        budget, metrics_fn, task_for, seeds, workers=workers, store=store
    )
    return outcome.stats, outcome


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
    ``workers > 1`` (module-level functions and dataclasses of arrays are).
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
# Chunked (bounded-memory) simulation
# ----------------------------------------------------------------------
def _validate_chunk(chunk_users: Optional[int]) -> int:
    chunk = DEFAULT_CHUNK_USERS if chunk_users is None else int(chunk_users)
    if chunk < 1:
        raise InvalidParameterError(f"chunk_users must be >= 1, got {chunk_users}")
    return chunk


def chunked_support_counts(
    protocol: FrequencyOracle, reports: Any, chunk_users: Optional[int] = None
) -> np.ndarray:
    """Aggregate a report batch chunk by chunk into ``support_counts``.

    A one-shot fold through the protocol's explicit-state streaming kernel
    (:meth:`~repro.protocols.base.FrequencyOracle.fold_support_counts`):
    equals ``protocol.support_counts(reports)`` exactly (support counting
    is a sum over reports), including when the batch size is not divisible
    by ``chunk_users`` (default :data:`DEFAULT_CHUNK_USERS`); peak
    transient memory is one chunk's worth.
    """
    chunk = _validate_chunk(chunk_users)
    return protocol.fold_support_counts(
        protocol.init_support_state(), reports, chunk_users=chunk
    )


def chunked_genuine_counts(
    protocol: FrequencyOracle,
    true_counts: np.ndarray,
    rng: RngLike = None,
    chunk_users: Optional[int] = None,
) -> np.ndarray:
    """Exact report-level genuine aggregation in bounded memory.

    Splits the population histogram ``true_counts`` into chunk-sized
    sub-histograms by sampling without replacement off ``rng``
    (multivariate hypergeometric), perturbs each chunk's users with
    ``protocol`` and accumulates ``support_counts`` partial sums.  Because
    aggregation is permutation-invariant and the chunks partition the
    population uniformly at random, for per-user-seed protocols the
    result is distributed exactly as the unchunked
    ``support_counts(perturb(items))`` while the live report batch never
    exceeds ``chunk_users`` rows (default :data:`DEFAULT_CHUNK_USERS`).
    The exception is a cohort-mode oracle (``OLH(cohort=K)``): each chunk
    draws its own fresh cohort, so the chunk schedule shapes the report
    correlation structure (per-user marginals are unchanged, joint
    distribution is not) — which is why
    :func:`repro.sim.cache.resolved_cohort_chunk` puts the resolved chunk
    size into those cells' cache keys.  For a cohort-mode OLH oracle every
    chunk draws a fresh cohort of shared seeds, which is what makes its
    grouped O(K*d + n) aggregation apply per chunk.
    """
    gen = as_generator(rng)
    chunk = _validate_chunk(chunk_users)
    remaining = np.asarray(true_counts, dtype=np.int64).copy()
    d = remaining.size
    total = np.zeros(d, dtype=np.int64)
    left = int(remaining.sum())
    while left > 0:
        take = min(chunk, left)
        sub = gen.multivariate_hypergeometric(remaining, take).astype(np.int64)
        remaining -= sub
        left -= take
        items = np.repeat(np.arange(d, dtype=np.int64), sub)
        total += protocol.support_counts(protocol.perturb(items, gen))
    return total


def chunked_malicious_counts(
    protocol: FrequencyOracle,
    attack: PoisoningAttack,
    m: int,
    rng: RngLike = None,
    chunk_users: Optional[int] = None,
) -> np.ndarray:
    """Craft and aggregate ``m`` malicious reports in bounded chunks.

    ``attack`` crafts reports for ``protocol`` in batches of at most
    ``chunk_users`` (default :data:`DEFAULT_CHUNK_USERS`) drawing off
    ``rng``: malicious reports are normally i.i.d. draws from the
    attacker's report distribution (the adaptive-attack contract of
    Section V-C), so crafting in chunks is statistically identical to one
    crafted batch.  Attacks
    that declare ``iid_reports = False`` (e.g. :class:`MultiAttacker`'s
    deterministic weight split, which re-rounds shares per call and would
    starve low-weight attackers) are crafted in a **single batch** instead
    and only the support counting is chunked: the crafted reports
    materialize once, so the memory high-water mark for those attacks is
    the full ``m``-report batch itself (``m x d`` booleans for OUE, O(m)
    pairs for OLH/GRR) plus one chunk's scan — *not* bounded by
    ``chunk_users``.  ``m`` is a ``beta`` fraction of the population.
    """
    gen = as_generator(rng)
    chunk = _validate_chunk(chunk_users)
    if not getattr(attack, "iid_reports", True):
        return chunked_support_counts(protocol, attack.craft(protocol, m, gen), chunk)
    total = np.zeros(protocol.domain_size, dtype=np.int64)
    for start in range(0, m, chunk):
        take = min(chunk, m - start)
        total += protocol.support_counts(attack.craft(protocol, take, gen))
    return total


def run_chunked_trial(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: Optional[PoisoningAttack] = None,
    beta: float = 0.05,
    rng: RngLike = None,
    chunk_users: Optional[int] = None,
) -> TrialResult:
    """One poisoning round via the exact report-level path, chunked.

    Semantics of ``run_trial(mode="sampled")`` — every genuine user of
    ``dataset`` perturbs through ``protocol`` and ``attack`` (if any, at
    malicious fraction ``beta``) genuinely crafts, all drawing off ``rng``
    — but reports are aggregated chunk by chunk and never retained, so
    the memory high-water mark is ``O(chunk_users * d)`` instead of
    ``O(n * d)`` for the genuine phase and for i.i.d.-crafting attacks.
    Attacks with ``iid_reports = False`` (e.g. ``MultiAttacker``) craft
    their full ``m``-report batch up front (see
    :func:`chunked_malicious_counts`), so the malicious phase of those
    cells peaks at the crafted batch size — ``m x d`` booleans for OUE —
    before chunked aggregation resumes the bound.  Raw reports are
    consequently unavailable (``reports is None``), which rules out
    report-level defenses.
    """
    if dataset.domain_size != protocol.domain_size:
        raise InvalidParameterError(
            f"dataset domain size {dataset.domain_size} != protocol domain size "
            f"{protocol.domain_size}"
        )
    gen = as_generator(rng)
    n = dataset.num_users
    m = malicious_count(n, beta) if attack is not None else 0

    genuine_counts = chunked_genuine_counts(protocol, dataset.counts, gen, chunk_users)
    genuine_freq = protocol.estimate_frequencies(genuine_counts, n)

    if m > 0 and attack is not None:
        malicious_counts = chunked_malicious_counts(protocol, attack, m, gen, chunk_users)
        malicious_freq = protocol.estimate_frequencies(malicious_counts, m)
        poisoned_freq = protocol.estimate_frequencies(
            genuine_counts + malicious_counts, n + m
        )
    else:
        malicious_freq = None
        poisoned_freq = genuine_freq

    return TrialResult(
        true_frequencies=dataset.frequencies,
        genuine_frequencies=genuine_freq,
        poisoned_frequencies=poisoned_freq,
        malicious_frequencies=malicious_freq,
        n=n,
        m=m,
    )


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


@dataclass(frozen=True)
class TrialTask:
    """One picklable unit of work: a single trial of one experimental cell.

    Carries everything a worker process needs — the cell configuration and
    the trial's own :class:`~numpy.random.SeedSequence` child — so workers
    share no state and results are independent of placement.
    """

    dataset: Dataset
    protocol: FrequencyOracle
    attack: Optional[PoisoningAttack]
    seed: np.random.SeedSequence
    beta: float = 0.05
    eta: float = 0.2
    mode: SimulationMode = "fast"
    with_star: bool = True
    with_detection: bool = False
    aa_top_k: int = 5
    chunk_users: Optional[int] = field(default=None)


def trial_metrics(task: TrialTask) -> dict[str, float]:
    """Run one trial ``task`` and compute every recovery metric of the cell.

    This is the worker body of :func:`repro.sim.experiment.evaluate_recovery`:
    simulate the poisoning round, apply LDPRecover / LDPRecover* /
    Detection, and return a flat ``{metric: value}`` dict.  Metrics that do
    not apply (e.g. frequency gain of an untargeted attack) are simply
    absent, which the streaming accumulator treats as "no observation".
    """
    gen = np.random.default_rng(task.seed)
    dataset, protocol, attack = task.dataset, task.protocol, task.attack
    trial = run_trial(
        dataset, protocol, attack, beta=task.beta, mode=task.mode, rng=gen,
        chunk_users=task.chunk_users,
    )
    truth = trial.true_frequencies
    out: dict[str, float] = {"mse_before": mse(truth, trial.poisoned_frequencies)}

    recovery = recover_frequencies(trial.poisoned_frequencies, protocol, eta=task.eta)
    out["mse_recover"] = mse(truth, recovery.frequencies)
    if trial.malicious_frequencies is not None:
        out["mse_malicious_estimate"] = mse(
            trial.malicious_frequencies, recovery.malicious.frequencies
        )

    star_targets = None
    if attack is not None and task.with_star:
        star_targets = resolve_star_targets(attack, trial, task.aa_top_k)
    star = None
    if star_targets is not None and star_targets.size:
        star = recover_frequencies(
            trial.poisoned_frequencies, protocol, eta=task.eta, target_items=star_targets
        )
        out["mse_recover_star"] = mse(truth, star.frequencies)
        if trial.malicious_frequencies is not None:
            out["mse_malicious_estimate_star"] = mse(
                trial.malicious_frequencies, star.malicious.frequencies
            )

    detection_freq = None
    if task.with_detection and star_targets is not None and star_targets.size:
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
    "BLOCK_CLAIM_POLL_SECONDS",
    "CallCounter",
    "DEFAULT_CHUNK_USERS",
    "MetricStats",
    "TASK_COUNTER",
    "TrialBlockStore",
    "TrialBudget",
    "TrialTask",
    "Welford",
    "aggregate_metrics",
    "available_cpu_count",
    "chunked_genuine_counts",
    "chunked_malicious_counts",
    "chunked_support_counts",
    "parallel_map",
    "resolve_star_targets",
    "resolve_workers",
    "run_adaptive_trials",
    "run_chunked_trial",
    "run_scope",
    "run_trials",
    "trial_metrics",
]
