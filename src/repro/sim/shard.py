"""Cache-coordinated multi-machine sharding of exhibit sweeps.

The paper's exhibits are grids of pure experimental cells, and the cell
cache (:mod:`repro.sim.cache`) already identifies every cell by the
canonical hash of its full spec.  This module turns a *shared* cache
directory into the coordination layer for running one sweep across many
machines:

* :class:`SweepConfig` names one exhibit sweep — the same knobs the CLI's
  ``run`` subcommand takes — and can execute it against any cache.
* :func:`enumerate_cells` lists the sweep's cells (key + kind, in
  generation order) **without simulating anything**: the generators run
  against a recording cache whose every lookup "hits" with rows rendered
  from empty statistics, so the exact per-cell specs/seeds are reproduced
  at zero cost.
* :func:`run_shard` executes one shard's share of the cells through the
  ordinary engine, writing results into the shared cache.  Cells are
  assigned either **statically** (``shard_index``/``shard_count``,
  deterministic hash-mod over the canonical key — see
  :func:`shard_of_key`) or **dynamically** via :class:`ClaimQueue`
  work-stealing: atomic ``.claim`` files next to the cache entries, with
  a stale-claim TTL so a crashed worker's cells are re-claimable.
* :func:`sweep_status` reports done / claimed / missing cells, and
  :func:`merge_sweep` renders the final rows from the fully populated
  cache — bit-identical to an unsharded run, because every row is
  rendered from the same stored statistics; per-shard timing statistics
  merge exactly via :meth:`repro.sim.engine.Welford.merge`.

Determinism: a cell's spec (and therefore its key, its seeds, and its
result) depends only on the sweep configuration, never on which shard
runs it, so ``shards=N`` equals ``shards=1`` bit for bit.  Exactly-once
execution holds whenever claims outlive their cells (pick
``claim_ttl`` larger than the slowest cell); even an expired-claim double
run is harmless because both writers store identical payloads atomically.

Shard coordination state lives under ``<cache root>/_shard/`` —
``claims/*.claim`` plus per-shard ``reports/**/*.report`` files — which
the cache's own maintenance ignores (it only considers ``*.json``
entries and ``*.trials`` streams).  Because the root embeds the versioned cache tag, machines
running different code never share claims either.  Both are written and
read back through the cache's one writer and one reader
(:func:`~repro.sim.cache.write_json_atomic`,
:func:`~repro.sim.cache.read_json_object`), so a damaged record ends no
command with a traceback: a report that does not read is skipped, and a
claim that does not read is an ownerless claim aged by its file's
modification time.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import socket
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional, TypeVar

from repro.exceptions import InvalidParameterError, ShardIncompleteError
from repro.sim.cache import (
    CellBlockStore,
    CellCache,
    _welford_of,
    canonical_key,
    read_json_object,
    write_json_atomic,
)
from repro.sim.engine import TASK_COUNTER, TrialBudget, Welford, run_scope
from repro.sim.experiment import RunContext
from repro.sim.scenarios import EXHIBITS, SWEEP_OPTIONS

__all__ = [
    "DEFAULT_CLAIM_TTL",
    "ClaimQueue",
    "EnumeratedCell",
    "ShardReport",
    "SweepConfig",
    "SweepStatus",
    "enumerate_cells",
    "merge_sweep",
    "merged_cell_seconds",
    "run_shard",
    "shard_of_key",
    "sweep_status",
]

#: Default stale-claim horizon (seconds): a ``.claim`` file older than
#: this is treated as abandoned by a crashed worker and may be stolen.
#: Pick a TTL comfortably above the slowest cell of the sweep.
DEFAULT_CLAIM_TTL = 1800.0


# ----------------------------------------------------------------------
# Sweep configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepConfig:
    """One exhibit sweep: which figure to regenerate, with which knobs.

    Mirrors the CLI's ``run``/``shard`` flags — ``figure`` picks the
    exhibit (a paper figure or scenario sweep registered in
    :data:`repro.sim.scenarios.EXHIBITS`), ``dataset``/``parameter``/
    ``chunk_users``/``olh_cohort`` go to the exhibits that consume them,
    ``num_users``/``trials``/``seed`` shape the cells, and ``workers``
    plus the adaptive budget become the run's
    :class:`~repro.sim.experiment.RunContext`.  Only ``workers`` is a
    pure execution knob that shards may vary freely (it never enters a
    cell key); every other field must match across the fleet —
    including ``chunk_users``, whose *presence* switches fast-mode
    exhibits to ``mode="chunked"``, a spec field of every cell key (and
    whose resolved size additionally keys cohort-mode OLH cells).
    ``target_ci``/``max_trials``/``trial_batch`` select adaptive
    CI-targeted trial allocation (see :meth:`budget`); they shape every
    cell's budget checkpoints and therefore must also match across the
    fleet.
    """

    figure: str
    dataset: str = "ipums"
    parameter: str = "beta"
    num_users: Optional[int] = None
    trials: int = 5
    seed: int = 0
    workers: Optional[int] = 1
    chunk_users: Optional[int] = None
    olh_cohort: Optional[int] = None
    target_ci: Optional[float] = None
    max_trials: Optional[int] = None
    trial_batch: Optional[int] = None

    @classmethod
    def exhibit_names(cls) -> tuple[str, ...]:
        """Every dispatchable exhibit, in registration order: paper
        figures, then scenario sweeps (``--figure`` / ``--exhibit``
        choices)."""
        return tuple(EXHIBITS)

    def __post_init__(self) -> None:
        if self.figure not in EXHIBITS:
            raise InvalidParameterError(
                f"figure must be one of {list(self.exhibit_names())}, "
                f"got {self.figure!r}"
            )
        # Checked here, not where a trial first reads them, so a warm cache
        # cannot serve rows for an out-of-range value.
        for option in ("chunk_users", "olh_cohort"):
            value = getattr(self, option)
            if value is not None and value < 1:
                raise InvalidParameterError(f"{option} must be >= 1, got {value}")
        self.budget()  # surface inconsistent budget knobs at construction

    def budget(self) -> Optional[TrialBudget]:
        """The sweep's adaptive :class:`~repro.sim.engine.TrialBudget`.

        ``None`` when none of ``target_ci`` / ``max_trials`` /
        ``trial_batch`` is set — the sweep then runs the historical fixed
        ``trials`` budget with byte-identical cell keys and digests.
        Otherwise ``trials`` becomes the budget's ``min_trials`` (the
        first stopping-rule checkpoint), ``max_trials`` defaults to
        ``10 * trials`` and ``trial_batch`` (the checkpoint stride)
        defaults to ``trials``.
        """
        if self.target_ci is None and self.max_trials is None and self.trial_batch is None:
            return None
        return TrialBudget(
            target_halfwidth=self.target_ci,
            min_trials=self.trials,
            max_trials=self.max_trials if self.max_trials is not None else 10 * self.trials,
            batch=self.trial_batch if self.trial_batch is not None else self.trials,
        )

    def run(self, cache: Optional[CellCache]) -> list[dict[str, object]]:
        """Execute the sweep against ``cache`` and return its exhibit rows.

        This is the single dispatch point shared by the CLI's ``run``
        subcommand, shard execution, enumeration, and merging — so every
        one of them reproduces the exact same cells.  The exhibit's
        generator receives the cell-shaping fields every exhibit takes,
        the only :class:`~repro.sim.experiment.RunContext` of the run
        (``workers``, ``cache`` and :meth:`budget`), and only the
        :data:`~repro.sim.scenarios.SWEEP_OPTIONS` it consumes.  Building
        the context rejects a negative ``workers`` before any cell is
        looked up.

        The run owns one worker pool (:func:`~repro.sim.engine.run_scope`):
        it forks on the first pooled trial batch, serves every later cell
        of the run, and is shut down, its workers reaped, before this
        returns.  A run that simulates nothing in a pool forks nothing.
        """
        exhibit = EXHIBITS[self.figure]
        kwargs: dict[str, Any] = dict(
            num_users=self.num_users,
            trials=self.trials,
            rng=self.seed,
            ctx=RunContext(workers=self.workers, cache=cache, budget=self.budget()),
        )
        for option in exhibit.consumes:
            kwargs["dataset_name" if option == "dataset" else option] = getattr(self, option)
        with run_scope():
            return exhibit.rows(**kwargs)

    def digest(self) -> str:
        """Short stable id of this sweep's cell-defining fields.

        Groups shard reports of the same sweep together, so only fields
        the chosen ``figure`` actually consumes participate, and a field
        that cannot change the cells never does: ``workers`` never, and
        of the :data:`~repro.sim.scenarios.SWEEP_OPTIONS` only those the
        exhibit's generator takes (its ``consumes``).  A worker that
        passes a flag its figure ignores (``--dataset fire`` on fig8)
        therefore still reports under the same digest as every other
        worker of that sweep.  The adaptive budget knobs participate only
        when at least one is set, so every fixed-budget digest is
        byte-identical to what it was before the knobs existed.
        """
        spec = asdict(self)
        spec.pop("workers")
        if self.budget() is None:
            for knob in ("target_ci", "max_trials", "trial_batch"):
                spec.pop(knob)
        for option in SWEEP_OPTIONS:
            if option not in EXHIBITS[self.figure].consumes:
                spec.pop(option)
        return canonical_key(spec)[:12]


# ----------------------------------------------------------------------
# Cell enumeration (zero simulation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EnumeratedCell:
    """One cell of a sweep: its position, canonical key, and spec kind."""

    index: int
    key: str
    kind: str


#: A cell's rows, as its exhibit renders them from the cell's statistics.
_R = TypeVar("_R")


class _RecordingCache(CellCache):
    """A cache whose every lookup hits with rows rendered from empty
    statistics: running a generator against it records each cell's spec
    (in generation order) while executing zero simulation tasks and
    touching no disk."""

    def __init__(self) -> None:
        super().__init__(cache_dir=os.devnull, tag="enumeration")
        self.specs: list[dict[str, Any]] = []

    def get(
        self,
        spec: dict[str, Any],
        rows_for: Callable[[dict[str, Welford]], list[_R]],
    ) -> Optional[list[_R]]:
        """Record ``spec`` and report a hit; its rows are discarded."""
        self.specs.append(spec)
        return rows_for(defaultdict(Welford))

    def put(
        self,
        spec: dict[str, Any],
        stats: dict[str, Welford],
        meta: Optional[dict[str, Any]] = None,
    ) -> pathlib.Path:
        """Unreachable in normal enumeration (every get hits); no disk IO."""
        return pathlib.Path(os.devnull)  # pragma: no cover


def enumerate_cells(config: SweepConfig) -> list[EnumeratedCell]:
    """List ``config``'s experimental cells without simulating any of them.

    Runs the sweep's generator against a recording cache, so the cell
    specs — including every per-trial seed — are byte-identical to what a
    real run produces, and the canonical keys match the entries a real
    run stores.  Order is generation order; duplicate specs (there are
    none in the shipped exhibits) would keep their first position.
    """
    recorder = _RecordingCache()
    config.run(recorder)
    cells: list[EnumeratedCell] = []
    seen: set[str] = set()
    for spec in recorder.specs:
        key = canonical_key(spec)
        if key in seen:
            continue  # pragma: no cover - exhibits have no duplicate cells
        seen.add(key)
        cells.append(
            EnumeratedCell(index=len(cells), key=key, kind=str(spec.get("kind", "row")))
        )
    return cells


# ----------------------------------------------------------------------
# Cell assignment: static hash-mod and dynamic claim files
# ----------------------------------------------------------------------
def shard_of_key(key: str, shard_count: int) -> int:
    """Deterministic shard owning ``key`` under static partitioning.

    The canonical key is already a uniform SHA-256 hash, so taking its
    leading 64 bits modulo ``shard_count`` balances cells across shards
    and — crucially — every machine computes the same assignment with no
    communication at all.
    """
    if shard_count < 1:
        raise InvalidParameterError(f"shard_count must be >= 1, got {shard_count}")
    return int(key[:16], 16) % shard_count


class ClaimQueue:
    """Work-stealing queue of ``.claim`` files in a shared directory.

    One claim file per cell key.  Acquisition is atomic — an
    ``O_CREAT | O_EXCL`` create that exactly one contender wins — so two
    machines polling the same shared cache directory never both own a
    live claim.  A claim whose recorded ``claimed_at`` is older than
    ``ttl`` seconds is *stale* (its owner crashed without releasing):
    stealing rewrites it through
    :func:`~repro.sim.cache.write_json_atomic` (temp file + ``os.replace``,
    atomic on POSIX) and then reads the record back, only treating the
    claim as won when the readback is the stealer's own record.  A claim
    file that :func:`~repro.sim.cache.read_json_object` cannot read (not
    JSON, nested too deeply, or a ``claimed_at`` that is not a number)
    is an ownerless claim aged by the file's modification time.
    Completed cells release their claim; crashes release implicitly via
    the TTL.

    Parameters
    ----------
    directory:
        Where the claim files live (created on first use).
    owner:
        Identity written into claims; defaults to ``host-pid``.
    ttl:
        Stale-claim horizon in seconds (:data:`DEFAULT_CLAIM_TTL`).
        Must exceed the sweep's slowest cell, or a slow-but-alive
        worker's cell may be duplicated (never corrupted: duplicate
        runs of a cell store bit-identical payloads).
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        owner: Optional[str] = None,
        ttl: float = DEFAULT_CLAIM_TTL,
    ) -> None:
        if ttl <= 0:
            raise InvalidParameterError(f"ttl must be > 0, got {ttl}")
        self.directory = pathlib.Path(directory)
        self.owner = owner or f"{socket.gethostname()}-{os.getpid()}"
        self.ttl = float(ttl)

    def path_for(self, key: str) -> pathlib.Path:
        """The claim file path of cell ``key``."""
        return self.directory / f"{key}.claim"

    def _record(self) -> dict[str, Any]:
        return {"owner": self.owner, "pid": os.getpid(), "claimed_at": time.time()}

    def peek(self, key: str) -> Optional[dict[str, Any]]:
        """The current claim record of ``key``, or ``None`` when unclaimed.

        An unreadable (half-written or corrupt) claim file, or one whose
        ``claimed_at`` is not a number, reads as a record with no owner and
        ``claimed_at`` taken from the file's mtime, so it still ages out
        via the TTL.
        """
        path = self.path_for(key)
        try:
            return read_json_object(path, {"claimed_at": float})
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            try:
                return {"owner": None, "claimed_at": path.stat().st_mtime}
            except OSError:
                return None

    def is_stale(self, record: dict[str, Any]) -> bool:
        """Whether a claim ``record`` (as :meth:`peek` returns it) has
        outlived the TTL; a record without ``claimed_at`` has."""
        return (time.time() - record.get("claimed_at", 0.0)) > self.ttl

    def acquire(self, key: str) -> bool:
        """Try to claim cell ``key``; return whether this queue now owns it.

        Re-acquiring a claim this queue already owns succeeds (idempotent
        resume after an interrupted pass).
        """
        path = self.path_for(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        record = self._record()
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            current = self.peek(key)
            if current is None:
                # Released between our create attempt and the peek; retry
                # once — losing the retry race just means someone else won.
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return False
            else:
                if current.get("owner") == self.owner:
                    return True
                if not self.is_stale(current):
                    return False
                return self._steal(path, record)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))
        return True

    def _steal(self, path: pathlib.Path, record: dict[str, Any]) -> bool:
        """Atomically overwrite a stale claim with ``record`` and confirm
        ownership.

        Two stealers may both ``os.replace``; the readback disambiguates —
        only the one whose record survives owns the cell.  (The tiny window
        where a loser's replace clobbers a winner mid-cell can duplicate
        work, never corrupt it; see the class docstring.)
        """
        try:
            write_json_atomic(path, record)
            return read_json_object(path) == record
        except (OSError, ValueError):  # pragma: no cover - claim released mid-steal
            return False

    def release(self, key: str) -> None:
        """Drop cell ``key``'s claim (a vanished claim is already released)."""
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Shard execution
# ----------------------------------------------------------------------
class _StaticPolicy:
    """Hash-mod ownership: no coordination files, no release needed."""

    def __init__(self, shard_index: int, shard_count: int) -> None:
        self.shard_index = shard_index
        self.shard_count = shard_count

    def acquire(self, key: str) -> bool:
        return shard_of_key(key, self.shard_count) == self.shard_index

    def release(self, key: str) -> None:  # claims only
        pass


class _ShardExecutionCache:
    """Cache adapter steering a generator to compute only owned cells.

    Wraps the shared :class:`CellCache`: lookups that hit serve the real
    rows (another shard — or a previous pass — completed the cell);
    misses consult the assignment policy: a ``_StaticPolicy``, or the
    :class:`ClaimQueue` itself under claims.  Owned cells report the miss so
    the generator computes and stores them; foreign cells answer with rows
    rendered from empty statistics, which :func:`run_shard` discards, so
    the generator moves on without simulating.  Per-cell wall times
    accumulate into a :class:`~repro.sim.engine.Welford`.
    """

    def __init__(self, base: CellCache, policy: _StaticPolicy | ClaimQueue) -> None:
        self.base = base
        self.policy = policy
        self.ran: list[str] = []
        self.served: list[str] = []
        self.skipped: list[str] = []
        self.cell_seconds = Welford()
        self._pending: dict[str, float] = {}

    # -- lookup ---------------------------------------------------------
    def get(
        self,
        spec: dict[str, Any],
        rows_for: Callable[[dict[str, Welford]], list[_R]],
    ) -> Optional[list[_R]]:
        """Resolve one lookup: the served rows, ``None`` for a cell this
        shard computes, or rows rendered from empty statistics for a cell
        it skips.

        Reads go through the base's :meth:`CellCache.get`, so decode
        failures are counted by its own once-per-lookup logic.  Stats
        contract of a shard run: hits count the cells served from the
        shared store, misses the cells this shard simulates (including
        the rare unreadable entry it heals) — cells skipped because a
        peer owns them touch neither counter (existence is probed via
        :meth:`CellCache.contains`, outside the stats).
        """
        key = self.base.key_for(spec)
        counted_miss = False
        if self.base.contains(key):
            rows = self.base.get(spec, rows_for)
            if rows is not None:
                self.served.append(key)
                return rows
            counted_miss = True  # unreadable entry: get counted it
        if self.policy.acquire(key):
            # Claim races lose to completed entries: a peer may finish and
            # release a cell between our probe and our acquire, so re-check
            # the store before simulating.  The heal path skips this — an
            # entry that just failed to read should be recomputed, not
            # re-fetched and double-counted.
            if not counted_miss and self.base.contains(key):
                rows = self.base.get(spec, rows_for)
                if rows is not None:
                    self.policy.release(key)
                    self.served.append(key)
                    return rows
                counted_miss = True
            if not counted_miss:
                self.base.stats.misses += 1
            self._pending[key] = time.monotonic()
            return None
        self.skipped.append(key)
        return rows_for(defaultdict(Welford))

    # -- store ----------------------------------------------------------
    def _complete(self, key: str) -> None:
        started = self._pending.pop(key, None)
        if started is not None:
            self.cell_seconds.add(time.monotonic() - started)
        self.ran.append(key)
        self.policy.release(key)

    def put(
        self,
        spec: dict[str, Any],
        stats: dict[str, Welford],
        meta: Optional[dict[str, Any]] = None,
    ) -> pathlib.Path:
        path = self.base.put(spec, stats, meta=meta)
        self._complete(self.base.key_for(spec))
        return path

    # -- trial streams (adaptive budgets) -------------------------------
    def block_store(self, stream_spec: dict[str, Any]) -> CellBlockStore:
        """The base cache's trial stream store of one owned cell.

        Generators running under an adaptive budget fetch this for every
        cell they compute.  It needs no arbitration of its own: the cell
        is this shard's under either policy, and its trials run one
        checkpoint after another inside this shard.
        """
        return self.base.block_store(stream_spec)

    # -- cleanup --------------------------------------------------------
    def abandon_pending(self) -> None:
        """Release claims of cells that started but never completed (an
        exception unwound the generator), so peers can pick them up
        immediately instead of waiting out the TTL."""
        for key in list(self._pending):
            self._pending.pop(key, None)
            self.policy.release(key)


def _shard_dir(cache: CellCache) -> pathlib.Path:
    """Coordination-state directory of a shared cache (tag-scoped)."""
    return cache.root / "_shard"


#: Per-process sequence disambiguating report files written within the
#: same nanosecond tick (back-to-back passes over a fully-cached sweep).
_REPORT_SEQUENCE = itertools.count()


@dataclass
class ShardReport:
    """What one :func:`run_shard` invocation did, persisted for ``status``.

    ``cells_run`` were simulated here, ``cells_served`` came out of the
    shared cache, ``cells_skipped`` belonged to other shards;
    ``tasks_run`` counts engine-level trial tasks (the
    :data:`repro.sim.engine.TASK_COUNTER` delta — zero when a shard finds
    everything cached).  ``cell_seconds`` is the Welford state
    ``{count, mean, m2}`` of per-cell wall times; reports merge exactly
    via :func:`merged_cell_seconds`.
    """

    figure: str
    digest: str
    label: str
    mode: str
    cells_total: int
    cells_run: int
    cells_served: int
    cells_skipped: int
    tasks_run: int
    seconds: float
    cell_seconds: dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0

    def welford(self) -> Welford:
        """The per-cell timing accumulator rebuilt from ``cell_seconds``."""
        return Welford(**self.cell_seconds)

    def cells_per_second(self) -> Optional[float]:
        """Simulated-cell throughput of this shard (``None`` if it ran none)."""
        if self.cells_run == 0 or self.seconds <= 0:
            return None
        return self.cells_run / self.seconds

    def summary(self) -> str:
        """One-line human rendering (the ``shard run`` output)."""
        rate = self.cells_per_second()
        rendered = "n/a" if rate is None else f"{rate:.2f} cells/s"
        return (
            f"shard {self.label} [{self.mode}] {self.figure}: "
            f"{self.cells_run} run, {self.cells_served} served, "
            f"{self.cells_skipped} skipped of {self.cells_total} cells "
            f"in {self.seconds:.2f}s ({rendered})"
        )


def merged_cell_seconds(reports: list[ShardReport]) -> Welford:
    """Exact merge of every shard's per-cell timing statistics.

    Uses :meth:`repro.sim.engine.Welford.merge` (Chan et al.), so the
    merged mean/variance equal what a single accumulator over all cells
    would have produced — the same guarantee the engine gives sharded
    metric accumulation.  ``reports`` is the list to merge.
    """
    total = Welford()
    for report in reports:
        total.merge(report.welford())
    return total


def _write_report(cache: CellCache, report: ShardReport) -> pathlib.Path:
    """Persist ``report`` atomically under the cache's ``_shard/reports``.

    Every invocation writes its own file (label + pid + creation
    timestamp): a worker that runs several passes — or several workers
    sharing a label — must *accumulate* reports, because ``status`` sums
    ``cells_run`` across them for the exactly-once accounting; an
    overwrite would silently swallow an earlier pass's cells.
    """
    directory = _shard_dir(cache) / "reports" / report.digest
    safe_label = "".join(c if c.isalnum() or c in "-_." else "_" for c in report.label)
    stamp = f"{os.getpid()}-{time.time_ns()}-{next(_REPORT_SEQUENCE)}"
    path = directory / f"{safe_label}-{stamp}.report"
    write_json_atomic(path, asdict(report))
    return path


#: The JSON type of every :class:`ShardReport` field, in the sense of
#: :func:`~repro.sim.cache.json_typed`.
_REPORT_FIELD_TYPES: dict[str, type] = {
    "figure": str,
    "digest": str,
    "label": str,
    "mode": str,
    "cells_total": int,
    "cells_run": int,
    "cells_served": int,
    "cells_skipped": int,
    "tasks_run": int,
    "seconds": float,
    "cell_seconds": dict,
    "created_at": float,
}


def _read_reports(cache: CellCache, digest: str) -> list[ShardReport]:
    """Load every shard report of a sweep ``digest``.

    A report that :func:`~repro.sim.cache.read_json_object` cannot read
    with every field of its declared JSON type, that lacks a field, or
    whose ``cell_seconds`` does not rebuild a Welford state is skipped.
    """
    reports = []
    for path in sorted((_shard_dir(cache) / "reports" / digest).glob("*.report")):
        try:
            report = ShardReport(**read_json_object(path, _REPORT_FIELD_TYPES))
            _welford_of(report.cell_seconds)
        except (ValueError, TypeError, OSError):
            continue
        reports.append(report)
    return reports


def run_shard(
    config: SweepConfig,
    cache: CellCache,
    shard_index: Optional[int] = None,
    shard_count: Optional[int] = None,
    claims: bool = False,
    claim_ttl: float = DEFAULT_CLAIM_TTL,
    label: Optional[str] = None,
) -> ShardReport:
    """Run one shard of ``config``'s sweep against the shared ``cache``.

    Exactly one assignment mode must be selected: **static** —
    ``shard_index`` of ``shard_count``, every machine computes the same
    hash-mod partition of the canonical keys — or **dynamic** —
    ``claims=True``, cells are claimed first-come-first-served through
    atomic ``.claim`` files under the cache root (crashed claimants
    release via the ``claim_ttl`` staleness horizon), which
    self-balances heterogeneous machines.  Either way the shard runs its
    cells through the ordinary engine (so ``config.workers`` etc. apply),
    stores them in ``cache``, and persists a :class:`ShardReport` (named
    by ``label``, defaulting to the static index or the claim owner) that
    ``status``/``merge`` can aggregate.  Already-cached cells are served,
    not re-run — rerunning a finished shard is free.  A budgeted
    ``config`` is assigned the same way, one whole cell at a time: the
    shard that owns a cell runs or resumes all of its trials.

    In claims mode the on-disk claim owner is always ``label`` (or the
    host-pid default) suffixed with this process's identity, so two
    workers launched with the same ``label`` still contend through the
    queue — a duplicated label can never silently disable the
    exactly-once arbitration — and each worker's report file is distinct.
    """
    static = shard_index is not None or shard_count is not None
    if static == claims:
        raise InvalidParameterError(
            "pick exactly one assignment mode: shard_index/shard_count "
            "(static) or claims=True (dynamic)"
        )
    policy: _StaticPolicy | ClaimQueue
    if static:
        if shard_index is None or shard_count is None:
            raise InvalidParameterError(
                "static sharding needs both shard_index and shard_count"
            )
        if shard_count < 1 or not (0 <= shard_index < shard_count):
            raise InvalidParameterError(
                f"need 0 <= shard_index < shard_count, got "
                f"{shard_index}/{shard_count}"
            )
        policy = _StaticPolicy(shard_index, shard_count)
        mode = "static"
        label = label or f"static-{shard_index}of{shard_count}"
    else:
        owner = None
        if label is not None:
            owner = f"{label}@{socket.gethostname()}-{os.getpid()}"
        queue = ClaimQueue(_shard_dir(cache) / "claims", owner=owner, ttl=claim_ttl)
        policy = queue
        mode = "claims"
        label = queue.owner
    runner = _ShardExecutionCache(cache, policy)
    tasks_before = TASK_COUNTER.count
    started = time.monotonic()
    try:
        config.run(runner)
    finally:
        runner.abandon_pending()
    # The runner saw every cell exactly once (run, served, or skipped), so
    # its counters already total the sweep — no extra enumeration pass.
    cells_total = len(runner.ran) + len(runner.served) + len(runner.skipped)
    report = ShardReport(
        figure=config.figure,
        digest=config.digest(),
        label=label,
        mode=mode,
        cells_total=cells_total,
        cells_run=len(runner.ran),
        cells_served=len(runner.served),
        cells_skipped=len(runner.skipped),
        tasks_run=TASK_COUNTER.count - tasks_before,
        seconds=time.monotonic() - started,
        cell_seconds=asdict(runner.cell_seconds),
        created_at=time.time(),
    )
    _write_report(cache, report)
    return report


# ----------------------------------------------------------------------
# Status and merging
# ----------------------------------------------------------------------
@dataclass
class SweepStatus:
    """Progress of one sweep over a shared cache directory.

    ``done`` cells have entries in the cache; ``missing`` do not, of
    which ``claimed`` are currently claimed by a live worker and
    ``stale_claims`` by a crashed one (re-claimable).  ``reports`` are
    the per-shard run reports found on disk.
    """

    figure: str
    digest: str
    total: int
    done: int
    claimed: int
    stale_claims: int
    reports: list[ShardReport] = field(default_factory=list)

    @property
    def missing(self) -> int:
        """Cells not yet present in the shared cache."""
        return self.total - self.done

    @property
    def complete(self) -> bool:
        """Whether every cell is cached (i.e. ``merge`` will succeed)."""
        return self.missing == 0

    def summary(self) -> str:
        """One-line human rendering (the ``shard status`` output)."""
        line = (
            f"{self.figure}: {self.done}/{self.total} cells done, "
            f"{self.missing} missing ({self.claimed} claimed, "
            f"{self.stale_claims} stale claims)"
        )
        if self.reports:
            timing = merged_cell_seconds(self.reports)
            run = sum(r.cells_run for r in self.reports)
            line += f"; {len(self.reports)} shard reports, {run} cells simulated"
            if timing.count:
                line += f", {timing.mean:.2f}s/cell mean"
        return line


def sweep_status(
    config: SweepConfig, cache: CellCache, claim_ttl: float = DEFAULT_CLAIM_TTL
) -> SweepStatus:
    """Inspect how far ``config``'s sweep has progressed in ``cache``.

    Enumerates the sweep's cells (no simulation), checks which are
    present, classifies outstanding claims as live or stale under
    ``claim_ttl``, and attaches the persisted shard reports.
    """
    cells = enumerate_cells(config)
    queue = ClaimQueue(_shard_dir(cache) / "claims", ttl=claim_ttl)
    done = claimed = stale = 0
    for cell in cells:
        if cache.contains(cell.key):
            done += 1
            continue
        record = queue.peek(cell.key)
        if record is None:
            continue
        if queue.is_stale(record):
            stale += 1
        else:
            claimed += 1
    return SweepStatus(
        figure=config.figure,
        digest=config.digest(),
        total=len(cells),
        done=done,
        claimed=claimed,
        stale_claims=stale,
        reports=_read_reports(cache, config.digest()),
    )


def merge_sweep(
    config: SweepConfig, cache: CellCache, require_complete: bool = True
) -> list[dict[str, object]]:
    """Render ``config``'s final exhibit rows from the shared ``cache``.

    With every cell present this runs zero simulation trials: every cell
    renders its rows from its stored statistics, bit-identical to the
    original computation, so the merged table equals the unsharded run
    exactly.  When cells are missing, ``require_complete=True`` (the
    default) raises :class:`~repro.exceptions.ShardIncompleteError`
    naming the count;
    ``require_complete=False`` computes the stragglers locally instead —
    results are identical either way, merging strictly is about not
    silently absorbing another shard's workload.
    """
    cells = enumerate_cells(config)
    missing = [cell.key for cell in cells if not cache.contains(cell.key)]
    if missing and require_complete:
        raise ShardIncompleteError(
            f"cannot merge {config.figure}: {len(missing)} of {len(cells)} cells "
            f"missing from {cache.root} (first: {missing[0][:12]}…); run the "
            f"remaining shards or pass require_complete=False to compute them here"
        )
    return config.run(cache)
