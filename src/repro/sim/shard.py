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
  against a recording cache whose every lookup "hits" with a placeholder,
  so the exact per-cell specs/seeds are reproduced at zero cost.
* :func:`run_shard` executes one shard's share of the cells through the
  ordinary engine, writing results into the shared cache.  Cells are
  assigned either **statically** (``shard_index``/``shard_count``,
  deterministic hash-mod over the canonical key — see
  :func:`shard_of_key`) or **dynamically** via :class:`ClaimQueue`
  work-stealing: atomic ``.claim`` files next to the cache entries, with
  a stale-claim TTL so a crashed worker's cells are re-claimable.
* :func:`sweep_status` reports done / claimed / missing cells, and
  :func:`merge_sweep` renders the final rows from the fully populated
  cache — bit-identical to an unsharded run, because every row is either
  the stored payload itself or rebuilt from the same cached
  ``RecoveryEvaluation``; per-shard timing statistics merge exactly via
  :meth:`repro.sim.engine.Welford.merge`.

Determinism: a cell's spec (and therefore its key, its seeds, and its
result) depends only on the sweep configuration, never on which shard
runs it, so ``shards=N`` equals ``shards=1`` bit for bit.  Exactly-once
execution holds whenever claims outlive their cells (pick
``claim_ttl`` larger than the slowest cell); even an expired-claim double
run is harmless because both writers store identical payloads atomically.

Shard coordination state lives under ``<cache root>/_shard/`` —
``claims/*.claim`` plus per-shard ``reports/**/*.report`` files — which
the cache's own maintenance ignores (it only considers ``*.json``
entries).  Because the root embeds the versioned cache tag, machines
running different code never share claims either.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import socket
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional, Protocol

from repro.exceptions import InvalidParameterError, ShardIncompleteError
from repro.sim.cache import (
    SHARD_PLACEHOLDER_KEY,
    CellBlockStore,
    CellCache,
    canonical_key,
)
from repro.sim.engine import TASK_COUNTER, TrialBudget, Welford, run_scope
from repro.sim.experiment import RecoveryEvaluation
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
    :data:`repro.sim.scenarios.EXHIBITS`), ``dataset``/``parameter``
    apply to the exhibits that consume them, ``num_users``/``trials``/
    ``seed`` shape the cells, and ``workers``/``chunk_users``/
    ``olh_cohort`` are forwarded to the engine.  Only ``workers`` is a
    pure execution knob that shards may vary freely (it never enters a
    cell key); every other field must match across the fleet —
    including ``chunk_users``, whose *presence* switches fast-mode
    exhibits to ``mode="chunked"``, a spec field of every cell key (and
    whose resolved size additionally keys cohort-mode OLH cells).  ``target_ci``/``max_trials``/``trial_batch``
    select adaptive CI-targeted trial allocation (see :meth:`budget`);
    they shape every cell's budget checkpoints and therefore must also
    match across the fleet.
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
        plus only the :data:`~repro.sim.scenarios.SWEEP_OPTIONS` it
        consumes; ``budget`` is forwarded only when one is set, so
        generators without adaptive support run fixed-budget sweeps.

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
            workers=self.workers,
            cache=cache,
        )
        budget = self.budget()
        if budget is not None:
            kwargs["budget"] = budget
        for option in exhibit.consumes:
            kwargs["dataset_name" if option == "dataset" else option] = getattr(self, option)
        with run_scope():
            return exhibit.rows(**kwargs)

    def digest(self) -> str:
        """Short stable id of this sweep's cell-defining fields.

        Groups shard reports of the same sweep together, so only fields
        the chosen ``figure`` actually consumes participate: ``workers``
        never (it cannot change the cells), and of the
        :data:`~repro.sim.scenarios.SWEEP_OPTIONS` only those the
        exhibit's registration consumes.  A worker that passes a flag its
        figure ignores (``--dataset fire`` on fig8) therefore still
        reports under the same digest as every other worker of that
        sweep.  The adaptive budget knobs participate only when at least
        one is set, so every fixed-budget digest is byte-identical to what
        it was before the knobs existed.
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
    """One cell of a sweep: its position, canonical key, and payload kind."""

    index: int
    key: str
    kind: str


def _placeholder_evaluation(spec: dict[str, Any]) -> RecoveryEvaluation:
    """A throwaway :class:`RecoveryEvaluation` standing in for a cell that
    this process will not simulate; its metric fields are defaults and the
    rows built from it are discarded (only ``spec``'s identity matters)."""
    return RecoveryEvaluation(
        dataset=str((spec.get("dataset") or {}).get("name", "?")),
        protocol=str((spec.get("protocol") or {}).get("__type__", "?")),
        attack="placeholder",
        beta=float(spec.get("beta", 0.0)),
        eta=float(spec.get("eta", 0.0)),
        trials=int(spec.get("trials", 0)),
    )


#: Marker key identifying placeholder rows produced for skipped cells
#: (the shared :data:`repro.sim.cache.SHARD_PLACEHOLDER_KEY`, so row
#: generators can recognize pass-through payloads without importing this
#: module).
_PLACEHOLDER = SHARD_PLACEHOLDER_KEY


class _RecordingCache(CellCache):
    """A cache whose every lookup hits with a placeholder: running a
    generator against it records each cell's spec (in generation order)
    while executing zero simulation tasks and touching no disk."""

    def __init__(self) -> None:
        super().__init__(cache_dir=os.devnull, tag="enumeration")
        self.specs: list[dict[str, Any]] = []

    def _record(self, spec: dict[str, Any]) -> None:
        self.specs.append(spec)

    def get(self, spec: dict[str, Any]) -> Optional[dict[str, Any]]:
        """Record ``spec`` and report a (placeholder) hit."""
        self._record(spec)
        return {_PLACEHOLDER: True}

    def get_evaluation(self, spec: dict[str, Any]) -> Optional[RecoveryEvaluation]:
        """Record ``spec`` and report a (placeholder) hit."""
        self._record(spec)
        return _placeholder_evaluation(spec)

    def put(
        self,
        spec: dict[str, Any],
        payload: dict[str, Any],
        meta: Optional[dict[str, Any]] = None,
    ) -> pathlib.Path:
        """Unreachable in normal enumeration (every get hits); no disk IO."""
        return pathlib.Path(os.devnull)  # pragma: no cover

    def put_evaluation(
        self,
        spec: dict[str, Any],
        evaluation: RecoveryEvaluation,
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
    stealing rewrites it via a temp file + ``os.replace`` (atomic on
    POSIX) and then reads the file back, only treating the claim as won
    when the readback carries the stealer's own token.  Completed cells
    release their claim; crashes release implicitly via the TTL.

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

        An unreadable (half-written or corrupt) claim file reads as a
        record with no owner and ``claimed_at`` taken from the file's
        mtime, so it still ages out via the TTL.
        """
        path = self.path_for(key)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(record, dict):
                raise ValueError("claim is not an object")
            return record
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            try:
                return {"owner": None, "claimed_at": path.stat().st_mtime}
            except OSError:
                return None

    def is_stale(self, record: dict[str, Any]) -> bool:
        """Whether a claim ``record`` has outlived the TTL."""
        try:
            claimed_at = float(record.get("claimed_at", 0.0))
        except (TypeError, ValueError):
            claimed_at = 0.0
        return (time.time() - claimed_at) > self.ttl

    def acquire(self, key: str) -> bool:
        """Try to claim cell ``key``; return whether this queue now owns it.

        Re-acquiring a claim this queue already owns succeeds (idempotent
        resume after an interrupted pass).
        """
        path = self.path_for(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self._record(), separators=(",", ":"))
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            record = self.peek(key)
            if record is None:
                # Released between our create attempt and the peek; retry
                # once — losing the retry race just means someone else won.
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return False
            else:
                if record.get("owner") == self.owner:
                    return True
                if not self.is_stale(record):
                    return False
                return self._steal(path, payload)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        return True

    def _steal(self, path: pathlib.Path, payload: str) -> bool:
        """Atomically overwrite a stale claim and confirm ownership.

        Two stealers may both ``os.replace``; the readback disambiguates —
        only the one whose token survives owns the cell.  (The tiny window
        where a loser's replace clobbers a winner mid-cell can duplicate
        work, never corrupt it; see the class docstring.)
        """
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".claim.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:  # pragma: no cover - shared-dir permission races
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return False
        try:
            return path.read_text(encoding="utf-8") == payload
        except OSError:  # pragma: no cover - claim released mid-steal
            return False

    def release(self, key: str) -> None:
        """Drop cell ``key``'s claim (a vanished claim is already released)."""
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            pass

    def active(self) -> list[tuple[str, dict[str, Any]]]:
        """All outstanding ``(key, record)`` claims, stale ones included."""
        if not self.directory.is_dir():
            return []
        out = []
        for path in sorted(self.directory.glob("*.claim")):
            record = self.peek(path.name[: -len(".claim")])
            if record is not None:
                out.append((path.name[: -len(".claim")], record))
        return out


# ----------------------------------------------------------------------
# Shard execution
# ----------------------------------------------------------------------
class ShardPolicy(Protocol):
    """Cell-ownership strategy consulted by :class:`_ShardExecutionCache`.

    ``acquire`` decides whether this shard should compute the (missing)
    cell; ``release`` returns ownership after the result is stored (a
    no-op for static assignment).  ``rechecks`` declares whether a peer
    may have completed the cell between the cache miss and a successful
    acquire, in which case the store must be consulted again before
    simulating.
    """

    rechecks: bool

    def acquire(self, key: str) -> bool:
        """Whether this shard should compute the missing cell ``key``."""
        ...

    def release(self, key: str) -> None:
        """Return ownership of ``key`` once its result is stored."""
        ...


class _StaticPolicy:
    """Hash-mod ownership: no coordination files, no release needed."""

    #: Static assignments are exclusive by construction — no peer can have
    #: completed an owned cell between the lookup and the acquire.
    rechecks: bool = False

    def __init__(self, shard_index: int, shard_count: int) -> None:
        self.shard_index = shard_index
        self.shard_count = shard_count

    def acquire(self, key: str) -> bool:
        return shard_of_key(key, self.shard_count) == self.shard_index

    def release(self, key: str) -> None:  # claims only
        pass


class _ClaimPolicy:
    """Dynamic ownership through a :class:`ClaimQueue`."""

    #: A peer may complete and release a cell between our miss and our
    #: successful acquire; re-check the store before simulating.
    rechecks: bool = True

    def __init__(self, queue: ClaimQueue) -> None:
        self.queue = queue

    def acquire(self, key: str) -> bool:
        return self.queue.acquire(key)

    def release(self, key: str) -> None:
        self.queue.release(key)


class _BudgetClaimPolicy:
    """Claim-mode ownership for adaptive-budget sweeps: block-grained.

    Under a :class:`~repro.sim.engine.TrialBudget`, arbitrating whole
    cells would serialize a top-up behind one worker even when the cell
    only needs more trial blocks.  This policy therefore lets *every*
    claims-mode shard enter every missing cell's adaptive driver
    (``acquire`` always succeeds, holding nothing) and moves the
    exactly-once arbitration down to the cell's trial blocks — each block
    range is claimed through the same :class:`ClaimQueue` via
    :class:`_ClaimedBlockStore`, so a block is simulated by exactly one
    worker while its peers await the appended result.  Both workers then
    write byte-identical cell summaries (idempotent puts), which is why
    exactly-once accounting under budgets is asserted on engine tasks,
    not on cells.
    """

    #: A peer may complete the whole cell while this shard polls blocks;
    #: the pre-compute store re-check keeps the common case cheap.
    rechecks: bool = True

    def __init__(self, queue: ClaimQueue) -> None:
        self.queue = queue

    def acquire(self, key: str) -> bool:
        """Always own ``key`` — block claims do the real arbitration."""
        return True

    def release(self, key: str) -> None:
        """Nothing to release: no cell-level claim was taken."""


class _ClaimedBlockStore:
    """A :class:`~repro.sim.cache.CellBlockStore` whose block claims are
    arbitrated through a shard :class:`ClaimQueue`.

    ``load``/``peek``/``append`` delegate to the wrapped store; ``claim``
    and ``release`` map a block's trial range onto a queue key derived
    from the cell's stream key (``<stream-key>.b<start>-<stop>``), so two
    workers extending the same cell contend per block exactly like
    claims-mode shards contend per cell — same atomic create, same
    stale-claim TTL.  Satisfies :class:`repro.sim.engine.TrialBlockStore`.
    """

    def __init__(self, store: CellBlockStore, queue: ClaimQueue) -> None:
        self.store = store
        self.queue = queue

    def _claim_key(self, start: int, stop: int) -> str:
        return f"{self.store.stream_key}.b{start:08d}-{stop:08d}"

    def load(self) -> list[tuple[int, int, list[dict[str, float]]]]:
        """The wrapped store's contiguous block chain (see its ``load``)."""
        return self.store.load()

    def peek(self, start: int, stop: int) -> Optional[list[dict[str, float]]]:
        """The wrapped store's block ``[start, stop)``, if valid on disk."""
        return self.store.peek(start, stop)

    def append(self, start: int, stop: int, per_trial: list[dict[str, float]]) -> Any:
        """Append ``per_trial`` as block ``[start, stop)`` to the wrapped store."""
        return self.store.append(start, stop, per_trial)

    def claim(self, start: int, stop: int) -> bool:
        """Atomically claim block ``[start, stop)`` through the queue."""
        return self.queue.acquire(self._claim_key(start, stop))

    def release(self, start: int, stop: int) -> None:
        """Release block ``[start, stop)``'s claim."""
        self.queue.release(self._claim_key(start, stop))


class _ShardExecutionCache:
    """Cache adapter steering a generator to compute only owned cells.

    Wraps the shared :class:`CellCache`: lookups that hit serve the real
    payload (another shard — or a previous pass — completed the cell);
    misses consult the assignment policy.  Owned cells report the miss so
    the generator computes and stores them; foreign cells return a
    placeholder so the generator moves on without simulating.  Per-cell
    wall times accumulate into a :class:`~repro.sim.engine.Welford`.
    """

    def __init__(self, base: CellCache, policy: ShardPolicy) -> None:
        self.base = base
        self.policy = policy
        self.ran: list[str] = []
        self.served: list[str] = []
        self.skipped: list[str] = []
        self.cell_seconds = Welford()
        self._pending: dict[str, float] = {}

    # -- lookup ---------------------------------------------------------
    def _route(
        self, spec: dict[str, Any], fetch: Callable[[dict[str, Any]], Optional[Any]]
    ) -> tuple[str, Optional[Any], bool]:
        """Resolve one lookup: ``(key, value-if-served, compute?)``.

        ``fetch(spec)`` is the base cache's typed reader
        (:meth:`CellCache.get` or :meth:`CellCache.get_evaluation`), so
        decode failures are counted by the base's own once-per-lookup
        logic.  Stats contract of a shard run: hits count the cells
        served from the shared store, misses the cells this shard
        simulates (including the rare unreadable/stale-shape entry it
        heals) — cells skipped because a peer owns them touch neither
        counter (existence is probed via :meth:`CellCache.contains`,
        outside the stats).
        """
        key = self.base.key_for(spec)
        counted_miss = False
        if self.base.contains(key):
            value = fetch(spec)
            if value is not None:
                self.served.append(key)
                return key, value, False
            counted_miss = True  # unreadable/stale entry: fetch counted it
        if self.policy.acquire(key):
            # Claim races lose to completed entries: a peer may finish and
            # release a cell between our probe and our acquire, so re-check
            # the store before simulating.  Static assignments skip this
            # (exclusive by construction), as does the heal path — an
            # entry that just failed to read should be recomputed, not
            # re-fetched and double-counted.
            if self.policy.rechecks and not counted_miss and self.base.contains(key):
                value = fetch(spec)
                if value is not None:
                    self.policy.release(key)
                    self.served.append(key)
                    return key, value, False
                counted_miss = True
            if not counted_miss:
                self.base.stats.misses += 1
            self._pending[key] = time.monotonic()
            return key, None, True
        self.skipped.append(key)
        return key, None, False

    def get(self, spec: dict[str, Any]) -> Optional[dict[str, Any]]:
        key, payload, compute = self._route(spec, self.base.get)
        if payload is not None:
            return payload
        if compute:
            return None
        return {_PLACEHOLDER: True, "key": key}

    def get_evaluation(self, spec: dict[str, Any]) -> Optional[RecoveryEvaluation]:
        _, evaluation, compute = self._route(spec, self.base.get_evaluation)
        if evaluation is not None:
            return evaluation
        if compute:
            return None
        return _placeholder_evaluation(spec)

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
        payload: dict[str, Any],
        meta: Optional[dict[str, Any]] = None,
    ) -> pathlib.Path:
        path = self.base.put(spec, payload, meta=meta)
        self._complete(self.base.key_for(spec))
        return path

    def put_evaluation(
        self,
        spec: dict[str, Any],
        evaluation: RecoveryEvaluation,
        meta: Optional[dict[str, Any]] = None,
    ) -> pathlib.Path:
        path = self.base.put_evaluation(spec, evaluation, meta=meta)
        self._complete(self.base.key_for(spec))
        return path

    # -- appendable trial blocks (adaptive budgets) ---------------------
    def block_store(self, stream_spec: dict[str, Any]) -> Any:
        """The trial-block store of one owned cell's stream, claim-wrapped.

        Generators running under an adaptive budget fetch this for every
        cell they compute; in claims mode the returned store arbitrates
        each block range through the shard's :class:`ClaimQueue`
        (block-exact exactly-once), while static assignment — exclusive
        per cell by construction — uses the base store directly.
        """
        store = self.base.block_store(stream_spec)
        queue = getattr(self.policy, "queue", None)
        if isinstance(queue, ClaimQueue):
            return _ClaimedBlockStore(store, queue)
        return store

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
    cell_seconds: dict[str, float] = field(default_factory=dict)
    created_at: float = 0.0

    def welford(self) -> Welford:
        """The per-cell timing accumulator rebuilt from ``cell_seconds``."""
        state = self.cell_seconds or {}
        return Welford(
            count=int(state.get("count", 0)),
            mean=float(state.get("mean", 0.0)),
            m2=float(state.get("m2", 0.0)),
        )

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
    directory.mkdir(parents=True, exist_ok=True)
    safe_label = "".join(c if c.isalnum() or c in "-_." else "_" for c in report.label)
    stamp = f"{os.getpid()}-{time.time_ns()}-{next(_REPORT_SEQUENCE)}"
    path = directory / f"{safe_label}-{stamp}.report"
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(asdict(report), handle, separators=(",", ":"))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _read_reports(cache: CellCache, digest: str) -> list[ShardReport]:
    """Load every shard report of a sweep ``digest`` (unreadable: skipped)."""
    directory = _shard_dir(cache) / "reports" / digest
    if not directory.is_dir():
        return []
    reports = []
    for path in sorted(directory.glob("*.report")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            reports.append(ShardReport(**data))
        except (ValueError, TypeError, OSError):
            continue
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
    not re-run — rerunning a finished shard is free.

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
    policy: ShardPolicy
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
        # Adaptive budgets arbitrate per trial block instead of per cell:
        # a top-up of an existing cell must not serialize behind a single
        # worker when its peers could be appending other blocks.
        if config.budget() is not None:
            policy = _BudgetClaimPolicy(queue)
        else:
            policy = _ClaimPolicy(queue)
        mode = "claims"
        label = queue.owner
    runner = _ShardExecutionCache(cache, policy)
    tasks_before = TASK_COUNTER.count
    started = time.monotonic()
    try:
        config.run(runner)
    finally:
        runner.abandon_pending()
    accumulator = runner.cell_seconds
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
        cell_seconds={
            "count": accumulator.count,
            "mean": accumulator.mean,
            "m2": accumulator.m2,
        },
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

    With every cell present this runs zero simulation trials: evaluation
    cells rebuild their cached :class:`RecoveryEvaluation` payloads
    (stats included, bit-identical to the original computation) and row
    cells return their stored dicts, so the merged table equals the
    unsharded run exactly.  When cells are missing,
    ``require_complete=True`` (the default) raises
    :class:`~repro.exceptions.ShardIncompleteError` naming the count;
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
