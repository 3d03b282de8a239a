"""Persistent experiment-cell cache: content-addressed, resumable sweeps.

Every exhibit of the paper (Figures 3-10, Table I) is a grid of
*experimental cells*, and each cell is a pure function of its spec —
dataset, protocol and parameters, attack and parameters, ``beta``,
``eta``, ``trials``, the simulation mode, and the exact per-trial seed
sequences.  This module caches completed cells on disk keyed by the
canonical hash of that spec, so:

* an interrupted sweep resumes from its completed cells on rerun;
* rerunning a figure costs zero simulation time for as long as the
  simulation source is unchanged (any edit under ``sim``, ``core``,
  ``protocols`` or ``attacks``, a comment included, moves the tag below);
* ``workers`` (bit-identical by construction) is deliberately
  **excluded** from the key, so a run on one machine shape warms the
  cache for every other.  ``chunk_users`` enters only through what it
  shapes: its presence selects ``mode="chunked"``, and for seed-cohort
  OLH cells the resolved chunk size sets the cohort schedule
  (``cohort_chunk_users``); otherwise every chunk size shares a cell.

Layout: one JSON file per cell under
``<cache_dir>/<tag>/<key[:2]>/<key>.json`` where ``tag`` versions the
cache by schema (:data:`CACHE_SCHEMA`), the ``repro`` package version,
and a content hash of the simulation-relevant source tree
(:func:`source_digest`) — a release *or* an in-place code edit
invalidates old entries wholesale instead of serving stale rows.
Writes are atomic (temp file + ``os.replace``) so a Ctrl-C never
leaves a truncated entry behind; unreadable entries are treated as misses
and reported by :meth:`CellCache.verify`.  A budgeted cell also keeps
its per-trial metrics, in trial order, in one stream file beside the
entries (:class:`CellBlockStore`), so a larger budget resumes from them.

Every record the tool writes goes through one writer,
:func:`write_json_atomic`, and every record it reads back — cache
entries and trial streams here, shard reports and claims
(:mod:`repro.sim.shard`), service snapshots (:mod:`repro.serve`) —
through one reader, :func:`read_json_object`, under one type rule,
:func:`json_typed`.  A file that is not JSON, nests too deeply to parse,
holds another JSON value or a field of another JSON type is one
unreadable record, never a traceback; each kind then keeps its own
outcome (a miss, an empty stream, a skipped report, an ownerless claim,
the next-newest snapshot).

Every cell is read and written through one path,
:func:`repro.sim.experiment.run_cell` (:meth:`CellCache.get` /
:meth:`CellCache.put`), and every cell's payload has one form: its
per-metric :class:`~repro.sim.engine.Welford` states,
``{metric: {count, mean, m2}}``.  A cell's rows are not stored: its
exhibit renders them from those statistics on every read, on a hit and
on a miss alike, so an entry that does not decode or does not render is
one miss and is recomputed.

The CLI exposes the store via ``--cache-dir`` / ``--no-cache`` /
``--cache-stats`` on ``run`` and a ``cache`` subcommand (``ls`` /
``prune`` / ``verify``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from repro.attacks.base import PoisoningAttack
from repro.datasets.base import Dataset
from repro.exceptions import InvalidParameterError
from repro.protocols.base import DEFAULT_CHUNK_USERS, FrequencyOracle
from repro.sim.engine import Welford

__all__ = [
    "CACHE_SCHEMA",
    "CacheEntry",
    "CacheStats",
    "CellBlockStore",
    "CellCache",
    "cache_tag",
    "canonical_key",
    "default_cache_dir",
    "evaluation_cell_spec",
    "fingerprint_attack_schedule",
    "fingerprint_dataset",
    "fingerprint_kv_population",
    "fingerprint_object",
    "fingerprint_seed_sequences",
    "json_typed",
    "read_json_object",
    "resolve_cache",
    "resolved_cohort_chunk",
    "row_cell_spec",
    "scenario_cell_spec",
    "source_digest",
    "trial_stream_spec",
    "write_json_atomic",
]

#: Cache schema version: bump whenever the entry layout, the spec
#: fingerprints, or the payload serialization change incompatibly.
CACHE_SCHEMA = 4

#: Environment variable that overrides the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


# ----------------------------------------------------------------------
# Spec fingerprints
# ----------------------------------------------------------------------
def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fingerprint_array(arr: np.ndarray) -> dict[str, Any]:
    """Content hash of a numpy array (dtype + shape + raw bytes)."""
    arr = np.ascontiguousarray(arr)
    return {
        "__array__": _hash_bytes(arr.tobytes()),
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
    }


_SKIP = object()  # sentinel: attribute carries no cell-identity information


def _fingerprint_value(value: Any) -> Any:
    """Recursively reduce a value to canonical JSON-able identity data.

    RNG machinery (``Generator`` / ``BitGenerator`` / ``SeedSequence``
    attributes) and callables are skipped: attack/protocol objects hold
    construction-time generators whose state does not influence results —
    trial randomness flows exclusively through the spec's seed list.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return _fingerprint_array(value)
    if isinstance(
        value, (np.random.Generator, np.random.BitGenerator, np.random.SeedSequence)
    ):
        return _SKIP
    if callable(value) and not isinstance(value, type):
        return _SKIP
    if isinstance(value, dict):
        out = {str(k): _fingerprint_value(v) for k, v in sorted(value.items())}
        return {k: v for k, v in out.items() if v is not _SKIP}
    if isinstance(value, (list, tuple)):
        return [v for v in (_fingerprint_value(x) for x in value) if v is not _SKIP]
    if isinstance(value, Dataset):
        return fingerprint_dataset(value)
    if isinstance(value, (FrequencyOracle, PoisoningAttack)):
        return fingerprint_object(value)
    if hasattr(value, "__dict__"):
        return fingerprint_object(value)
    return repr(value)


def fingerprint_object(obj: Any) -> dict[str, Any]:
    """Canonical identity of a protocol / attack / defense instance.

    Walks ``obj``'s instance ``vars()``: scalars pass through, arrays are
    content-hashed, nested components (e.g. :class:`MultiAttacker`'s
    sub-attacks, IPA's inner attack) recurse, and RNG state is skipped
    (see :func:`_fingerprint_value`).  Classes may declare a
    ``FINGERPRINT_EXCLUDE`` set of execution-only attribute names that
    cannot change results; those are omitted, exactly like the engine's
    ``workers`` / ``chunk_users`` knobs are omitted from the cell spec.
    Attributes that *do* change the report distribution (e.g. OLH's
    ``cohort``) stay in.
    The concrete class name is always included so two classes with
    identical attributes cannot collide.
    """
    fp: dict[str, Any] = {"__type__": type(obj).__name__}
    describe = getattr(obj, "describe", None)
    if callable(describe):
        fp["describe"] = str(describe())
    exclude = getattr(type(obj), "FINGERPRINT_EXCLUDE", frozenset())
    for key, value in sorted(vars(obj).items()):
        if key in exclude:
            continue
        printed = _fingerprint_value(value)
        if printed is not _SKIP:
            fp[key] = printed
    return fp


def fingerprint_dataset(dataset: Dataset) -> dict[str, Any]:
    """Canonical identity of a dataset: name plus histogram content hash."""
    return {
        "name": dataset.name,
        "counts": _fingerprint_array(dataset.counts),
        "num_users": dataset.num_users,
        "domain_size": dataset.domain_size,
    }


def fingerprint_seed_sequences(
    seeds: Sequence[np.random.SeedSequence],
) -> list[dict[str, Any]]:
    """Canonical identity of the per-trial ``seeds`` of a cell.

    Each :class:`~numpy.random.SeedSequence` is fully determined by its
    ``entropy``, ``spawn_key`` and ``pool_size``, so this captures exactly
    the randomness every trial will consume — independent of whether the
    trials later run inline or across a process pool.  Non-deterministic
    runs (``rng=None`` draws OS entropy) simply produce keys that will
    never be hit again, i.e. natural cache misses.
    """
    out = []
    for seq in seeds:
        entropy = seq.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(e) for e in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        out.append(
            {
                "entropy": entropy,
                "spawn_key": [int(k) for k in seq.spawn_key],
                "pool_size": int(seq.pool_size),
            }
        )
    return out


def resolved_cohort_chunk(
    protocol: FrequencyOracle, mode: str, chunk_users: Optional[int]
) -> Optional[int]:
    """The chunk size to include in a cell spec, or ``None``.

    ``chunk_users`` is normally an execution-only knob excluded from cache
    keys (chunked aggregation of per-user-seed reports is distributed
    exactly as the unchunked path).  A seed-cohort ``protocol`` breaks
    that premise in ``mode="chunked"``: every chunk draws one fresh cohort
    of shared seeds, so the chunk schedule shapes the report correlation
    structure (and hence estimate variance).  For those cells this returns
    the *resolved* chunk size (``chunk_users`` or
    :data:`~repro.protocols.base.DEFAULT_CHUNK_USERS`) so it enters the key;
    for every other cell it returns ``None`` and the key stays
    chunk-invariant.
    """
    if getattr(protocol, "cohort", None) is None or str(mode) != "chunked":
        return None
    return int(chunk_users) if chunk_users is not None else DEFAULT_CHUNK_USERS


def evaluation_cell_spec(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: Optional[PoisoningAttack],
    *,
    beta: float,
    eta: float,
    trials: int,
    mode: str,
    with_star: bool,
    with_detection: bool,
    aa_top_k: int,
    seeds: Sequence[np.random.SeedSequence],
    cohort_chunk_users: Optional[int] = None,
) -> dict[str, Any]:
    """The full cell spec of one :func:`evaluate_recovery` call.

    Every field that can change the returned
    :class:`~repro.sim.experiment.RecoveryEvaluation` is present —
    ``dataset``, ``protocol``, ``attack`` (all content-fingerprinted),
    ``beta``, ``eta``, ``trials``, the *resolved* simulation ``mode``, the
    evaluation switches ``with_star`` / ``with_detection`` / ``aa_top_k``,
    and the per-trial ``seeds``.  The run's
    :class:`~repro.sim.experiment.RunContext` enters only through its
    budget, whose fingerprint :func:`~repro.sim.experiment.run_cell`
    adds; ``workers`` and ``chunk_users`` cannot change results and stay
    out — except for cohort-mode chunked cells, whose resolved chunk size
    arrives via ``cohort_chunk_users`` (see :func:`resolved_cohort_chunk`)
    because there it shapes the report distribution.
    """
    spec = {
        "kind": "evaluation",
        "dataset": fingerprint_dataset(dataset),
        "protocol": fingerprint_object(protocol),
        "attack": None if attack is None else fingerprint_object(attack),
        "beta": float(beta),
        "eta": float(eta),
        "trials": int(trials),
        "mode": str(mode),
        "with_star": bool(with_star),
        "with_detection": bool(with_detection),
        "aa_top_k": int(aa_top_k),
        "seeds": fingerprint_seed_sequences(seeds),
    }
    if cohort_chunk_users is not None:
        spec["cohort_chunk_users"] = int(cohort_chunk_users)
    return spec


def row_cell_spec(
    exhibit: str,
    dataset: Dataset,
    protocol: Optional[FrequencyOracle],
    attacks: Iterable[PoisoningAttack],
    params: dict[str, Any],
    seeds: Sequence[np.random.SeedSequence],
) -> dict[str, Any]:
    """The cell spec of one custom exhibit row (Figure 8/9, Table I).

    ``exhibit`` names the generator (e.g. ``"figure8"``), ``attacks`` the
    attack instances involved in the cell (possibly none), ``params`` the
    remaining cell parameters (e.g. ``beta``, ``xi``, ``mode``), and
    ``seeds`` the per-trial seed sequences; ``dataset`` and ``protocol``
    are content-fingerprinted like in :func:`evaluation_cell_spec`.
    """
    return {
        "kind": "row",
        "exhibit": str(exhibit),
        "dataset": fingerprint_dataset(dataset),
        "protocol": None if protocol is None else fingerprint_object(protocol),
        "attacks": [fingerprint_object(a) for a in attacks],
        "params": _fingerprint_value(dict(params)),
        "seeds": fingerprint_seed_sequences(seeds),
    }


def fingerprint_kv_population(population: Any) -> dict[str, Any]:
    """Canonical identity of a key-value population.

    Captures everything that determines the genuine report distribution
    of a :class:`repro.sim.scenarios.KVPopulation` (duck-typed so the
    cache stays import-light): the ``name``, content hashes of the
    key-frequency and per-key-mean vectors, and the population size.
    """
    return {
        "name": str(population.name),
        "frequencies": _fingerprint_array(np.asarray(population.frequencies)),
        "means": _fingerprint_array(np.asarray(population.means)),
        "num_users": int(population.num_users),
    }


def fingerprint_attack_schedule(schedule: Any) -> dict[str, Any]:
    """Canonical identity of a per-epoch attack schedule.

    Captures the full scalar state of an
    :class:`repro.sim.history.AttackSchedule` (duck-typed so the cache
    stays import-light): the shape ``kind`` plus every parameter that
    shapes the per-epoch malicious-fraction vector.  Used by the
    ``epochs`` scenario to put the schedule into its cell specs, so
    cells with different burst epochs or ramp endpoints never collide.
    """
    return {
        "kind": str(schedule.kind),
        "beta": float(schedule.beta),
        "start_epoch": int(schedule.start_epoch),
        "end_beta": None if schedule.end_beta is None else float(schedule.end_beta),
    }


def scenario_cell_spec(
    scenario: str,
    source: Any,
    protocol: Any,
    attacks: Iterable[Any],
    params: dict[str, Any],
    seeds: Sequence[np.random.SeedSequence],
) -> dict[str, Any]:
    """The cell spec of one scenario-exhibit row (:mod:`repro.sim.scenarios`).

    The scenario analogue of :func:`row_cell_spec`, relaxed so workloads
    beyond plain frequency oracles fit: ``scenario`` names the registered
    exhibit (e.g. ``"kv"``), ``source`` is the population the cell draws
    from — a :class:`~repro.datasets.base.Dataset`, a key-value
    population (anything with ``means``, via
    :func:`fingerprint_kv_population`), or any fingerprintable object —
    ``protocol`` and ``attacks`` are the (possibly non-``FrequencyOracle``
    / non-``PoisoningAttack``) instances involved, ``params`` the
    remaining cell parameters, and ``seeds`` the per-trial seed
    sequences.  The payload kind stays ``"row"`` so scenario cells flow
    through the same cache / enumeration / shard machinery as the custom
    figure rows.
    """
    if isinstance(source, Dataset):
        fingerprint: Any = fingerprint_dataset(source)
    elif hasattr(source, "means"):
        fingerprint = fingerprint_kv_population(source)
    else:
        fingerprint = _fingerprint_value(source)
    return {
        "kind": "row",
        "exhibit": f"scenario-{scenario}",
        "source": fingerprint,
        "protocol": None if protocol is None else fingerprint_object(protocol),
        "attacks": [fingerprint_object(a) for a in attacks],
        "params": _fingerprint_value(dict(params)),
        "seeds": fingerprint_seed_sequences(seeds),
    }


def canonical_key(spec: dict[str, Any]) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON form of a spec."""
    encoded = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return _hash_bytes(encoded.encode("utf-8"))


def _payload_digest(payload: Any) -> str:
    """SHA-256 over a payload's sorted, compact JSON as :meth:`CellCache.put`
    writes it (numpy scalars through ``default=float``), so the digest of
    the payload read back from disk equals the one stored beside it."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=float)
    return _hash_bytes(encoded.encode("utf-8"))


def trial_stream_spec(spec: dict[str, Any]) -> dict[str, Any]:
    """The spec addressing a budgeted cell's trial stream file.

    Derived from a cell's summary ``spec`` by dropping the fields that
    vary with the trial budget — ``trials``, the full ``seeds`` list, and
    the ``budget`` fingerprint itself — and keeping only the *first*
    per-trial seed fingerprint (``seed_stream``).  Because per-trial seeds
    are consecutive siblings of one parent :class:`~numpy.random.SeedSequence`
    (``spawn_key`` suffixes ``i, i+1, ...``), the first child pins the
    entire canonical trial stream: every budget over the same cell shares
    one stream file, so topping a cell up never re-simulates trials a
    smaller budget already ran.
    """
    stream = {
        key: value
        for key, value in spec.items()
        if key not in ("kind", "trials", "seeds", "budget")
    }
    seeds = spec.get("seeds") or []
    stream["kind"] = "trial-stream"
    stream["seed_stream"] = seeds[0] if seeds else None
    return stream


# ----------------------------------------------------------------------
# Payload (de)serialization
# ----------------------------------------------------------------------
#: A cell's rows, as its exhibit renders them from the cell's statistics.
_R = TypeVar("_R")


def _welford_of(state: Any) -> Welford:
    """Rebuild one stored ``asdict`` :class:`~repro.sim.engine.Welford` state.

    Any ``state`` other than exactly ``{"count": integer, "mean": float,
    "m2": float}`` (``count`` under :func:`json_typed`'s integer rule, so
    neither a bool nor an int a float cannot hold) raises
    :class:`ValueError`, or :class:`TypeError` for a foreign key, so a
    reader treats it as unreadable.
    """
    if type(state) is not dict or len(state) != 3:
        raise ValueError(f"not a Welford state: {state!r}")
    welford = Welford(**state)
    floats = (type(welford.mean), type(welford.m2)) == (float, float)
    if not floats or not json_typed(welford.count, int):
        raise ValueError(f"not a Welford state: {state!r}")
    return welford


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
#: Sub-packages whose source content versions the cache tag: everything
#: that can change a simulated cell's result.
_SOURCE_PACKAGES = ("sim", "core", "protocols", "attacks")

#: Memoized digest of the installed package (computed once per process).
_DEFAULT_SOURCE_DIGEST: Optional[str] = None


def _compute_source_digest(root: pathlib.Path) -> str:
    """sha256 over (relative path, bytes) of every ``*.py`` under ``root``'s
    :data:`_SOURCE_PACKAGES` sub-trees, truncated to 12 hex chars."""
    digest = hashlib.sha256()
    for package in _SOURCE_PACKAGES:
        base = root / package
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            try:
                data = path.read_bytes()
            except OSError:  # pragma: no cover - unreadable file
                continue
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(data)
            digest.update(b"\0")
    return digest.hexdigest()[:12]


def source_digest(root: Optional[str | os.PathLike[str]] = None) -> str:
    """Short content hash of the simulation-relevant source tree.

    Hashes every ``*.py`` file (relative path plus raw bytes) under the
    ``{sim,core,protocols,attacks}`` sub-packages of ``root`` — the
    installed ``repro`` package by default, whose digest is computed once
    per process.  Mixed into :func:`cache_tag`, this makes in-place source
    edits invalidate the cell cache automatically: the edited tree writes
    under a fresh tag instead of serving rows simulated by old code.
    """
    global _DEFAULT_SOURCE_DIGEST
    if root is not None:
        return _compute_source_digest(pathlib.Path(root))
    if _DEFAULT_SOURCE_DIGEST is None:
        _DEFAULT_SOURCE_DIGEST = _compute_source_digest(
            pathlib.Path(__file__).resolve().parent.parent
        )
    return _DEFAULT_SOURCE_DIGEST


def cache_tag() -> str:
    """The versioned subdirectory name isolating incompatible caches.

    Combines the cache schema, the installed ``repro`` version, and the
    :func:`source_digest` of the simulation-relevant source tree, so both
    releases *and* in-place code edits invalidate old entries wholesale
    (no manual ``cache prune`` needed after editing simulation code).
    """
    from repro import __version__  # deferred: repro/__init__ imports repro.sim

    return f"v{CACHE_SCHEMA}-repro-{__version__}-{source_digest()}"


def default_cache_dir() -> pathlib.Path:
    """The cache root used when the caller does not pick one.

    Resolution order: the :data:`CACHE_DIR_ENV` environment variable, then
    ``$XDG_CACHE_HOME/repro-ldprecover``, then ``~/.cache/repro-ldprecover``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-ldprecover"


def write_json_atomic(
    path: pathlib.Path, obj: Any, default: Optional[Callable[[Any], Any]] = None
) -> None:
    """Write ``obj`` as compact JSON to ``path``, atomically.

    The one writer of every record the tool reads back.  The JSON goes to
    a temp file beside ``path`` (``separators=(",", ":")`` and ``default``
    as given to :func:`json.dump`), which ``os.replace`` then moves over
    ``path``, so a reader sees the old file or the whole new one and never
    a truncated write.  The directory of ``path`` is created when missing,
    and created once more when a concurrent :meth:`CellCache.prune`
    removes it, emptied, before the temp file lands.  On any exception,
    including an ``obj`` that cannot serialize, the temp file is removed
    and the exception re-raised, leaving ``path`` untouched.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except FileNotFoundError:  # a concurrent prune removed the emptied directory
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, separators=(",", ":"), default=default)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


#: The JSON type each Python type stands for in :func:`json_typed`.
_JSON_TYPES: dict[type, str] = {
    dict: "object", list: "array", str: "string", float: "number", int: "integer"
}


def json_typed(value: Any, kind: type) -> bool:
    """Whether ``value``, read back from JSON, has the JSON type ``kind``.

    The one type rule of every record the tool reads back.  ``kind`` is
    ``dict``, ``list`` or ``str`` for an object, an array or a string,
    checked with ``isinstance``; ``float`` for a number: an ``int`` or a
    ``float``, never a ``bool``, that a float can hold (``abs(value) <=
    sys.float_info.max``), so a 400-digit integer, NaN and ±inf are none;
    and ``int`` for an integer, the same rule for an ``int`` alone.
    """
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if kind is int:
        return type(value) is int and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def read_json_object(
    path: pathlib.Path, fields: Optional[dict[str, type]] = None
) -> dict[str, Any]:
    """The JSON object stored in the file ``path``.

    The one reader of every record the tool reads back: cache entries
    and trial streams, shard reports and claims, service snapshots.
    Raises :class:`ValueError` when the file is not JSON (nesting too
    deep for the parser included), holds another JSON value, or has one
    of ``fields`` (``{name: kind}``) present with another JSON type under
    :func:`json_typed`, and :class:`OSError` when it cannot be read, so
    every caller treats all of these as one unreadable record.
    """
    with path.open("r", encoding="utf-8") as handle:
        try:
            record = json.load(handle)
        except RecursionError as exc:
            raise ValueError("cache file nests too deeply to parse") from exc
    if not isinstance(record, dict):
        raise ValueError("cache entry is not a JSON object")
    for name, kind in (fields or {}).items():
        if name in record and not json_typed(record[name], kind):
            raise ValueError(f"{name} is not a JSON {_JSON_TYPES[kind]}")
    return record


#: The typed parts of a cache entry: a mistyped one makes it unreadable.
_ENTRY_FIELDS: dict[str, type] = {"spec": dict, "meta": dict, "created_at": float}


def _part(value: Any, kind: type = dict) -> Any:
    """``value`` when it is a ``kind`` (a JSON object by default), else an
    empty one: a mistyped spec part reads as absent."""
    return value if isinstance(value, kind) else kind()


def _read_stream(path: pathlib.Path, stream_key: str) -> list[dict[str, float]]:
    """The per-trial metric dicts stored in the trial stream file ``path``.

    Raises :class:`ValueError` unless the file is a JSON object that names
    ``stream_key``, holds ``per_trial`` as a list of ``{str: number}``
    objects (numbers under :func:`json_typed`), and carries that list's
    ``payload_sha256``.
    """
    data = read_json_object(path)
    per_trial = data.get("per_trial")
    if data.get("stream_key") != stream_key:
        raise ValueError("stream key does not match the file name")
    if not json_typed(per_trial, list) or not all(
        json_typed(metrics, dict) and all(json_typed(value, float) for value in metrics.values())
        for metrics in per_trial
    ):
        raise ValueError("per_trial is not a list of metric objects")
    if _payload_digest(per_trial) != data.get("payload_sha256"):
        raise ValueError("payload digest missing or does not match the trials")
    return per_trial


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`CellCache` instance.

    Besides the whole-cell counters, adaptive (budgeted) runs maintain
    trial-block counters, where a block is the batch of trials one budget
    checkpoint adds: ``block_hits`` counts checkpoints whose trials were
    all read from a stored trial stream, ``block_trials_reused`` the
    trials those streams held, and ``block_stores`` the blocks freshly
    run and appended.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    block_hits: int = 0
    block_trials_reused: int = 0
    block_stores: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Optional[float]:
        """Fraction of lookups served from disk; ``None`` before any lookup."""
        return self.hits / self.lookups if self.lookups else None

    def summary(self) -> str:
        """One-line human summary (the ``--cache-stats`` output format)."""
        rate = self.hit_rate
        rendered = "n/a" if rate is None else f"{100.0 * rate:.1f}%"
        line = (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stored (hit rate {rendered})"
        )
        if self.errors:
            line += f", {self.errors} unreadable entries"
        if self.block_hits or self.block_stores:
            line += (
                f", {self.block_hits} trial blocks reused "
                f"({self.block_trials_reused} trials), "
                f"{self.block_stores} appended"
            )
        return line


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one cached cell, as listed by ``repro cache ls``.

    ``meta`` carries store-time annotations outside the result payload;
    adaptive (budgeted) cells record their final trial count, block count
    and achieved CI half-width there.
    """

    key: str
    path: pathlib.Path
    created_at: float
    size_bytes: int
    spec: dict[str, Any] = field(repr=False)
    meta: Optional[dict[str, Any]] = field(default=None, repr=False)

    def summary_row(self) -> dict[str, object]:
        """Flat row for ``cache ls`` tables (best-effort spec highlights).

        Every nested spec part is read through :func:`_part`, so a part of
        the wrong JSON type shows as absent (``-``) instead of failing.
        """
        spec = self.spec
        # Scenario rows carry their population under "source" instead of
        # "dataset" (it need not be a Dataset); show whichever is present.
        dataset = _part(spec.get("dataset") or spec.get("source")).get("name", "-")
        oracle = _part(spec.get("protocol"))
        protocol = oracle.get("describe") or oracle.get("__type__", "-")
        if spec.get("kind") == "evaluation":
            attack = _part(spec.get("attack")).get("describe", "none")
            exhibit = "evaluation"
            beta, eta, trials = spec.get("beta"), spec.get("eta"), spec.get("trials")
        else:
            attacks = [_part(a) for a in _part(spec.get("attacks"), list)]
            attack = ", ".join(a.get("describe", a.get("__type__", "?")) for a in attacks) or "none"
            exhibit = spec.get("exhibit", "row")
            params = _part(spec.get("params"))
            beta, eta = params.get("beta"), params.get("eta")
            trials = len(_part(spec.get("seeds"), list))
        meta = self.meta or {}
        if meta.get("trials") is not None:
            trials = meta["trials"]  # adaptive cells: the achieved count
        return {
            "key": self.key[:12],
            "kind": exhibit,
            "dataset": dataset,
            "protocol": protocol,
            "attack": attack,
            "beta": beta,
            "eta": eta,
            "trials": trials,
            "blocks": meta.get("blocks"),
            "ci95": meta.get("achieved_halfwidth"),
            "age_s": round(max(0.0, time.time() - self.created_at), 1),
            "bytes": self.size_bytes,
        }


class CellCache:
    """Content-addressed on-disk store of completed experimental cells.

    Parameters
    ----------
    cache_dir:
        Root directory of the store; created lazily on first write.
        Entries live under the versioned :func:`cache_tag` subdirectory.
    tag:
        Override the version tag (tests only; the default ties entries to
        the cache schema, the installed ``repro`` version, and the
        :func:`source_digest` of the simulation source tree).
    """

    def __init__(
        self, cache_dir: str | os.PathLike[str], tag: Optional[str] = None
    ) -> None:
        self.cache_dir = pathlib.Path(cache_dir)
        self.tag = tag or cache_tag()
        self.stats = CacheStats()

    @property
    def root(self) -> pathlib.Path:
        """The versioned directory actually holding this cache's entries."""
        return self.cache_dir / self.tag

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # -- core get/put --------------------------------------------------
    def key_for(self, spec: dict[str, Any]) -> str:
        """The canonical content key of a cell spec."""
        return canonical_key(spec)

    def get(
        self,
        spec: dict[str, Any],
        rows_for: Callable[[dict[str, Welford]], list[_R]],
    ) -> Optional[list[_R]]:
        """Return ``spec``'s rows rendered from its cached statistics, or
        ``None`` on a miss.

        The one decoder of every cell: the stored payload is rebuilt into
        its per-metric :class:`~repro.sim.engine.Welford` states and
        ``rows_for(stats)`` renders the cell's rows.  An entry that does
        not do both — a file :func:`read_json_object` cannot read (``spec``
        or ``meta`` not an object, ``created_at`` not a number included, as
        for :meth:`entries`, :meth:`verify` and :meth:`prune`), a payload
        that is not a JSON object or holds a state that is not exactly
        ``{count: integer, mean: float, m2: float}``, statistics its
        renderer cannot read — counts as one miss and bumps
        :attr:`CacheStats.errors`, so the cell is recomputed and its entry
        overwritten.  Each lookup is counted once.  The payload digest is
        left to :meth:`verify`, which keeps warm reads cheap.
        """
        path = self._path(self.key_for(spec))
        try:
            payload = read_json_object(path, _ENTRY_FIELDS)["payload"]
            rows = rows_for({name: _welford_of(state) for name, state in payload.items()})
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, AttributeError, OSError):
            self.stats.misses += 1
            self.stats.errors += 1
            return None
        self.stats.hits += 1
        return rows

    def contains(self, key: str) -> bool:
        """Whether an entry file for ``key`` exists (readability unchecked).

        The shard runner's completeness checks
        (:func:`repro.sim.shard.sweep_status` /
        :func:`repro.sim.shard.merge_sweep`) use this to test cell
        presence without paying a JSON parse per cell.
        """
        return self._path(key).is_file()

    def put(
        self,
        spec: dict[str, Any],
        stats: dict[str, Welford],
        meta: Optional[dict[str, Any]] = None,
    ) -> pathlib.Path:
        """Store ``spec``'s statistics (atomic write); return the entry path.

        The payload is every state of ``stats`` as ``asdict`` of its
        :class:`~repro.sim.engine.Welford`, sorted by metric name.
        ``meta``, when given, is stored on the entry *next to* the payload
        (never inside it): adaptive runs annotate block counts and achieved
        half-widths there without perturbing the cached result bytes.  So
        is ``payload_sha256``, the payload's digest that :meth:`verify`
        checks.
        """
        key = self.key_for(spec)
        path = self._path(key)
        payload = {name: asdict(w) for name, w in sorted(stats.items())}
        entry = {
            "key": key,
            "schema": CACHE_SCHEMA,
            "created_at": time.time(),
            "spec": spec,
            "payload": payload,
            "payload_sha256": _payload_digest(payload),
        }
        if meta is not None:
            entry["meta"] = meta
        write_json_atomic(path, entry, default=float)
        self.stats.stores += 1
        return path

    # -- trial streams (adaptive budgets) ------------------------------
    def block_store(self, stream_spec: dict[str, Any]) -> "CellBlockStore":
        """The trial stream store of one budgeted cell.

        ``stream_spec`` is the cell's :func:`trial_stream_spec`; the
        returned :class:`CellBlockStore` satisfies the engine's
        :class:`repro.sim.engine.TrialBlockStore` protocol.
        """
        return CellBlockStore(self, canonical_key(stream_spec))

    # -- maintenance (the `repro cache` subcommand) --------------------
    #
    # Maintenance may run while other processes (shard peers sharing this
    # cache directory) are writing and pruning concurrently.  Two rules
    # keep it race-free: in-flight temp files (``*.tmp``, non-atomic by
    # definition) are never treated as entries or streams, and a file
    # that vanishes between listing and stat/open/unlink is already-gone,
    # not an error.

    #: Age (seconds) past which a ``*.tmp`` file is considered orphaned —
    #: left behind by a SIGKILLed writer rather than an in-flight
    #: :meth:`CellCache.put` — and swept by :meth:`CellCache.prune`.
    TMP_ORPHAN_SECONDS = 3600.0

    @staticmethod
    def is_entry(path: pathlib.Path) -> bool:
        """Whether the cache file ``path`` is a cell entry (``*.json``)
        rather than a trial stream (``*.trials``)."""
        return path.suffix == ".json"

    def _files(self, pattern: str, all_tags: bool = False) -> list[pathlib.Path]:
        """The files matching ``pattern`` under this cache's tag (or
        ``all_tags``), sorted.  ``*.json`` never matches the ``.tmp``
        files of in-flight writers, so concurrent writes are invisible
        here until their atomic ``os.replace`` lands."""
        base = self.cache_dir if all_tags else self.root
        return sorted(base.rglob(pattern)) if base.is_dir() else []

    def _sweep_orphan_tmp(self, all_tags: bool = False) -> None:
        """Delete orphaned writer temp files.

        A crashed (SIGKILLed) :meth:`put` cannot reach its cleanup
        handler, leaving a ``*.tmp`` file behind forever.  Files younger
        than :attr:`TMP_ORPHAN_SECONDS` are left alone — they may belong
        to a live writer on this or another machine.  ``all_tags``
        extends the sweep beyond the current version tag.
        """
        horizon = time.time() - self.TMP_ORPHAN_SECONDS
        for path in self._files("*.tmp", all_tags):
            try:
                if path.stat().st_mtime <= horizon:
                    _remove(path)
            except OSError:
                continue  # a concurrent sweep (or the writer) got there first

    def count(self, all_tags: bool = False) -> int:
        """Number of entry files on disk (readable or not)."""
        return len(self._files("*.json", all_tags))

    def entries(self, all_tags: bool = False) -> list[CacheEntry]:
        """Readable entries of this cache version (or of ``all_tags``).

        An entry whose ``spec`` or ``meta`` is not a JSON object, or whose
        ``created_at`` is not a number a float can hold, is unreadable
        here as in :meth:`get`; :meth:`verify` reports it.
        """
        out = []
        for path in self._files("*.json", all_tags):
            try:
                entry = read_json_object(path, _ENTRY_FIELDS)
                out.append(
                    CacheEntry(
                        key=str(entry["key"]),
                        path=path,
                        created_at=float(entry.get("created_at", 0.0)),
                        size_bytes=path.stat().st_size,
                        spec=entry.get("spec", {}),
                        meta=entry.get("meta"),
                    )
                )
            except (ValueError, KeyError, OSError):
                continue  # unreadable, or pruned by a concurrent process
        return out

    def prune(
        self, older_than_days: Optional[float] = None, all_tags: bool = False
    ) -> int:
        """Delete cached cells; return the number of entries removed.

        ``older_than_days`` keeps entries younger than the horizon;
        ``None`` removes everything.  ``all_tags`` extends the sweep to
        entries written by other schema/package versions (the usual way to
        reclaim space after upgrades).  Every prune also sweeps orphaned
        writer temp files (``*.tmp`` older than
        :attr:`TMP_ORPHAN_SECONDS`, left by SIGKILLed writers) and trial
        streams (aged by file modification time — streams carry no
        timestamps of their own); neither counts toward the returned
        total.  Each removal also removes the file's directory once it is
        empty (a concurrent writer recreates it; see
        :func:`write_json_atomic`).  An unreadable entry is always old
        enough.  Entries deleted concurrently by another process are
        treated as already gone, not errors.
        """
        if older_than_days is not None and older_than_days < 0:
            raise InvalidParameterError(
                f"older_than_days must be >= 0, got {older_than_days}"
            )
        horizon = (
            None if older_than_days is None else time.time() - 86_400.0 * older_than_days
        )
        self._sweep_orphan_tmp(all_tags)
        removed = 0
        for path in [*self._files("*.json", all_tags), *self._files("*.trials", all_tags)]:
            try:
                if (horizon is None or _stamp(path) <= horizon) and _remove(path):
                    removed += self.is_entry(path)
            except OSError:
                continue  # pruned by a concurrent process: already gone
        return removed

    def verify(self, delete: bool = False) -> list[tuple[pathlib.Path, str]]:
        """Check every entry's and stream's integrity; return ``(path,
        problem)`` pairs.

        An entry is healthy when :func:`read_json_object` reads it (a JSON
        object whose ``spec`` and ``meta`` are objects and ``created_at``
        a number, like :meth:`get` requires), it carries a payload, its
        stored key equals the canonical hash recomputed from
        its stored spec, and its stored ``payload_sha256`` equals the
        digest recomputed from its payload (i.e. the file content was not
        tampered with or half-written).  A trial stream is healthy when
        :meth:`CellBlockStore.load` would serve it.  ``delete`` removes
        the offenders.  Files pruned by a concurrent process mid-check are
        skipped, not reported — a vanished file is not a corrupt file.
        """
        problems = []
        for path in [*self._files("*.json"), *self._files("*.trials")]:
            try:
                problem = _problem(path)
            except FileNotFoundError:
                continue  # pruned by a concurrent process: nothing to verify
            except (ValueError, OSError) as exc:
                problem = f"unreadable: {exc}"
            if problem is not None:
                problems.append((path, problem))
                if delete:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return problems


def _remove(path: pathlib.Path) -> bool:
    """Delete the cache file ``path``, then its directory if that is now
    empty; ``False`` when another process removed the file first."""
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    try:
        path.parent.rmdir()
    except OSError:
        pass  # not empty, or already gone
    return True


def _stamp(path: pathlib.Path) -> float:
    """When the cache file ``path`` was written, for ``prune``: an entry's
    ``created_at`` (``0.0`` when unreadable), a stream's modification time."""
    if path.suffix == ".trials":
        return path.stat().st_mtime
    try:
        return float(read_json_object(path, _ENTRY_FIELDS).get("created_at", 0.0))
    except FileNotFoundError:
        raise
    except (ValueError, OSError):
        return 0.0  # unreadable: always eligible


def _problem(path: pathlib.Path) -> Optional[str]:
    """``verify``'s finding about the cache file ``path``, ``None`` when
    healthy; raises :class:`ValueError` or :class:`OSError` when it is
    unreadable."""
    if path.suffix == ".trials":
        _read_stream(path, path.stem)
        return None
    entry = read_json_object(path, _ENTRY_FIELDS)
    if "payload" not in entry:
        return "missing payload"
    if canonical_key(entry.get("spec", {})) != entry.get("key"):
        return "key does not match stored spec"
    if path.stem != entry.get("key"):
        return "filename does not match stored key"
    if _payload_digest(entry["payload"]) != entry.get("payload_sha256"):
        return "payload digest missing or does not match the payload"
    return None


class CellBlockStore:
    """The trial stream of one budgeted cell: one file, rewritten whole.

    A budgeted cell's per-trial metric dicts live, from trial 0 in trial
    order, in ``<root>/<key[:2]>/<key>.trials`` where ``key`` is the
    :func:`canonical_key` of the cell's :func:`trial_stream_spec`.  They
    are the ground truth the adaptive driver refolds, which is what makes
    adaptive results bit-identical to fixed-budget runs.  The file is
    always a prefix of the cell's canonical trial stream: every append
    rewrites the whole list atomically, so a concurrent writer can at
    worst shorten it, losing work but never making a number wrong.

    A stream that does not load — not JSON, another stream's key, a
    ``per_trial`` that is not a list of metric objects, a value that is
    not a number a float can hold, or a digest that does not match — is
    one :attr:`CacheStats.errors` and reads as empty,
    so the cell reruns from trial 0 and rewrites it.

    This class satisfies the engine's
    :class:`repro.sim.engine.TrialBlockStore` protocol.  It takes no
    claims of its own: under shard claims, only the shard holding the
    cell's claim extends its stream (see :mod:`repro.sim.shard`).
    """

    def __init__(self, cache: CellCache, stream_key: str) -> None:
        self.cache = cache
        self.stream_key = stream_key
        self.path = cache.root / stream_key[:2] / f"{stream_key}.trials"

    def load(self) -> list[dict[str, float]]:
        """The stored per-trial metric dicts, counting them as reused.

        A missing stream is empty; a damaged one is empty too and bumps
        :attr:`CacheStats.errors` once.
        """
        try:
            per_trial = _read_stream(self.path, self.stream_key)
        except FileNotFoundError:
            return []
        except (ValueError, OSError):
            self.cache.stats.errors += 1
            return []
        self.cache.stats.block_trials_reused += len(per_trial)
        return per_trial

    def append(self, per_trial: list[dict[str, float]]) -> None:
        """Store ``per_trial``, the stream from trial 0, as one new block
        (atomic rewrite of the whole file)."""
        stream = {
            "stream_key": self.stream_key,
            "schema": CACHE_SCHEMA,
            "per_trial": per_trial,
            "payload_sha256": _payload_digest(per_trial),
        }
        write_json_atomic(self.path, stream, default=float)
        self.cache.stats.block_stores += 1


def resolve_cache(
    cache_dir: Optional[str | os.PathLike[str]] = None, no_cache: bool = False
) -> Optional[CellCache]:
    """Build the cache the CLI (and scripts) should use, or ``None``.

    ``no_cache`` wins over everything; otherwise ``cache_dir`` (explicit
    argument or ``--cache-dir``) is used, falling back to
    :func:`default_cache_dir`.
    """
    if no_cache:
        return None
    return CellCache(cache_dir if cache_dir is not None else default_cache_dir())
