"""Experiment harness: the one cell runner and multi-trial recovery evaluation.

This is the layer the benchmarks and CLI sit on.  Every cell of every
exhibit runs through :func:`run_cell`, which owns seed spawning, the
cell spec, the cache lookup, the trials, a budgeted cell's trial stream
and the store of the cell's statistics, and renders the cell's rows from those
statistics with the exhibit's ``rows_for`` on a hit and on a miss alike.
:func:`evaluate_recovery` is one such cell: it runs
``trials`` independent poisoning rounds, applies every recovery method
under evaluation (before-recovery, LDPRecover, LDPRecover*, Detection)
and averages the metrics — exactly the paper's protocol of averaging
MSE/FG over 10 trials (Section VI-B).

Execution is delegated to :mod:`repro.sim.engine`: each cell's trial is
one picklable ``seed -> {metric: value}`` callable (a module-level trial
function with the cell's parameters bound by :func:`functools.partial`),
run over ``SeedSequence``-spawned child streams inline or across a
fork-safe process pool with bit-identical results, and metrics accumulate
through streaming :class:`~repro.sim.engine.Welford` statistics so every
cell also carries variance/CI information.

How the cells of a run execute is one :class:`RunContext` — worker
fan-out, the :class:`repro.sim.cache.CellCache` that serves and stores
completed cells, and the adaptive trial budget — built once by
:meth:`repro.sim.shard.SweepConfig.run` and passed on unchanged by every
exhibit generator to :func:`run_cell`, its only reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, ClassVar, Optional, Sequence, TypeVar

import numpy as np

from repro._rng import RngLike, spawn_sequences
from repro.attacks.base import PoisoningAttack
from repro.datasets.base import Dataset
from repro.exceptions import InvalidParameterError
from repro.protocols.base import FrequencyOracle
from repro.sim.cache import (
    CellCache,
    evaluation_cell_spec,
    resolved_cohort_chunk,
    trial_stream_spec,
)
from repro.sim.engine import (
    TrialBudget,
    Welford,
    resolve_star_targets,
    resolve_workers,
    run_adaptive_trials,
    trial_metrics,
)
from repro.sim.pipeline import SimulationMode, _validate_chunk, malicious_count

__all__ = [
    "RecoveryEvaluation",
    "RunContext",
    "apply_olh_cohort",
    "evaluate_recovery",
    "format_table",
    "resolve_star_targets",
    "run_cell",
]


@dataclass(frozen=True)
class RunContext:
    """How the cells of one run execute: the knobs every exhibit passes on.

    ``workers`` fans each cell's trials over a process pool (``None``/``0``
    = all cores).  It never changes a result — pooled trials are
    bit-identical to ``workers=1`` — so it never enters a cell key.

    ``budget`` is an optional :class:`~repro.sim.engine.TrialBudget`.  It
    supersedes ``trials``: each cell runs adaptive trial batches until its
    CI target is met, and its fingerprint enters the cell key.

    ``cache`` is an optional :class:`~repro.sim.cache.CellCache`.  It
    serves completed cells and stores new ones; under a ``budget`` it also
    keeps each cell's trial stream, so a larger budget resumes.

    Exhibit generators only pass a context on; :func:`run_cell` is the
    only reader of its fields.  Construction rejects a negative
    ``workers`` with :class:`~repro.exceptions.InvalidParameterError`, so a
    bad count fails before any cell is served from cache.
    """

    workers: Optional[int] = 1
    cache: Optional[CellCache] = None
    budget: Optional[TrialBudget] = None

    def __post_init__(self) -> None:
        resolve_workers(self.workers)


@dataclass
class RecoveryEvaluation:
    """Averaged metrics of one experimental cell (one figure bar/point)."""

    dataset: str
    protocol: str
    attack: str
    beta: float
    eta: float
    trials: int
    #: MSE vs. the true frequencies (Eq. 36), averaged over trials.
    mse_before: float = 0.0
    mse_recover: float = 0.0
    mse_recover_star: Optional[float] = None
    mse_detection: Optional[float] = None
    #: Frequency gain of the target items (Eq. 37 convention; targeted only).
    fg_before: Optional[float] = None
    fg_recover: Optional[float] = None
    fg_recover_star: Optional[float] = None
    fg_detection: Optional[float] = None
    #: MSE of the estimated vs. true malicious frequencies (Figure 7).
    mse_malicious_estimate: Optional[float] = None
    mse_malicious_estimate_star: Optional[float] = None
    #: Per-metric :class:`~repro.sim.engine.Welford` statistics keyed by
    #: metric name, for confidence intervals over the trial average.
    stats: dict[str, Welford] = field(default_factory=dict)

    #: Metric columns emitted by :meth:`as_row`, in output order.
    METRIC_COLUMNS: ClassVar[tuple[str, ...]] = (
        "mse_before",
        "mse_recover",
        "mse_recover_star",
        "mse_detection",
        "fg_before",
        "fg_recover",
        "fg_recover_star",
        "fg_detection",
        "mse_malicious_estimate",
        "mse_malicious_estimate_star",
    )

    def ci95(self, metric: str) -> Optional[float]:
        """95% CI half-width of a metric's trial average, if estimable."""
        entry = self.stats.get(metric)
        return entry.ci95_halfwidth if entry is not None else None

    def as_row(self, ci: bool = False) -> dict[str, object]:
        """Flat dict for table printing / CSV dumps (every metric column).

        With ``ci=True`` every metric column is followed by a ``<metric>±``
        column carrying the 95% confidence half-width of its trial average
        (``None`` when fewer than two trials contributed).
        """
        row: dict[str, object] = {
            "dataset": self.dataset,
            "protocol": self.protocol,
            "attack": self.attack,
            "beta": self.beta,
            "eta": self.eta,
            "trials": self.trials,
        }
        for metric in self.METRIC_COLUMNS:
            row[metric] = getattr(self, metric)
            if ci:
                row[f"{metric}±"] = self.ci95(metric)
        return row


def evaluate_recovery(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: Optional[PoisoningAttack],
    beta: float = 0.05,
    eta: float = 0.2,
    trials: int = 10,
    mode: SimulationMode = "fast",
    with_star: bool = True,
    with_detection: bool = False,
    aa_top_k: int = 5,
    rng: RngLike = None,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    strict_beta: bool = False,
    ctx: RunContext = RunContext(),
) -> RecoveryEvaluation:
    """Run one experimental cell through :func:`run_cell` and average over ``trials``.

    Parameters
    ----------
    dataset:
        Genuine population (histogram) of the cell.
    protocol:
        The LDP frequency oracle under attack.
    attack:
        Poisoning attack, or ``None`` for an unpoisoned cell.
    beta:
        Malicious user fraction ``m / (n + m)`` (paper default 0.05).
    eta:
        Server-side zero-threshold parameter of LDPRecover.
    trials:
        Independent poisoning rounds averaged into the cell.
    mode:
        Simulation mode per :func:`repro.sim.pipeline.run_trial`;
        ``with_detection`` requires ``mode="sampled"`` because the
        Detection baseline filters individual reports.
    with_star:
        Also evaluate LDPRecover* (the partial-knowledge variant).
    with_detection:
        Also evaluate the Detection baseline (needs ``mode="sampled"``).
    aa_top_k:
        Number of top-increase items LDPRecover* assumes for untargeted
        attacks (the AA rule of Section VI-A4).
    rng:
        Seed or generator; per-trial streams are ``SeedSequence`` children
        spawned from it.
    chunk_users:
        Users simulated per chunk in the bounded-memory exact path;
        passing it upgrades ``mode="fast"`` to ``"chunked"``.  Like the
        context's ``workers`` it is an execution knob excluded from the
        cache key; a value below 1 raises
        :class:`~repro.exceptions.InvalidParameterError` before the
        cache lookup.
    olh_cohort:
        Run a cohort-capable protocol (OLH) in seed-cohort mode: each
        perturb batch draws this many shared hash seeds, enabling the
        O(K*d + n) grouped aggregation.  Unlike ``workers`` /
        ``chunk_users`` this *changes the report distribution* (shared
        seeds correlate users' support sets), so for report-level cells
        the cohort size — and, in chunked mode, the resolved chunk size,
        which sets the cohort schedule — is part of the cell's cache key.
        A no-op in ``mode="fast"``, whose distributional sampler is
        cohort-independent (those cells keep their per-user-seed cache
        entry).  Raises for protocols without cohort support.
    strict_beta:
        Turn the "beta rounds to zero malicious users" warning into an
        error before any trial runs.
    ctx:
        The run's :class:`RunContext`.  Its ``cache`` serves a stored cell
        without running any trials and stores a computed one.  Its
        ``budget`` supersedes ``trials``: the cell runs adaptive trial
        batches until every metric's 95% CI half-width reaches the
        target (or ``max_trials``), bit-identical to a fixed-budget call
        at the achieved trial count under the same ``rng``; with a
        ``cache`` the trials persist as the cell's trial stream, so a
        later, larger budget resumes instead of recomputing.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if with_detection and mode != "sampled":
        raise InvalidParameterError("Detection requires mode='sampled'")
    _validate_chunk(chunk_users)
    if chunk_users is not None and mode == "fast":
        mode = "chunked"
    if chunk_users is not None and mode == "sampled":
        raise InvalidParameterError(
            "chunk_users is incompatible with mode='sampled' (chunked simulation "
            "does not retain reports); use mode='chunked' without detection"
        )
    if olh_cohort is not None:
        if not hasattr(protocol, "with_cohort"):
            raise InvalidParameterError(
                f"olh_cohort requires a cohort-capable protocol (OLH/BLH), "
                f"got {protocol.name!r}"
            )
        # The cohort-configured copy is used everywhere below, including
        # the cache spec: cohort mode changes the report distribution, so
        # it must (and does, via the protocol fingerprint) change the key.
        protocol = apply_olh_cohort(protocol, olh_cohort, mode)
    if attack is not None:
        # Surface the m=0 rounding problem at the cell level — under
        # strict_beta this fails fast before any worker spawns, and the
        # warning fires here even when pooled workers' stderr is lost.
        # (Trials may re-warn from run_trial in their own processes.)
        malicious_count(dataset.num_users, beta, strict=strict_beta)

    attack_name = attack.describe() if attack is not None else "none"

    def _evaluation(stats: dict[str, Welford]) -> list[RecoveryEvaluation]:
        means = {
            metric: stats[metric].mean if metric in stats else None
            for metric in RecoveryEvaluation.METRIC_COLUMNS
        }
        # trial_metrics always emits mse_before (and mse_recover), so its
        # count is the trials run: ``trials``, or a budget's achieved count.
        return [
            RecoveryEvaluation(
                dataset.name, protocol.name, attack_name, beta, eta,
                trials=stats["mse_before"].count, stats=stats, **means,
            )
        ]

    (evaluation,) = run_cell(
        rng,
        lambda seeds: evaluation_cell_spec(
            dataset,
            protocol,
            attack,
            beta=beta,
            eta=eta,
            trials=len(seeds),
            mode=mode,
            with_star=with_star,
            with_detection=with_detection,
            aa_top_k=aa_top_k,
            seeds=seeds,
            cohort_chunk_users=resolved_cohort_chunk(protocol, mode, chunk_users),
        ),
        partial(
            trial_metrics, dataset, protocol, attack, beta, eta, mode,
            with_star, with_detection, aa_top_k, chunk_users,
        ),
        _evaluation,
        trials=trials,
        ctx=ctx,
    )
    return evaluation


def apply_olh_cohort(
    protocol: FrequencyOracle, olh_cohort: Optional[int], mode: str
) -> FrequencyOracle:
    """The one ``olh_cohort`` rule of every exhibit cell.

    For a cohort-capable ``protocol`` (one with a ``with_cohort`` hook,
    i.e. OLH/BLH) the cohort size ``olh_cohort`` is validated in every
    ``mode`` but applied only where the cell materializes reports: the
    ``"fast"`` sampler draws marginals, which are cohort-independent, so
    fast cells keep their per-user-seed protocol — and cache key.
    Protocols without seed cohorts, and ``olh_cohort=None``, return
    ``protocol`` unchanged.
    """
    with_cohort = None if olh_cohort is None else getattr(protocol, "with_cohort", None)
    if with_cohort is None:
        return protocol
    cohorted: FrequencyOracle = with_cohort(olh_cohort)
    return protocol if mode == "fast" else cohorted


#: A cell's rows, as its exhibit renders them from the cell's statistics.
_R = TypeVar("_R")


def run_cell(
    rng: RngLike,
    spec_for: Callable[[list[np.random.SeedSequence]], dict[str, Any]],
    trial: Callable[[np.random.SeedSequence], dict[str, float]],
    rows_for: Callable[[dict[str, Welford]], list[_R]],
    trials: int = 5,
    ctx: RunContext = RunContext(),
) -> list[_R]:
    """Run one cached cell of an exhibit and return its rows.

    The one cell runner behind every exhibit, evaluation cells
    (:func:`evaluate_recovery`) included:

    1. spawn the per-trial seeds off ``rng`` — ``trials`` of them, or
       the ``ctx.budget``'s ``max_trials`` — before any lookup, so the
       parent stream advances identically on hits and misses;
    2. with a ``ctx.cache``, key the cell by ``spec_for(seeds)`` plus the
       budget fingerprint and return the rows
       :meth:`~repro.sim.cache.CellCache.get` renders with ``rows_for``
       from the stored statistics;
    3. otherwise run the trials through
       :func:`repro.sim.engine.run_adaptive_trials` — the picklable
       ``trial`` callable on each seed, on ``ctx.workers`` processes,
       under ``ctx.budget`` (resuming the cell's cached trial stream) or
       else a budget of exactly ``trials`` — and store the aggregated
       per-metric :class:`~repro.sim.engine.Welford` statistics, with a
       budgeted cell's outcome as entry metadata;
    4. return ``rows_for`` of those statistics, so a cell renders its
       rows the same way on a hit and on a miss.

    Raises :class:`~repro.exceptions.InvalidParameterError` for
    ``trials < 1``.  A cached entry that does not render is a miss, and
    the cell is recomputed; ``rows_for`` failing on freshly computed
    statistics propagates unchanged.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    cache, budgeted = ctx.cache, ctx.budget is not None
    budget = ctx.budget or TrialBudget(min_trials=trials, max_trials=trials)
    # A budget spawns its whole max_trials stream up front: the first k
    # children equal a fixed k-trial run's seeds (the bit-identity anchor).
    seeds = spawn_sequences(rng, budget.max_trials)
    if cache is None:
        return rows_for(run_adaptive_trials(budget, trial, seeds, ctx.workers).stats)
    spec = spec_for(seeds)
    if budgeted:
        spec["budget"] = budget.fingerprint()
    rows = cache.get(spec, rows_for)
    if rows is not None:
        return rows
    store = cache.block_store(trial_stream_spec(spec)) if budgeted else None
    outcome = run_adaptive_trials(budget, trial, seeds, ctx.workers, store)
    if store is not None:
        store.cache.stats.block_hits += outcome.blocks_reused
    cache.put(spec, outcome.stats, meta=outcome.meta() if budgeted else None)
    return rows_for(outcome.stats)


def format_table(rows: Sequence[dict[str, object]], float_format: str = "{:.3e}") -> str:
    """Render ``rows`` as an aligned text table (the benches' format).

    ``float_format`` is the format string applied to float cells;
    ``None`` cells render as ``-``.
    """
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col)
            if value is None:
                cells.append("-")
            elif isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    divider = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rendered)
    return f"{header}\n{divider}\n{body}"
