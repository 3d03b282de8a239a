"""Regeneration of every table and figure in the paper's evaluation.

Each ``figure*_rows`` / ``table1_rows`` function reproduces one exhibit of
Section VI / VII and returns a list of flat row dicts (printable with
:func:`repro.sim.experiment.format_table`).  The benchmark suite and the
CLI are thin wrappers over these functions; ``docs/exhibits.md`` maps each
exhibit to its function, regenerating CLI command, and emitted columns.

Scale notes: the paper runs 10 trials at full population.  The defaults
here are tuned so the full suite finishes in minutes on a laptop —
``sampled``-mode exhibits (those needing the Detection baseline or raw
reports) run at a scaled population, pure-aggregate exhibits run in
``fast`` mode.  Pass ``num_users=None`` for the paper's full populations.

Every exhibit takes ``ctx=`` (a :class:`repro.sim.experiment.RunContext`)
and passes it on unchanged to each cell, which runs through
:func:`repro.sim.experiment.run_cell`.  The context carries worker fan-out
(results bit-identical to ``workers=1``), the adaptive trial budget, and the
:class:`repro.sim.cache.CellCache` that keys completed cells by the
canonical hash of their full spec and serves them on repeat runs.  An
interrupted sweep therefore resumes where it stopped, warm regeneration
performs zero simulation trials, and :mod:`repro.sim.shard` merges
multi-machine sweeps by rendering every row from the cached statistics,
bit-identical to the run that produced them.

The fast-mode exhibits also take ``chunk_users=`` to switch to the
bounded-memory exact simulation path, and every exhibit takes
``olh_cohort=``: its OLH cells then draw hash keys from cohorts of that
many shared seeds, collapsing report-level aggregation from O(n*d) to
O(K*d + n) per chunk (a different report distribution, hence a different
cache key — see :class:`repro.protocols.OLH`).  Each metric column is
accompanied by a ``<column>±`` companion holding the 95% confidence
half-width of the trial average (``None``/``-`` when a single trial
contributed).
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, TypeVar

import numpy as np

from repro._rng import RngLike, as_generator, spawn
from repro.attacks import (
    AdaptiveAttack,
    InputPoisoningAttack,
    ManipAttack,
    MGAAttack,
    MultiAttacker,
)
from repro.attacks.base import PoisoningAttack
from repro.core.kmeans import KMeansDefense, recover_with_kmeans
from repro.datasets import Dataset, fire_like, ipums_like
from repro.exceptions import InvalidParameterError
from repro.protocols import PROTOCOL_NAMES, FrequencyOracle, make_protocol
from repro.sim.cache import resolved_cohort_chunk, row_cell_spec
from repro.sim.engine import Welford, trial_metrics
from repro.sim.experiment import (
    RecoveryEvaluation,
    RunContext,
    apply_olh_cohort,
    evaluate_recovery,
    run_cell,
)
from repro.sim.metrics import mse
from repro.sim.pipeline import SimulationMode, _validate_chunk, run_trial

#: Paper defaults (Section VI-A): epsilon, malicious fraction, number of
#: target items, server-side eta.
DEFAULT_EPSILON = 0.5
DEFAULT_BETA = 0.05
DEFAULT_R = 10
DEFAULT_ETA = 0.2

_T = TypeVar("_T")


def load_dataset(name: str, num_users: Optional[int]) -> Dataset:
    """The two paper workloads by ``name`` (``"ipums"`` / ``"fire"``).

    ``num_users`` rescales the population while preserving the frequency
    profile; ``None`` keeps the paper's full population.
    """
    key = name.strip().lower()
    if key in ("ipums", "ipums-like"):
        return ipums_like(num_users=num_users)
    if key in ("fire", "fire-like"):
        return fire_like(num_users=num_users)
    raise InvalidParameterError(f"unknown dataset {name!r}; use 'ipums' or 'fire'")


# NOTE: the cell-row toolkit below (_cells, _cell_protocol, _row_cell_params,
# _make_attack, _stat_columns) is shared infrastructure: repro.sim.scenarios
# builds its scenario exhibits on these helpers, so renames/signature
# changes must update both modules (the scenario test suite pins the
# contract).
def _cells(rng: RngLike, cells: Iterable[_T]) -> Iterator[tuple[np.random.Generator, _T]]:
    """Pair every cell of an exhibit grid with its own child stream.

    The children are spawned off ``rng`` in one call, one per cell in
    ``cells``' order (for a :func:`itertools.product` grid, the outer axis
    first), so a cell's stream depends only on its position in the grid.
    """
    grid = list(cells)
    return zip(spawn(rng, len(grid)), grid)


def _cell_protocol(
    name: str,
    epsilon: float,
    domain_size: int,
    olh_cohort: Optional[int] = None,
    mode: SimulationMode = "sampled",
) -> FrequencyOracle:
    """Build one cell's protocol under the ``olh_cohort`` rule.

    The cohort knob is meaningless for GRR/OUE, so exhibits that iterate
    every protocol forward it here and only the hashing-based cells pick
    it up (entering their cache keys through the protocol fingerprint) —
    validated in every ``mode``, applied only where the cell materializes
    reports (see :func:`~repro.sim.experiment.apply_olh_cohort`).
    """
    protocol = make_protocol(name, epsilon=epsilon, domain_size=domain_size)
    return apply_olh_cohort(protocol, olh_cohort, mode)


def _row_cell_params(
    protocol: FrequencyOracle,
    mode: SimulationMode,
    chunk_users: Optional[int],
    /,
    **base: object,
) -> dict[str, object]:
    """Spec params of one row cell (Figure 8 / Table I), cohort-aware.

    Adds ``cohort_chunk_users`` (the resolved chunk schedule) exactly when
    :func:`repro.sim.cache.resolved_cohort_chunk` says it shapes the
    cell's report distribution.  The leading arguments are positional-only
    so ``base`` may itself carry a ``mode`` spec field.  A ``chunk_users``
    below 1 raises :class:`~repro.exceptions.InvalidParameterError` here,
    before the cell's cache lookup.
    """
    _validate_chunk(chunk_users)
    params: dict[str, object] = dict(base)
    cohort_chunk = resolved_cohort_chunk(protocol, mode, chunk_users)
    if cohort_chunk is not None:
        params["cohort_chunk_users"] = cohort_chunk
    return params


def _make_attack(kind: str, domain_size: int, rng: RngLike) -> PoisoningAttack:
    gen = as_generator(rng)
    if kind == "manip":
        return ManipAttack(domain_size=domain_size, rng=gen)
    if kind == "mga":
        return MGAAttack(domain_size=domain_size, r=DEFAULT_R, rng=gen)
    if kind == "aa":
        return AdaptiveAttack(domain_size=domain_size, rng=gen)
    raise InvalidParameterError(f"unknown attack {kind!r}")


def _metric_columns(
    evaluation: RecoveryEvaluation, mapping: dict[str, str]
) -> dict[str, object]:
    """Columns ``{col: value, col±: ci95}`` for evaluation-backed rows.

    ``mapping`` maps output column names to
    :class:`~repro.sim.experiment.RecoveryEvaluation` metric names; each
    column is immediately followed by its ``±`` confidence companion.
    """
    out: dict[str, object] = {}
    for column, metric in mapping.items():
        out[column] = getattr(evaluation, metric)
        out[f"{column}±"] = evaluation.ci95(metric)
    return out


def _stat_columns(
    stats: dict[str, Welford], columns: Iterable[str], suffix: str = ""
) -> dict[str, object]:
    """Columns ``{col: mean, col±: ci95}`` from aggregated trial stats,
    reading each column off metric ``f"{col}{suffix}"`` — or, when
    ``columns`` is a ``{col: metric}`` mapping, off ``f"{metric}{suffix}"``."""
    pairs: Iterable[tuple[str, str]] = (
        columns.items() if isinstance(columns, Mapping) else zip(columns, columns)
    )
    out: dict[str, object] = {}
    for column, metric in pairs:
        entry = stats[f"{metric}{suffix}"]
        out[column] = entry.mean
        out[f"{column}±"] = entry.ci95_halfwidth
    return out


#: The (attack, protocol) cells of Figures 3-4: Manip is shown on GRR only
#: (matching the paper's x-axis), MGA and AA on all three protocols.
FIG3_CELLS: tuple[tuple[str, str], ...] = (
    ("manip", "grr"),
    ("mga", "grr"),
    ("mga", "oue"),
    ("mga", "olh"),
    ("aa", "grr"),
    ("aa", "oue"),
    ("aa", "olh"),
)


def figure3_rows(
    dataset_name: str = "ipums",
    num_users: Optional[int] = 40_000,
    trials: int = 5,
    epsilon: float = DEFAULT_EPSILON,
    beta: float = DEFAULT_BETA,
    eta: float = DEFAULT_ETA,
    rng: RngLike = 3,
    olh_cohort: Optional[int] = None,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Figure 3: MSE of LDPRecover/LDPRecover*/Detection per cell.

    Parameters
    ----------
    dataset_name:
        Workload for :func:`load_dataset` (``"ipums"`` or ``"fire"``).
    num_users:
        Population rescale (``None`` = paper scale); sampled-mode cost is
        O(``num_users``) so the default is reduced.
    trials:
        Independent rounds averaged per cell.
    epsilon:
        Privacy budget of every protocol cell.
    beta:
        Malicious fraction.
    eta:
        LDPRecover zero-threshold.
    rng:
        Seed or generator; one independent child per cell.
    olh_cohort:
        Seed-cohort size for the OLH cells (shared hash seeds per perturb
        batch; changes those cells' cache keys).
    ctx:
        The run's :class:`~repro.sim.experiment.RunContext` — worker
        fan-out, the cell cache that reuses completed cells across runs,
        and an optional trial budget under which each cell runs trials
        adaptively until its CI target is met (superseding ``trials``).
    """
    dataset = load_dataset(dataset_name, num_users)
    rows = []
    for gen, (attack_kind, protocol_name) in _cells(rng, FIG3_CELLS):
        protocol = _cell_protocol(protocol_name, epsilon, dataset.domain_size, olh_cohort)
        attack = _make_attack(attack_kind, dataset.domain_size, gen)
        evaluation = evaluate_recovery(
            dataset,
            protocol,
            attack,
            beta=beta,
            eta=eta,
            trials=trials,
            mode="sampled",
            with_detection=True,
            aa_top_k=DEFAULT_R // 2,
            rng=gen,
            ctx=ctx,
        )
        rows.append(
            {
                "cell": f"{attack_kind}-{protocol_name}",
                **_metric_columns(
                    evaluation,
                    {
                        "mse_before": "mse_before",
                        "mse_detection": "mse_detection",
                        "mse_ldprecover": "mse_recover",
                        "mse_ldprecover_star": "mse_recover_star",
                    },
                ),
            }
        )
    return rows


def figure4_rows(
    dataset_name: str = "ipums",
    num_users: Optional[int] = 40_000,
    trials: int = 5,
    epsilon: float = DEFAULT_EPSILON,
    beta: float = DEFAULT_BETA,
    eta: float = DEFAULT_ETA,
    rng: RngLike = 4,
    olh_cohort: Optional[int] = None,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Figure 4: frequency gain of MGA per protocol, before/after.

    Parameters match :func:`figure3_rows`: ``dataset_name`` /
    ``num_users`` pick and rescale the workload, ``trials`` rounds are
    averaged per cell at privacy budget ``epsilon`` with malicious
    fraction ``beta`` and recovery threshold ``eta``; ``rng`` seeds the
    cells, ``olh_cohort`` switches the OLH cell to seed-cohort
    perturbation, and ``ctx`` runs the cells (workers, cache, budget).
    """
    dataset = load_dataset(dataset_name, num_users)
    rows = []
    for gen, protocol_name in _cells(rng, PROTOCOL_NAMES):
        protocol = _cell_protocol(protocol_name, epsilon, dataset.domain_size, olh_cohort)
        attack = MGAAttack(domain_size=dataset.domain_size, r=DEFAULT_R, rng=gen)
        evaluation = evaluate_recovery(
            dataset,
            protocol,
            attack,
            beta=beta,
            eta=eta,
            trials=trials,
            mode="sampled",
            with_detection=True,
            rng=gen,
            ctx=ctx,
        )
        rows.append(
            {
                "cell": f"mga-{protocol_name}",
                **_metric_columns(
                    evaluation,
                    {
                        "fg_before": "fg_before",
                        "fg_detection": "fg_detection",
                        "fg_ldprecover": "fg_recover",
                        "fg_ldprecover_star": "fg_recover_star",
                    },
                ),
            }
        )
    return rows


#: Parameter grids of Figures 5-6 (Section VI-D).
BETA_GRID = (0.001, 0.005, 0.01, 0.05, 0.1)
EPSILON_GRID = (0.1, 0.2, 0.4, 0.8, 1.6)
ETA_GRID = (0.01, 0.05, 0.1, 0.2, 0.4)


def sweep_rows(
    dataset_name: str,
    parameter: str,
    values: Iterable[float] = (),
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 5,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Figures 5-6: MSE under AA while one of (beta, epsilon, eta) varies.

    Parameters
    ----------
    dataset_name:
        Workload (``"ipums"`` for Figure 5, ``"fire"`` for Figure 6).
    parameter:
        The swept knob: ``"beta"``, ``"epsilon"`` or ``"eta"``; the
        remaining two stay at the paper defaults.
    values:
        Grid override; empty selects the paper grid of ``parameter``.
    num_users:
        Population rescale (``None`` = paper scale).
    trials:
        Independent rounds averaged per cell.
    rng:
        Seed or generator; one independent child per (protocol, value).
    chunk_users:
        Switch the ``fast`` cells to the bounded-memory exact simulation,
        this many users per chunk.
    olh_cohort:
        Seed-cohort size for the OLH cells (shared hash seeds per perturb
        batch; changes those cells' cache keys).
    ctx:
        The run's :class:`~repro.sim.experiment.RunContext`.  Its cache is
        where resumable sweeps pay off most — an interrupted grid rerun
        skips completed cells — and under its budget each grid cell stops
        as soon as its 95% CI half-widths reach the target.
    """
    grids = {"beta": BETA_GRID, "epsilon": EPSILON_GRID, "eta": ETA_GRID}
    if parameter not in grids:
        raise InvalidParameterError(
            f"parameter must be one of {sorted(grids)}, got {parameter!r}"
        )
    values = tuple(values) or grids[parameter]
    dataset = load_dataset(dataset_name, num_users)
    mode: SimulationMode = "chunked" if chunk_users is not None else "fast"
    rows = []
    for gen, (protocol_name, value) in _cells(rng, product(PROTOCOL_NAMES, values)):
        beta = value if parameter == "beta" else DEFAULT_BETA
        epsilon = value if parameter == "epsilon" else DEFAULT_EPSILON
        eta = value if parameter == "eta" else DEFAULT_ETA
        protocol = _cell_protocol(protocol_name, epsilon, dataset.domain_size, olh_cohort, mode)
        attack = AdaptiveAttack(domain_size=dataset.domain_size, rng=gen)
        evaluation = evaluate_recovery(
            dataset,
            protocol,
            attack,
            beta=beta,
            eta=eta,
            trials=trials,
            mode=mode,
            aa_top_k=DEFAULT_R // 2,
            rng=gen,
            chunk_users=chunk_users,
            ctx=ctx,
        )
        rows.append(
            {
                "cell": f"aa-{protocol_name}",
                parameter: value,
                **_metric_columns(
                    evaluation,
                    {
                        "mse_before": "mse_before",
                        "mse_ldprecover": "mse_recover",
                        "mse_ldprecover_star": "mse_recover_star",
                    },
                ),
            }
        )
    return rows


FIG7_BETAS = (0.05, 0.1, 0.15, 0.2, 0.25)


def figure7_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 7,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Figure 7: MSE of estimated vs. true malicious frequencies (IPUMS).

    ``num_users`` rescales the population, ``trials`` rounds are averaged
    per (protocol, beta) cell, ``rng`` seeds the cells, ``chunk_users``
    selects the bounded-memory exact path, ``olh_cohort`` switches the OLH
    cells to seed-cohort perturbation, and ``ctx`` runs the cells
    (workers, cache, budget).
    """
    dataset = load_dataset("ipums", num_users)
    mode: SimulationMode = "chunked" if chunk_users is not None else "fast"
    rows = []
    for gen, (protocol_name, beta) in _cells(rng, product(PROTOCOL_NAMES, FIG7_BETAS)):
        protocol = _cell_protocol(
            protocol_name, DEFAULT_EPSILON, dataset.domain_size, olh_cohort, mode
        )
        attack = MGAAttack(domain_size=dataset.domain_size, r=DEFAULT_R, rng=gen)
        evaluation = evaluate_recovery(
            dataset,
            protocol,
            attack,
            beta=beta,
            eta=DEFAULT_ETA,
            trials=trials,
            mode=mode,
            rng=gen,
            chunk_users=chunk_users,
            ctx=ctx,
        )
        rows.append(
            {
                "cell": f"mga-{protocol_name}",
                "beta": beta,
                **_metric_columns(
                    evaluation,
                    {
                        "malicious_mse_ldprecover": "mse_malicious_estimate",
                        "malicious_mse_ldprecover_star": "mse_malicious_estimate_star",
                    },
                ),
            }
        )
    return rows


FIG8_BETAS = (0.05, 0.1, 0.15, 0.2, 0.25)


def _figure8_trial(
    dataset: Dataset,
    protocol: FrequencyOracle,
    mga: MGAAttack,
    ipa: InputPoisoningAttack,
    beta: float,
    mode: SimulationMode,
    chunk_users: Optional[int],
    seed: np.random.SeedSequence,
) -> dict[str, float]:
    """One Figure 8 trial: poisoned MSE of MGA and of its IPA variant."""
    gen = np.random.default_rng(seed)
    t1 = run_trial(
        dataset, protocol, mga, beta=beta, mode=mode, rng=gen, chunk_users=chunk_users
    )
    t2 = run_trial(
        dataset, protocol, ipa, beta=beta, mode=mode, rng=gen, chunk_users=chunk_users
    )
    return {
        "mse_mga": mse(t1.true_frequencies, t1.poisoned_frequencies),
        "mse_mga_ipa": mse(t2.true_frequencies, t2.poisoned_frequencies),
    }


def figure8_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 8,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Figure 8: poisoning strength of MGA vs. MGA-IPA (no recovery).

    ``num_users`` rescales the IPUMS population, ``trials`` MGA+IPA round
    pairs are averaged per (protocol, beta) cell, ``rng`` seeds the cells,
    ``chunk_users`` selects the chunked exact simulation, ``olh_cohort``
    switches the OLH cells to seed-cohort perturbation, and ``ctx`` runs
    the cells (workers, cache, budget; under a budget, a cell's cached
    trial stream is resumed and extended rather than recomputed).
    """
    dataset = load_dataset("ipums", num_users)
    mode: SimulationMode = "chunked" if chunk_users is not None else "fast"
    columns = ("mse_mga", "mse_mga_ipa")
    rows: list[dict[str, object]] = []
    for gen, (protocol_name, beta) in _cells(rng, product(PROTOCOL_NAMES, FIG8_BETAS)):
        protocol = _cell_protocol(
            protocol_name, DEFAULT_EPSILON, dataset.domain_size, olh_cohort, mode
        )
        mga = MGAAttack(domain_size=dataset.domain_size, r=DEFAULT_R, rng=gen)
        ipa = InputPoisoningAttack(mga)
        params = _row_cell_params(protocol, mode, chunk_users, beta=beta, mode=mode)
        rows += run_cell(
            gen,
            lambda seeds: row_cell_spec("figure8", dataset, protocol, (mga, ipa), params, seeds),
            partial(_figure8_trial, dataset, protocol, mga, ipa, beta, mode, chunk_users),
            lambda stats: [{"cell": protocol_name, "beta": beta, **_stat_columns(stats, columns)}],
            trials=trials, ctx=ctx,
        )
    return rows


FIG9_XIS = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG9_NUM_SUBSETS = 10


def _figure9_trial(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: InputPoisoningAttack,
    beta: float,
    xi: float,
    seed: np.random.SeedSequence,
) -> dict[str, float]:
    """One Figure 9 trial: before / k-means-only / LDPRecover-KM MSE."""
    gen = np.random.default_rng(seed)
    trial = run_trial(dataset, protocol, attack, beta=beta, mode="sampled", rng=gen)
    truth = trial.true_frequencies
    defense = KMeansDefense(sample_rate=xi, num_subsets=FIG9_NUM_SUBSETS)
    recovery, km_result = recover_with_kmeans(protocol, trial.reports, defense=defense, rng=gen)
    return {
        "mse_before": mse(truth, trial.poisoned_frequencies),
        "mse_kmeans": mse(truth, km_result.frequencies),
        "mse_ldprecover_km": mse(truth, recovery.frequencies),
    }


def figure9_rows(
    num_users: Optional[int] = 20_000,
    trials: int = 3,
    beta: float = DEFAULT_BETA,
    rng: RngLike = 9,
    olh_cohort: Optional[int] = None,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Figure 9: LDPRecover-KM vs. plain k-means under MGA-IPA (IPUMS).

    ``num_users`` rescales the population (sampled mode, so reduced by
    default), ``trials`` rounds are averaged per (protocol, xi) cell at
    malicious fraction ``beta``, ``rng`` seeds the cells, ``olh_cohort``
    switches the OLH cells to seed-cohort perturbation, and ``ctx`` runs
    the cells (workers, cache, budget).
    """
    dataset = load_dataset("ipums", num_users)
    columns = ("mse_before", "mse_kmeans", "mse_ldprecover_km")
    rows: list[dict[str, object]] = []
    for gen, (protocol_name, xi) in _cells(rng, product(PROTOCOL_NAMES, FIG9_XIS)):
        protocol = _cell_protocol(protocol_name, DEFAULT_EPSILON, dataset.domain_size, olh_cohort)
        mga = MGAAttack(domain_size=dataset.domain_size, r=DEFAULT_R, rng=gen)
        attack = InputPoisoningAttack(mga)
        params = {"beta": beta, "xi": xi, "num_subsets": FIG9_NUM_SUBSETS, "mode": "sampled"}
        rows += run_cell(
            gen,
            lambda seeds: row_cell_spec("figure9", dataset, protocol, (attack,), params, seeds),
            partial(_figure9_trial, dataset, protocol, attack, beta, xi),
            lambda stats: [{"cell": protocol_name, "xi": xi, **_stat_columns(stats, columns)}],
            trials=trials, ctx=ctx,
        )
    return rows


FIG10_BETAS = (0.05, 0.1, 0.15, 0.2, 0.25)
FIG10_NUM_ATTACKERS = 5


def figure10_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 10,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Figure 10: LDPRecover against 5 independent adaptive attackers.

    ``num_users`` rescales the IPUMS population, ``trials`` rounds are
    averaged per (protocol, beta) cell, ``rng`` seeds the cells (and the
    independent attackers), ``chunk_users`` selects the chunked exact
    simulation, ``olh_cohort`` switches the OLH cells to seed-cohort
    perturbation, and ``ctx`` runs the cells (workers, cache, budget).
    """
    dataset = load_dataset("ipums", num_users)
    mode: SimulationMode = "chunked" if chunk_users is not None else "fast"
    rows = []
    for gen, (protocol_name, beta) in _cells(rng, product(PROTOCOL_NAMES, FIG10_BETAS)):
        protocol = _cell_protocol(
            protocol_name, DEFAULT_EPSILON, dataset.domain_size, olh_cohort, mode
        )
        attackers = [
            AdaptiveAttack(domain_size=dataset.domain_size, rng=child)
            for child in spawn(gen, FIG10_NUM_ATTACKERS)
        ]
        attack = MultiAttacker(attackers)
        evaluation = evaluate_recovery(
            dataset,
            protocol,
            attack,
            beta=beta,
            eta=DEFAULT_ETA,
            trials=trials,
            mode=mode,
            with_star=False,
            rng=gen,
            chunk_users=chunk_users,
            ctx=ctx,
        )
        rows.append(
            {
                "cell": f"mul-aa-{protocol_name}",
                "beta": beta,
                **_metric_columns(
                    evaluation,
                    {
                        "mse_before": "mse_before",
                        "mse_ldprecover": "mse_recover",
                    },
                ),
            }
        )
    return rows


def table1_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 1,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Table I: LDPRecover executed on *unpoisoned* frequencies (beta=0).

    ``num_users`` rescales both workloads, ``trials`` rounds are averaged
    per (dataset, protocol) cell, ``rng`` seeds the cells, ``chunk_users``
    selects the chunked exact simulation, ``olh_cohort`` switches the OLH
    cells to seed-cohort perturbation, and ``ctx`` runs the cells
    (workers, cache, budget).
    """
    rows: list[dict[str, object]] = []
    mode: SimulationMode = "chunked" if chunk_users is not None else "fast"
    columns = {"mse_before_recovery": "mse_before", "mse_after_recovery": "mse_recover"}
    datasets = [load_dataset("ipums", num_users), load_dataset("fire", num_users)]
    for gen, (dataset, protocol_name) in _cells(rng, product(datasets, PROTOCOL_NAMES)):
        protocol = _cell_protocol(
            protocol_name, DEFAULT_EPSILON, dataset.domain_size, olh_cohort, mode
        )
        params = _row_cell_params(
            protocol, mode, chunk_users, beta=0.0, eta=DEFAULT_ETA, mode=mode
        )
        rows += run_cell(
            gen,
            lambda seeds: row_cell_spec("table1", dataset, protocol, (), params, seeds),
            # The unpoisoned evaluation trial: beta=0 and no attack, so the
            # star and Detection switches and aa_top_k never apply.
            partial(
                trial_metrics, dataset, protocol, None, 0.0, DEFAULT_ETA, mode,
                False, False, DEFAULT_R // 2, chunk_users,
            ),
            lambda stats: [{
                "dataset": dataset.name,
                "protocol": protocol_name,
                **_stat_columns(stats, columns),
            }],
            trials=trials, ctx=ctx,
        )
    return rows
