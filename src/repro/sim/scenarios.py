"""Scenario exhibits, and the one registry of every exhibit.

The paper's conclusion names poisoning of "more complex tasks, such as
key-value pairs collection" as future work, and heavy hitters are what
targeted promotion actually attacks (MGA's stated goal is promoting its
targets into the popular list).  This module promotes both workloads —
plus evolving populations (``epochs``) and a defense shoot-out
(``defenses``) — to first-class *scenario exhibits* that ride the full
experiment stack:

* **Engine** — every cell runs through the cell runner
  :func:`repro.sim.experiment.run_cell` under the run's
  :class:`~repro.sim.experiment.RunContext`; its trial is one picklable
  ``seed -> {metric: value}`` callable (a module-level trial function
  with the cell's parameters bound by :func:`functools.partial`) that
  :func:`repro.sim.engine.parallel_map` runs over per-trial
  :class:`~numpy.random.SeedSequence` streams (``workers=N`` is
  bit-identical to ``workers=1``); metrics accumulate through
  streaming :class:`~repro.sim.engine.Welford` statistics, so every
  column carries a ``±`` 95%-CI companion.
* **Cache** — each cell caches its per-metric statistics keyed by a
  canonical :func:`repro.sim.cache.scenario_cell_spec` and renders its
  rows from them, so interrupted sweeps resume and warm reruns execute
  zero simulation tasks.
* **Registry** — :data:`EXHIBITS` holds every exhibit, the nine paper
  figures of :mod:`repro.sim.figures` first, each an :class:`Exhibit`
  naming its generator, whose signature says which optional sweep
  fields it consumes.
  :class:`repro.sim.shard.SweepConfig` derives its dispatch and digests
  from it and the CLI its choices, ``list`` text and the notes on an
  ignored ``--chunk-users``/``--olh-cohort``, so ``ldprecover run
  --exhibit kv`` and ``shard run|status|merge`` treat a scenario exactly
  like a paper figure, and a sharded sweep merges bit-identical to the
  unsharded run.

Adding an exhibit is one :class:`Exhibit` registration
(:func:`register_scenario`), not a fork of :mod:`repro.sim.figures` or of
the dispatch code.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from repro._rng import RngLike, as_generator, spawn
from repro.attacks import MGAAttack, ScheduledAttack
from repro.attacks.base import PoisoningAttack
from repro.core.detection import detect_and_aggregate
from repro.core.heavyhitters import promoted_items, tail_items, top_k_precision
from repro.core.kmeans import recover_with_kmeans
from repro.core.projection import project_onto_simplex_sort
from repro.core.recover import DEFAULT_ETA, recover_frequencies
from repro.datasets.base import Dataset
from repro.datasets.synthetic import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.kv import KeyValueProtocol, KVPoisoningAttack, recover_key_value
from repro.sim.cache import fingerprint_attack_schedule, scenario_cell_spec
from repro.sim.engine import Welford, resolve_star_targets
from repro.sim.experiment import RunContext, run_cell
from repro.sim.figures import (
    DEFAULT_EPSILON,
    _cell_protocol,
    _cells,
    _make_attack,
    _row_cell_params,
    _stat_columns,
    figure3_rows,
    figure4_rows,
    figure7_rows,
    figure8_rows,
    figure9_rows,
    figure10_rows,
    load_dataset,
    sweep_rows,
    table1_rows,
)
from repro.sim.history import AttackSchedule, drift_dataset
from repro.sim.metrics import frequency_gain, mse
from repro.sim.outliers import ZScoreOutlierDetector
from repro.sim.pipeline import SimulationMode, malicious_count, run_trial
from repro.sim.streaming import AggregatorState, fan_in
from repro.protocols import PROTOCOL_NAMES, FrequencyOracle
from repro.protocols.base import counts_to_items

__all__ = [
    "DEFENSE_ATTACKS",
    "DEFENSE_BETAS",
    "DEFENSE_EPSILONS",
    "DEFENSE_METHODS",
    "EPOCH_COLLECTORS",
    "EPOCH_COUNT",
    "EPOCH_DRIFT",
    "EPOCH_HISTORY_MIN",
    "EPOCH_SCHEDULES",
    "EPOCH_TARGET_COUNT",
    "EXHIBITS",
    "Exhibit",
    "HH_BETAS",
    "HH_KS",
    "HH_TARGET_COUNT",
    "KV_BETAS",
    "KV_EPSILONS",
    "KV_NUM_KEYS",
    "KV_TARGET_COUNT",
    "KVPopulation",
    "SWEEP_OPTIONS",
    "defenses_rows",
    "detection_f1",
    "epochs_rows",
    "heavyhitter_rows",
    "kv_population",
    "kv_rows",
    "kv_trial_metrics",
    "register_scenario",
]


# ----------------------------------------------------------------------
# Key-value population model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KVPopulation:
    """A key-value population: key frequencies plus per-key value means.

    Each user holds one ``(key, value)`` pair.  Keys follow
    ``frequencies``; the value of a key-``k`` user is a two-point draw
    ``+1`` with probability ``(1 + means[k]) / 2`` else ``-1``, so the
    per-key expected value equals ``means[k]`` *exactly* (the extreme
    -point decomposition every ``[-1, 1]``-valued distribution reduces
    to under stochastic rounding).  That keeps the population's ``means``
    an analytic ground truth for unbiasedness tests and recovery error
    metrics — no clipping bias, no empirical re-estimation per trial.
    """

    #: Population name (enters the cache fingerprint).
    name: str
    #: Key-frequency vector (sums to one).
    frequencies: np.ndarray
    #: Per-key expected values in ``[-1, 1]``.
    means: np.ndarray
    #: Number of genuine users.
    num_users: int

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequencies, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        if freq.ndim != 1 or freq.size < 2 or freq.shape != means.shape:
            raise InvalidParameterError(
                f"frequencies/means must be equal-length 1-D vectors with >= 2 "
                f"keys, got shapes {freq.shape} and {means.shape}"
            )
        if freq.min() < 0 or not np.isclose(freq.sum(), 1.0):
            raise InvalidParameterError("frequencies must be non-negative and sum to 1")
        if means.min() < -1.0 or means.max() > 1.0:
            raise InvalidParameterError("means must lie in [-1, 1]")
        if self.num_users < 1:
            raise InvalidParameterError(f"num_users must be >= 1, got {self.num_users}")
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "num_users", int(self.num_users))

    @property
    def num_keys(self) -> int:
        """Size of the key domain."""
        return int(self.frequencies.size)

    def sample(self, rng: RngLike = None) -> tuple[np.ndarray, np.ndarray]:
        """Draw one population of ``(keys, values)`` user pairs off ``rng``."""
        gen = as_generator(rng)
        keys = gen.choice(self.num_keys, size=self.num_users, p=self.frequencies)
        up = gen.random(self.num_users) < (1.0 + self.means[keys]) / 2.0
        return keys.astype(np.int64), np.where(up, 1.0, -1.0)


def kv_population(
    num_keys: int = 32,
    num_users: int = 100_000,
    exponent: float = 1.0,
    name: str = "kv-zipf",
) -> KVPopulation:
    """The deterministic synthetic key-value workload of the ``kv`` exhibit.

    Key frequencies follow a Zipf profile over ``num_keys`` keys with the
    given ``exponent`` (rank equals key id — no shuffle, so the same
    arguments always produce the same population and hence the same cache
    fingerprints); per-key means fall linearly from ``+0.9`` (the hottest
    key) to ``-0.9`` (the coldest), so the tail keys the canonical attack
    targets have strongly negative means for ``target_bit=1`` to drag
    upward.  ``num_users`` sizes the genuine population and ``name``
    labels it in rows and cache fingerprints.
    """
    profile = zipf_dataset(
        domain_size=num_keys, num_users=max(num_keys, 10_000),
        exponent=exponent, shuffle=False,
    )
    return KVPopulation(
        name=name,
        frequencies=profile.frequencies,
        means=np.linspace(0.9, -0.9, num_keys),
        num_users=num_users,
    )


# ----------------------------------------------------------------------
# Key-value recovery: the engine path
# ----------------------------------------------------------------------
def kv_trial_metrics(
    population: KVPopulation,
    protocol: KeyValueProtocol,
    attack: KVPoisoningAttack,
    beta: float,
    eta: float,
    seed: np.random.SeedSequence,
) -> dict[str, float]:
    """Run one key-value trial and compute every cell metric.

    The trial of the ``kv`` cells, which bind every parameter but
    ``seed`` with :func:`functools.partial`.  One round: sample the
    genuine ``population``, perturb it through ``protocol``, craft the
    ``beta``-fraction of malicious reports of ``attack``, aggregate, then
    recover (server-side ratio knob ``eta``) both without attack
    knowledge and with the attacker's target keys (the LDPRecover*
    analogue).  All randomness comes from ``seed``, the trial's own
    :class:`~numpy.random.SeedSequence` child.  Returns a flat
    ``{metric: value}`` dict — key-frequency MSE and per-key mean error
    (mean absolute error against the population's analytic means, over
    all keys and over the attacked keys alone) for the poisoned /
    recovered / target-aware estimates, plus the target-key frequency
    gain relative to the clean aggregate before and after recovery.
    """
    gen = np.random.default_rng(seed)
    n = population.num_users
    m = malicious_count(n, beta)
    keys, values = population.sample(gen)
    genuine = protocol.perturb(keys, values, gen)
    clean = protocol.aggregate(genuine)
    if m > 0:
        malicious = attack.craft(protocol, m, gen)
        poisoned = protocol.aggregate(KeyValueProtocol.concat(genuine, malicious))
    else:
        poisoned = clean
    total = n + m

    recovered = recover_key_value(protocol, poisoned, total, eta=eta)
    star = recover_key_value(
        protocol,
        poisoned,
        total,
        eta=eta,
        target_keys=attack.target_keys,
        malicious_bit=attack.target_bit,
    )

    truth_freq, truth_means = population.frequencies, population.means
    targets = attack.target_keys

    def target_mae(estimate: np.ndarray) -> float:
        return float(np.abs(estimate[targets] - truth_means[targets]).mean())

    return {
        "freq_mse_before": mse(truth_freq, poisoned.frequencies),
        "freq_mse_recover": mse(truth_freq, recovered.frequencies),
        "freq_mse_recover_star": mse(truth_freq, star.frequencies),
        "mean_mae_before": float(np.abs(poisoned.means - truth_means).mean()),
        "mean_mae_recover": float(np.abs(recovered.means - truth_means).mean()),
        "mean_mae_recover_star": float(np.abs(star.means - truth_means).mean()),
        "target_mean_mae_before": target_mae(poisoned.means),
        "target_mean_mae_recover": target_mae(recovered.means),
        "target_mean_mae_recover_star": target_mae(star.means),
        "fg_before": frequency_gain(clean.frequencies, poisoned.frequencies, targets),
        "fg_recover": frequency_gain(clean.frequencies, recovered.frequencies, targets),
        "fg_recover_star": frequency_gain(clean.frequencies, star.frequencies, targets),
    }


#: Total privacy budgets of the ``kv`` sweep (split evenly key/value).
KV_EPSILONS = (2.0, 4.0)
#: Malicious fractions of the ``kv`` sweep.
KV_BETAS = (0.01, 0.05, 0.1, 0.15, 0.2)
#: Key-domain size of the ``kv`` sweep's population.
KV_NUM_KEYS = 32
#: Number of (least frequent) target keys the canonical attack promotes.
KV_TARGET_COUNT = 3

#: Default genuine population of the ``kv`` exhibit (``num_users=None``).
_KV_DEFAULT_USERS = 100_000

_KV_COLUMNS = (
    "freq_mse_before",
    "freq_mse_recover",
    "freq_mse_recover_star",
    "mean_mae_before",
    "mean_mae_recover",
    "mean_mae_recover_star",
    "target_mean_mae_before",
    "target_mean_mae_recover",
    "target_mean_mae_recover_star",
    "fg_before",
    "fg_recover",
    "fg_recover_star",
)


def kv_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 11,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Scenario ``kv``: key-value recovery across privacy budget and beta.

    One cell per (epsilon, beta) on the :data:`KV_EPSILONS` ×
    :data:`KV_BETAS` grid: the canonical targeted key-value attack (fake
    users report a tail key with the maximal value bit) poisons a
    PrivKV-style protocol over the deterministic :func:`kv_population`
    workload, and both recovery variants run —
    :func:`repro.kv.recover_key_value` without attack knowledge and with
    the attacker's target keys.  ``num_users`` sizes the genuine
    population (``None`` = 100k), ``trials`` rounds of
    :func:`kv_trial_metrics` are averaged per cell through the cell
    runner :func:`repro.sim.experiment.run_cell`, ``rng`` seeds the cells
    independently, and ``ctx`` runs the cells: worker fan-out, a cache
    serving completed cells across runs (statistics keyed by
    :func:`repro.sim.cache.scenario_cell_spec`), and a trial budget whose
    cached trial streams are resumed and extended rather than recomputed.
    """
    population = kv_population(
        num_keys=KV_NUM_KEYS,
        num_users=_KV_DEFAULT_USERS if num_users is None else int(num_users),
    )
    targets = tail_items(population.frequencies, KV_TARGET_COUNT)
    rows: list[dict[str, object]] = []
    for gen, (epsilon, beta) in _cells(rng, product(KV_EPSILONS, KV_BETAS)):
        protocol = KeyValueProtocol(
            eps_key=epsilon / 2.0, eps_value=epsilon / 2.0, num_keys=KV_NUM_KEYS
        )
        attack = KVPoisoningAttack(num_keys=KV_NUM_KEYS, targets=targets, target_bit=1)
        params = {"beta": beta, "epsilon": epsilon, "eta": DEFAULT_ETA}
        rows += run_cell(
            gen,
            lambda seeds: scenario_cell_spec(
                "kv", population, protocol, (attack,), params, seeds
            ),
            partial(kv_trial_metrics, population, protocol, attack, beta, DEFAULT_ETA),
            lambda stats: [{
                "cell": attack.describe(),
                "epsilon": epsilon,
                "beta": beta,
                **_stat_columns(stats, _KV_COLUMNS),
            }],
            trials=trials, ctx=ctx,
        )
    return rows


# ----------------------------------------------------------------------
# Heavy-hitter promotion / repair sweep
# ----------------------------------------------------------------------
#: Malicious fractions of the ``heavyhitter`` sweep.
HH_BETAS = (0.05, 0.1, 0.15)
#: Top-k sizes of the ``heavyhitter`` sweep.
HH_KS = (5, 10)
#: Number of (least frequent) items the attack tries to promote.
HH_TARGET_COUNT = 5

_HH_COLUMNS = (
    "precision_poisoned",
    "precision_recovered",
    "precision_recovered_star",
    "promoted_poisoned",
    "promoted_recovered",
    "promoted_recovered_star",
)


def _heavyhitter_trial(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: MGAAttack,
    beta: float,
    ks: tuple[int, ...],
    eta: float,
    mode: SimulationMode,
    chunk_users: Optional[int],
    seed: np.random.SeedSequence,
) -> dict[str, float]:
    """One heavy-hitter trial: top-k quality before/after recovery.

    One simulated trial serves *every* ``ks`` entry: the poisoning round
    and both recoveries are independent of ``k``, which only selects
    which top-k metrics are read off the recovered vectors.
    ``precision_*`` is top-k precision against the true heavy hitters
    (equal to recall for equal-size sets — one column reports both);
    ``promoted_*`` counts non-heavy-hitter items occupying the estimated
    top-k (the attacker's planted items when the attack succeeds).  Each
    metric is emitted once per ``k`` in ``ks`` under a ``_k<k>`` suffix.
    """
    gen = np.random.default_rng(seed)
    trial = run_trial(
        dataset, protocol, attack, beta=beta, mode=mode, rng=gen, chunk_users=chunk_users
    )
    truth = trial.true_frequencies
    recovery = recover_frequencies(trial.poisoned_frequencies, protocol, eta=eta)
    star = recover_frequencies(
        trial.poisoned_frequencies, protocol, eta=eta, target_items=attack.target_items
    )
    estimates = {
        "poisoned": trial.poisoned_frequencies,
        "recovered": recovery.frequencies,
        "recovered_star": star.frequencies,
    }
    out: dict[str, float] = {}
    for k in ks:
        for label, estimate in estimates.items():
            out[f"precision_{label}_k{k}"] = top_k_precision(truth, estimate, k)
            out[f"promoted_{label}_k{k}"] = float(promoted_items(truth, estimate, k).size)
    return out


def heavyhitter_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 12,
    chunk_users: Optional[int] = None,
    olh_cohort: Optional[int] = None,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Scenario ``heavyhitter``: top-k promotion and repair per cell.

    One simulated cell per (protocol, beta) over all three frequency
    oracles and :data:`HH_BETAS` — the trials do not depend on ``k``, so
    every :data:`HH_KS` entry is read off the same recovered vectors and
    the cell renders one output row per ``k`` from its statistics.  MGA
    targets the :data:`HH_TARGET_COUNT` least frequent IPUMS items
    (deterministic targets, so cells cache stably) and each row reports
    top-k precision (= recall for equal-size sets) and promoted-item
    counts of the poisoned, LDPRecover and LDPRecover* estimates.  ``num_users``
    rescales the population (``None`` = paper scale), ``trials`` rounds
    average per cell, ``rng`` seeds the cells, ``chunk_users`` switches to
    the bounded-memory exact simulation, ``olh_cohort`` applies
    seed-cohort perturbation to the OLH cells in chunked mode, and ``ctx``
    runs the cells (workers, cache, budget).
    """
    dataset = load_dataset("ipums", num_users)
    mode: SimulationMode = "chunked" if chunk_users is not None else "fast"
    targets = tail_items(dataset.frequencies, HH_TARGET_COUNT)
    rows: list[dict[str, object]] = []
    for gen, (protocol_name, beta) in _cells(rng, product(PROTOCOL_NAMES, HH_BETAS)):
        protocol = _cell_protocol(
            protocol_name, DEFAULT_EPSILON, dataset.domain_size, olh_cohort, mode
        )
        attack = MGAAttack(domain_size=dataset.domain_size, targets=targets)
        params = _row_cell_params(
            protocol, mode, chunk_users,
            beta=beta, ks=list(HH_KS), eta=DEFAULT_ETA, mode=mode,
        )
        # One cell per (protocol, beta): the simulation does not depend on
        # k, so every HH_KS entry is read off the same trials and the
        # cell renders one row per k from its statistics.
        rows += run_cell(
            gen,
            lambda seeds: scenario_cell_spec(
                "heavyhitter", dataset, protocol, (attack,), params, seeds
            ),
            partial(
                _heavyhitter_trial, dataset, protocol, attack, beta, HH_KS,
                DEFAULT_ETA, mode, chunk_users,
            ),
            lambda stats: [
                {
                    "cell": f"mga-{protocol_name}",
                    "beta": beta,
                    "k": k,
                    **_stat_columns(stats, _HH_COLUMNS, f"_k{k}"),
                }
                for k in HH_KS
            ],
            trials=trials, ctx=ctx,
        )
    return rows


# ----------------------------------------------------------------------
# Evolving-population epoch sweep
# ----------------------------------------------------------------------
#: Collection epochs per ``epochs`` cell.
EPOCH_COUNT = 6
#: Per-epoch relative population drift of the ``epochs`` sweep.
EPOCH_DRIFT = 0.05
#: Number of (least frequent) items the scheduled MGA promotes.
EPOCH_TARGET_COUNT = 5
#: Collectors in the fan-in cells (reports split round-robin, states merged).
EPOCH_COLLECTORS = 3
#: Epochs of history the cross-epoch detector needs before it can fit.
EPOCH_HISTORY_MIN = 2
#: The mid-stream attack shapes of the ``epochs`` sweep: always-on,
#: bursting on mid-stream (clean history for the detector to fit on),
#: and adversary-fraction drift from nothing to full strength.
EPOCH_SCHEDULES: tuple[AttackSchedule, ...] = (
    AttackSchedule.constant(0.05),
    AttackSchedule.burst(0.15, at=3),
    AttackSchedule.ramp(0.0, 0.15),
)

#: Default genuine population of the ``epochs`` exhibit (``num_users=None``):
#: reduced below paper scale because every trial materializes
#: :data:`EPOCH_COUNT` report batches.
_EPOCH_DEFAULT_USERS = 20_000

_EPOCH_COLUMNS = (
    "mse_before",
    "mse_recover",
    "mse_star",
    "fg_before",
    "fg_recover",
    "fg_star",
)


def detection_f1(flagged: Sequence[int], truth: Sequence[int]) -> float:
    """F1 of a detector's flagged item set against the true target set.

    Clean epochs have an empty ``truth``: a silent detector scores a
    perfect ``1.0`` there and any false alarm scores ``0.0``, so the
    per-epoch F1 column penalizes both missed bursts and spurious flags.
    """
    flagged_set, truth_set = set(map(int, flagged)), set(map(int, truth))
    if not truth_set:
        return 1.0 if not flagged_set else 0.0
    true_positives = len(flagged_set & truth_set)
    if true_positives == 0:
        return 0.0
    precision = true_positives / len(flagged_set)
    recall = true_positives / len(truth_set)
    return 2.0 * precision * recall / (precision + recall)


def _epoch_trial(
    dataset: Dataset,
    protocol: FrequencyOracle,
    scheduled: ScheduledAttack,
    drift: float,
    eta: float,
    collectors: int,
    seed: np.random.SeedSequence,
) -> dict[str, float]:
    """One evolving-population trial: recovery quality per epoch.

    One trial is a full multi-epoch collection: the population drifts
    ``drift`` per epoch, the ``scheduled`` attack injects its per-epoch
    malicious batches, and every epoch's reports stream through the
    online :class:`repro.serve.RecoveryService` — directly, or via
    ``collectors`` round-robin :class:`~repro.sim.streaming.AggregatorState`
    instances fanned in through
    :func:`~repro.sim.streaming.fan_in` / ``absorb`` (byte-equal by the
    merge arithmetic, which the fan-in cells demonstrate).

    RNG discipline matches :func:`repro.sim.history.simulate_history`:
    child stream 0 drives the population drift and children ``1..epochs``
    the per-epoch collection + crafting, so the epoch-``e`` draws are
    invariant to the horizon.  Emits per-epoch ``_e<e>``-suffixed
    metrics: MSE of the raw / LDPRecover / LDPRecover* views against the
    epoch's true (drifted) frequencies, target frequency gain before and
    after recovery, and — once :data:`EPOCH_HISTORY_MIN` epochs of
    history exist — the F1 of a z-score detector fitted on the *prior*
    epochs' raw views against the attack's true per-epoch activity.
    """
    from repro.serve.service import RecoveryService  # deferred: serve builds on sim

    gen = np.random.default_rng(seed)
    num_epochs = scheduled.num_epochs
    streams = spawn(gen, num_epochs + 1)
    drift_gen, epoch_gens = streams[0], streams[1:]
    service = RecoveryService(protocol, eta=eta)
    states = [AggregatorState(protocol) for _ in range(collectors)]
    targets = [int(t) for t in np.asarray(scheduled.target_items)]
    current = dataset
    truths: list[np.ndarray] = []
    genuine_freqs: list[np.ndarray] = []
    injected: list[int] = []
    for epoch, child in enumerate(epoch_gens):
        name = f"e{epoch}"
        n = current.num_users
        items = counts_to_items(current.counts, child)
        genuine = protocol.perturb(items, child)
        m, malicious = scheduled.craft_epoch(protocol, epoch, n, child)
        reports = (
            genuine if malicious is None else protocol.concat_reports(genuine, malicious)
        )
        if collectors == 1:
            service.ingest(name, reports)
        else:
            lanes = np.arange(protocol.num_reports(reports)) % collectors
            for lane, state in enumerate(states):
                state.ingest(name, protocol.select_reports(reports, lanes == lane))
        truths.append(current.frequencies)
        genuine_freqs.append(
            protocol.estimate_frequencies(protocol.support_counts(genuine), n)
        )
        injected.append(m)
        if drift > 0.0:
            current = drift_dataset(current, drift, drift_gen)
    if collectors > 1:
        service.absorb(fan_in(states))
    raw = [
        service.frequencies(f"e{epoch}").frequencies for epoch in range(num_epochs)
    ]
    out: dict[str, float] = {}
    for epoch in range(num_epochs):
        name = f"e{epoch}"
        recovered = service.frequencies(name, "recover").frequencies
        star = service.frequencies(name, "recover_star", targets).frequencies
        out[f"mse_before_e{epoch}"] = mse(truths[epoch], raw[epoch])
        out[f"mse_recover_e{epoch}"] = mse(truths[epoch], recovered)
        out[f"mse_star_e{epoch}"] = mse(truths[epoch], star)
        out[f"fg_before_e{epoch}"] = frequency_gain(
            genuine_freqs[epoch], raw[epoch], targets
        )
        out[f"fg_recover_e{epoch}"] = frequency_gain(
            genuine_freqs[epoch], recovered, targets
        )
        out[f"fg_star_e{epoch}"] = frequency_gain(genuine_freqs[epoch], star, targets)
        if epoch >= EPOCH_HISTORY_MIN:
            detector = ZScoreOutlierDetector().fit(np.stack(raw[:epoch]))
            flagged = detector.detect(raw[epoch])
            truth = targets if injected[epoch] > 0 else []
            out[f"detection_f1_e{epoch}"] = detection_f1(flagged, truth)
    return out


def _epoch_columns(stats: dict[str, Welford], epoch: int) -> dict[str, object]:
    """The metric columns of epoch ``epoch``'s row, read off ``stats``."""
    if epoch >= EPOCH_HISTORY_MIN:
        return _stat_columns(stats, _EPOCH_COLUMNS + ("detection_f1",), f"_e{epoch}")
    # The exporters require uniform columns across rows, so warm-up epochs
    # (no usable history yet) carry null detection scores instead of
    # omitting the columns.
    columns = _stat_columns(stats, _EPOCH_COLUMNS, f"_e{epoch}")
    return {**columns, "detection_f1": None, "detection_f1±": None}


def epochs_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 13,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Scenario ``epochs``: per-epoch recovery quality under drift + schedules.

    One simulated cell per (protocol, schedule) over all three frequency
    oracles and :data:`EPOCH_SCHEDULES`, plus one fan-in cell per
    protocol (the burst schedule split round-robin across
    :data:`EPOCH_COLLECTORS` collectors and merged) — each cell expands
    into one output row per epoch.  The population drifts
    :data:`EPOCH_DRIFT` per epoch off a dedicated stream
    (:func:`repro.sim.history.drift_dataset` semantics), MGA promotes the
    :data:`EPOCH_TARGET_COUNT` least frequent IPUMS items at the
    schedule's per-epoch fraction, and every epoch's reports stream
    through the online :class:`repro.serve.RecoveryService` — the exact
    numbers a live deployment would serve, cached/sharded like any batch
    cell.  ``num_users`` sizes each epoch's genuine population (``None``
    = 20k), ``trials`` rounds average per cell, ``rng`` seeds the cells,
    and ``ctx`` runs the cells (workers, cache, budget).
    """
    dataset = load_dataset(
        "ipums", _EPOCH_DEFAULT_USERS if num_users is None else int(num_users)
    )
    targets = tail_items(dataset.frequencies, EPOCH_TARGET_COUNT)
    cells = [
        (protocol_name, schedule, 1)
        for protocol_name in PROTOCOL_NAMES
        for schedule in EPOCH_SCHEDULES
    ] + [
        (protocol_name, EPOCH_SCHEDULES[1], EPOCH_COLLECTORS)
        for protocol_name in PROTOCOL_NAMES
    ]
    rows: list[dict[str, object]] = []
    for gen, (protocol_name, schedule, collectors) in _cells(rng, cells):
        protocol = _cell_protocol(protocol_name, DEFAULT_EPSILON, dataset.domain_size)
        scheduled = ScheduledAttack(
            MGAAttack(domain_size=dataset.domain_size, targets=targets),
            schedule,
            EPOCH_COUNT,
        )
        params = {
            "schedule": fingerprint_attack_schedule(schedule),
            "epochs": EPOCH_COUNT,
            "drift": EPOCH_DRIFT,
            "eta": DEFAULT_ETA,
            "collectors": collectors,
        }
        # One cell per (protocol, schedule, collectors): every epoch is read
        # off the same streamed trials, so the cell renders one row per
        # epoch from its statistics (as heavyhitter_rows renders one per k).
        rows += run_cell(
            gen,
            lambda seeds: scenario_cell_spec(
                "epochs", dataset, protocol, (scheduled.attack,), params, seeds
            ),
            partial(
                _epoch_trial, dataset, protocol, scheduled, EPOCH_DRIFT, DEFAULT_ETA,
                collectors,
            ),
            lambda stats: [
                {
                    "cell": f"{schedule.kind}-{protocol_name}-c{collectors}",
                    "schedule": schedule.describe(),
                    "collectors": collectors,
                    "epoch": epoch,
                    "beta": beta,
                    **_epoch_columns(stats, epoch),
                }
                for epoch, beta in enumerate(schedule.betas(EPOCH_COUNT))
            ],
            trials=trials, ctx=ctx,
        )
    return rows


# ----------------------------------------------------------------------
# Defense shoot-out sweep
# ----------------------------------------------------------------------
#: The attack kinds of the ``defenses`` sweep (targeted and adaptive).
DEFENSE_ATTACKS = ("mga", "aa")
#: Privacy budgets of the ``defenses`` sweep.
DEFENSE_EPSILONS = (0.5, 2.0)
#: Malicious fractions of the ``defenses`` sweep.
DEFENSE_BETAS = (0.05, 0.15)
#: The competing defenses, in the order the winner column considers them.
DEFENSE_METHODS = (
    "normalization",
    "detection",
    "kmeans",
    "recover",
    "recover_star",
)

#: Default genuine population of the ``defenses`` exhibit
#: (``num_users=None``); sampled-mode cost is O(``num_users``).
_DEFENSE_DEFAULT_USERS = 40_000

_DEFENSE_COLUMNS = ("mse_before",) + tuple(
    f"mse_{method}" for method in DEFENSE_METHODS
) + ("fg_before",) + tuple(f"fg_{method}" for method in DEFENSE_METHODS)


def _defense_trial(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: PoisoningAttack,
    beta: float,
    eta: float,
    aa_top_k: int,
    seed: np.random.SeedSequence,
) -> dict[str, float]:
    """One shoot-out trial: every defense against the same poisoned round.

    One ``sampled``-mode poisoning round serves every competitor: the
    report-level defenses (Detection, k-means) rescan the same raw
    reports the estimate-level ones (normalization, LDPRecover,
    LDPRecover*) never need.

    The target items feeding Detection and LDPRecover* come from
    :func:`repro.sim.engine.resolve_star_targets` — explicit for MGA, the
    top-increase rule for the adaptive attack — exactly the paper's
    Section VI-A4 setup.  Emits ``mse_*`` against the true frequencies
    and ``fg_*`` target frequency gain against the clean aggregate for
    the undefended estimate and each :data:`DEFENSE_METHODS` entry.
    """
    gen = np.random.default_rng(seed)
    trial = run_trial(dataset, protocol, attack, beta=beta, mode="sampled", rng=gen)
    truth = trial.true_frequencies
    poisoned = trial.poisoned_frequencies
    targets = resolve_star_targets(attack, trial, aa_top_k)
    target_list = [] if targets is None else [int(t) for t in targets]
    kmeans_recovery, _defense = recover_with_kmeans(protocol, trial.reports, rng=gen)
    estimates = {
        "before": poisoned,
        "normalization": project_onto_simplex_sort(poisoned),
        "detection": detect_and_aggregate(
            protocol, trial.reports, target_list, counts=trial.support_counts
        ).frequencies,
        "kmeans": kmeans_recovery.frequencies,
        "recover": recover_frequencies(poisoned, protocol, eta=eta).frequencies,
        "recover_star": recover_frequencies(
            poisoned, protocol, eta=eta, target_items=target_list
        ).frequencies,
    }
    out: dict[str, float] = {}
    for label, estimate in estimates.items():
        out[f"mse_{label}"] = mse(truth, estimate)
        out[f"fg_{label}"] = frequency_gain(
            trial.genuine_frequencies, estimate, target_list
        )
    return out


def defenses_rows(
    num_users: Optional[int] = None,
    trials: int = 5,
    rng: RngLike = 14,
    ctx: RunContext = RunContext(),
) -> list[dict[str, object]]:
    """Scenario ``defenses``: the defense shoot-out with a winner per regime.

    One cell per (attack, epsilon, beta) regime on the
    :data:`DEFENSE_ATTACKS` × :data:`DEFENSE_EPSILONS` ×
    :data:`DEFENSE_BETAS` grid, all over OUE on the IPUMS workload:
    Detection, the k-means defense (LDPRecover-KM), simplex-projection
    normalization, LDPRecover and LDPRecover* each repair the *same*
    ``sampled``-mode poisoned rounds, so their columns are paired
    comparisons.  Every ``mse_*`` / ``fg_*`` column carries its ``±``
    95%-CI companion, and the ``winner`` column names the
    :data:`DEFENSE_METHODS` entry with the lowest mean MSE in that
    regime — the winner-per-regime table reviewers ask for.
    ``num_users`` sizes the genuine population (``None`` = 40k),
    ``trials`` rounds average per cell, ``rng`` seeds the cells, and
    ``ctx`` runs the cells (workers, cache, budget).
    """
    dataset = load_dataset(
        "ipums", _DEFENSE_DEFAULT_USERS if num_users is None else int(num_users)
    )
    rows: list[dict[str, object]] = []
    grid = product(DEFENSE_ATTACKS, DEFENSE_EPSILONS, DEFENSE_BETAS)
    for gen, (attack_kind, epsilon, beta) in _cells(rng, grid):
        protocol = _cell_protocol("oue", epsilon, dataset.domain_size)
        attack = _make_attack(attack_kind, dataset.domain_size, gen)
        params = {
            "beta": beta,
            "epsilon": epsilon,
            "eta": DEFAULT_ETA,
            "aa_top_k": 5,
            "mode": "sampled",
        }
        rows += run_cell(
            gen,
            lambda seeds: scenario_cell_spec(
                "defenses", dataset, protocol, (attack,), params, seeds
            ),
            partial(_defense_trial, dataset, protocol, attack, beta, DEFAULT_ETA, 5),
            lambda stats: [{
                "cell": f"{attack_kind}-oue",
                "attack": attack_kind,
                "epsilon": epsilon,
                "beta": beta,
                "winner": min(DEFENSE_METHODS, key=lambda m: stats[f"mse_{m}"].mean),
                **_stat_columns(stats, _DEFENSE_COLUMNS),
            }],
            trials=trials, ctx=ctx,
        )
    return rows


# ----------------------------------------------------------------------
# The exhibit registry
# ----------------------------------------------------------------------
#: The optional :class:`repro.sim.shard.SweepConfig` fields an exhibit may
#: consume (every generator takes ``num_users``/``trials``/``rng`` and the
#: run's :class:`~repro.sim.experiment.RunContext` as ``ctx``).
SWEEP_OPTIONS = ("dataset", "parameter", "chunk_users", "olh_cohort")


@dataclass(frozen=True)
class Exhibit:
    """One registered exhibit: a paper figure or a scenario sweep.

    ``name`` is the registry key (the CLI's ``--figure``/``--exhibit``
    value), ``description`` the one-liner shown by ``ldprecover list``,
    and ``rows`` the generator callable: it must accept the
    ``num_users``, ``trials``, ``rng`` and ``ctx`` keywords, and pass
    ``ctx`` (the run's :class:`~repro.sim.experiment.RunContext`) on to
    every cell.  Which :data:`SWEEP_OPTIONS` it also takes is read off
    its signature (:attr:`consumes`).
    """

    name: str
    description: str
    rows: Callable[..., list[dict[str, object]]]

    @cached_property
    def consumes(self) -> tuple[str, ...]:
        """The :data:`SWEEP_OPTIONS` that :attr:`rows` takes as keywords.

        ``dataset`` arrives as the ``dataset_name`` keyword, so a
        ``partial(sweep_rows, "ipums")`` that binds it does not consume
        it.  :class:`repro.sim.shard.SweepConfig` forwards only consumed
        fields and keeps only them in its digest, so a worker passing a
        flag its exhibit ignores still reports under the same sweep
        digest, and the CLI notes an ignored ``--chunk-users`` or
        ``--olh-cohort``.  Read once per exhibit: every
        :meth:`~repro.sim.shard.SweepConfig.run` and ``digest`` asks.
        """
        params = inspect.signature(self.rows).parameters
        return tuple(
            option
            for option in SWEEP_OPTIONS
            if ("dataset_name" if option == "dataset" else option) in params
        )

#: Every dispatchable exhibit by name, paper figures first:
#: :class:`repro.sim.shard.SweepConfig` and the CLI derive their exhibit
#: choices, dispatch, digests, ``list`` text and ignored-flag notes from
#: here.
EXHIBITS: dict[str, Exhibit] = {
    exhibit.name: exhibit
    for exhibit in (
        Exhibit(
            "fig3",
            "MSE of LDPRecover / LDPRecover* / Detection per attack-protocol cell",
            figure3_rows,
        ),
        Exhibit("fig4", "frequency gain of MGA before/after recovery", figure4_rows),
        Exhibit(
            "fig5",
            "parameter sweeps (beta / epsilon / eta) under AA on IPUMS",
            partial(sweep_rows, "ipums"),
        ),
        Exhibit(
            "fig6",
            "parameter sweeps (beta / epsilon / eta) under AA on Fire",
            partial(sweep_rows, "fire"),
        ),
        Exhibit("fig7", "MSE of estimated vs true malicious frequencies", figure7_rows),
        Exhibit("fig8", "MGA vs MGA-IPA poisoning strength", figure8_rows),
        Exhibit("fig9", "LDPRecover-KM vs plain k-means under MGA-IPA", figure9_rows),
        Exhibit("fig10", "multi-attacker adaptive attacks", figure10_rows),
        Exhibit("table1", "LDPRecover on unpoisoned frequencies", table1_rows),
        Exhibit("kv", "key-value poisoning recovery across epsilon and beta", kv_rows),
        Exhibit(
            "heavyhitter",
            "top-k heavy-hitter promotion and repair across protocols, beta and k",
            heavyhitter_rows,
        ),
        Exhibit(
            "epochs",
            "evolving-population recovery per epoch under drift and "
            "mid-stream attack schedules, streamed through the recovery service",
            epochs_rows,
        ),
        Exhibit(
            "defenses",
            "defense shoot-out: Detection, k-means, normalization, LDPRecover "
            "and LDPRecover* on one (attack, epsilon, beta) grid with a winner "
            "per regime",
            defenses_rows,
        ),
    )
}


def register_scenario(exhibit: Exhibit) -> None:
    """Add ``exhibit`` to the :data:`EXHIBITS` registry.

    The name must not collide with a registered exhibit (paper figure or
    scenario); once registered, ``SweepConfig(figure=exhibit.name)`` — and
    therefore ``ldprecover run|shard --exhibit <name>`` — dispatches it
    like any built-in exhibit.
    """
    if exhibit.name in EXHIBITS:
        raise InvalidParameterError(f"exhibit name {exhibit.name!r} is already taken")
    EXHIBITS[exhibit.name] = exhibit
