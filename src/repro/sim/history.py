"""Historical-epoch simulation for the partial-knowledge pipeline.

The paper's outlier-detection route to LDPRecover* (Section V-D) assumes
the server holds frequency estimates from past collection epochs.  This
module simulates that history — repeated unpoisoned aggregations of the
same (optionally drifting) population — so examples and tests can run the
full history -> detector -> LDPRecover* loop reproducibly.

It also carries the epoch *attack schedules* of the ``epochs`` scenario
exhibit (:mod:`repro.sim.scenarios`): a :class:`AttackSchedule` maps each
collection epoch to a malicious fraction, modeling attacks that run
constantly, burst on at a chosen epoch, or ramp their adversary fraction
up mid-stream.  Schedules are plain frozen dataclasses of scalars so they
fingerprint into cell cache specs
(:func:`repro.sim.cache.fingerprint_attack_schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._rng import RngLike, as_generator, spawn
from repro.datasets.base import Dataset
from repro.exceptions import InvalidParameterError
from repro.protocols.base import FrequencyOracle
from repro.sim.pipeline import run_trial

#: The schedule shapes :class:`AttackSchedule` supports.
SCHEDULE_KINDS = ("constant", "burst", "ramp")


@dataclass(frozen=True)
class AttackSchedule:
    """A per-epoch malicious-fraction schedule for evolving-population runs.

    Three shapes (:data:`SCHEDULE_KINDS`), all built through the factory
    classmethods rather than the raw constructor:

    * ``constant`` — the attack runs at fraction ``beta`` in every epoch;
    * ``burst`` — epochs before ``start_epoch`` are clean, then the attack
      switches on at fraction ``beta`` (the mid-stream burst the
      cross-epoch detector is supposed to catch);
    * ``ramp`` — the adversary fraction drifts linearly from ``beta`` at
      epoch 0 to ``end_beta`` at the final epoch.

    Instances are frozen scalar-only dataclasses: picklable for the trial
    engine and fingerprintable for the cell cache.
    """

    kind: str
    beta: float
    start_epoch: int = 0
    end_beta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidParameterError(
                f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}"
            )
        for name, value in (("beta", self.beta), ("end_beta", self.end_beta)):
            if value is not None and not 0.0 <= float(value) < 1.0:
                raise InvalidParameterError(f"{name} must be in [0, 1), got {value}")
        if self.start_epoch < 0:
            raise InvalidParameterError(
                f"start_epoch must be >= 0, got {self.start_epoch}"
            )
        if self.kind == "ramp" and self.end_beta is None:
            raise InvalidParameterError("ramp schedules need an end_beta")

    @classmethod
    def constant(cls, beta: float) -> "AttackSchedule":
        """The attack runs at fraction ``beta`` in every epoch."""
        return cls(kind="constant", beta=float(beta))

    @classmethod
    def burst(cls, beta: float, at: int) -> "AttackSchedule":
        """Clean until epoch ``at``, then the attack bursts on at ``beta``."""
        return cls(kind="burst", beta=float(beta), start_epoch=int(at))

    @classmethod
    def ramp(cls, beta: float, end_beta: float) -> "AttackSchedule":
        """Adversary fraction drifts linearly from ``beta`` to ``end_beta``."""
        return cls(kind="ramp", beta=float(beta), end_beta=float(end_beta))

    def beta_at(self, epoch: int, num_epochs: int) -> float:
        """The malicious fraction scheduled for ``epoch`` of ``num_epochs``."""
        if num_epochs < 1:
            raise InvalidParameterError(f"num_epochs must be >= 1, got {num_epochs}")
        if not 0 <= epoch < num_epochs:
            raise InvalidParameterError(
                f"epoch must be in [0, {num_epochs}), got {epoch}"
            )
        if self.kind == "constant":
            return self.beta
        if self.kind == "burst":
            return self.beta if epoch >= self.start_epoch else 0.0
        # ramp: linear interpolation from beta (epoch 0) to end_beta (last).
        assert self.end_beta is not None
        if num_epochs == 1:
            return self.beta
        step = (self.end_beta - self.beta) / (num_epochs - 1)
        return self.beta + step * epoch

    def betas(self, num_epochs: int) -> tuple[float, ...]:
        """The full per-epoch fraction vector of a ``num_epochs`` run."""
        return tuple(self.beta_at(epoch, num_epochs) for epoch in range(num_epochs))

    def describe(self) -> str:
        """One-line human description for exhibit rows and logs."""
        if self.kind == "constant":
            return f"constant(beta={self.beta})"
        if self.kind == "burst":
            return f"burst(beta={self.beta}, at={self.start_epoch})"
        return f"ramp({self.beta}->{self.end_beta})"


@dataclass(frozen=True)
class History:
    """A matrix of per-epoch frequency estimates plus provenance."""

    #: (epochs, d) matrix of unpoisoned frequency estimates.
    estimates: np.ndarray
    #: The dataset used for the final (current) epoch.
    final_dataset: Dataset

    @property
    def num_epochs(self) -> int:
        return int(self.estimates.shape[0])

    def mean(self) -> np.ndarray:
        """The server's baseline prediction for the next epoch."""
        return self.estimates.mean(axis=0)


def simulate_history(
    dataset: Dataset,
    protocol: FrequencyOracle,
    epochs: int = 10,
    drift: float = 0.0,
    rng: RngLike = None,
) -> History:
    """Aggregate ``epochs`` unpoisoned rounds of the population.

    Parameters
    ----------
    dataset:
        The genuine population of the first epoch.
    protocol:
        The collection protocol (fresh randomness per epoch).
    epochs:
        Number of past epochs to simulate (>= 2 so a detector can fit).
    drift:
        Per-epoch relative drift of the underlying counts: each epoch the
        true counts are multiplied by ``1 + Uniform(-drift, drift)`` per
        item and re-normalized, modeling organic popularity change.
        ``0.0`` keeps the population fixed.
    rng:
        Seed or generator.

    The drift draws come from a dedicated spawned child stream (spawn key
    0), with one further child per epoch for the collection randomness —
    so changing ``epochs`` never perturbs the shared epoch prefix or any
    unrelated draws off the parent ``rng``, and the epoch-``e`` estimate
    of a 5-epoch run is byte-equal to the epoch-``e`` estimate of an
    8-epoch run under the same seed.
    """
    if epochs < 2:
        raise InvalidParameterError(f"epochs must be >= 2, got {epochs}")
    if not 0.0 <= drift < 1.0:
        raise InvalidParameterError(f"drift must be in [0, 1), got {drift}")
    gen = as_generator(rng)
    # Child 0 is the dedicated drift stream; children 1..epochs drive the
    # per-epoch collection.  Spawn keys are position-stable, so a longer
    # run extends — never reshuffles — a shorter run's streams.
    streams = spawn(gen, epochs + 1)
    drift_gen, epoch_gens = streams[0], streams[1:]
    estimates = np.empty((epochs, dataset.domain_size), dtype=np.float64)
    current = dataset
    for epoch, child in enumerate(epoch_gens):
        trial = run_trial(current, protocol, None, beta=0.0, rng=child)
        estimates[epoch] = trial.genuine_frequencies
        if drift > 0.0:
            current = drift_dataset(current, drift, drift_gen)
    return History(estimates=estimates, final_dataset=current)


def drift_dataset(dataset: Dataset, drift: float, rng: RngLike = None) -> Dataset:
    """Apply one epoch of multiplicative popularity drift to ``dataset``.

    Each item's count is scaled by an independent ``1 + Uniform(-drift,
    drift)`` factor drawn off ``rng`` and the histogram re-normalized
    back to the original ``num_users`` with largest-remainder rounding,
    so the population size is invariant while relative popularity
    wanders.
    """
    if not 0.0 <= drift < 1.0:
        raise InvalidParameterError(f"drift must be in [0, 1), got {drift}")
    gen = as_generator(rng)
    factors = 1.0 + gen.uniform(-drift, drift, size=dataset.domain_size)
    scaled = np.maximum(dataset.counts * factors, 0.0)
    total = scaled.sum()
    if total <= 0:
        return dataset
    ideal = scaled / total * dataset.num_users
    floor = np.floor(ideal).astype(np.int64)
    shortfall = dataset.num_users - int(floor.sum())
    if shortfall > 0:
        top = np.argsort(ideal - floor)[::-1][:shortfall]
        floor[top] += 1
    return Dataset(name=dataset.name, counts=floor)


def epoch_populations(
    dataset: Dataset, epochs: int, drift: float, rng: RngLike = None
) -> list[Dataset]:
    """The evolving per-epoch populations of a ``drift``-ing run.

    Epoch 0 is ``dataset`` itself; each later epoch applies one
    :func:`drift_dataset` step off a single sequential stream (``rng``),
    the population model of :func:`simulate_history` and of the
    ``epochs`` scenario exhibit.  Those two call :func:`drift_dataset`
    directly, off a drift stream of their own, so this helper serves
    callers that want the per-epoch truths alone (the cross-epoch
    statistical tests).
    """
    if epochs < 1:
        raise InvalidParameterError(f"epochs must be >= 1, got {epochs}")
    gen = as_generator(rng)
    populations = [dataset]
    for _ in range(1, epochs):
        current = populations[-1]
        populations.append(
            drift_dataset(current, drift, gen) if drift > 0.0 else current
        )
    return populations


__all__ = [
    "SCHEDULE_KINDS",
    "AttackSchedule",
    "History",
    "drift_dataset",
    "epoch_populations",
    "simulate_history",
]
