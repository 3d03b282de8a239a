"""End-to-end poisoning trial (the Figure 2 process).

One trial simulates: genuine users perturb and report -> the attacker
injects ``m`` crafted reports -> the server aggregates the poisoned
frequency vector.  The result carries every intermediate vector needed by
the metrics and recovery methods, plus (in ``sampled`` mode) the raw
reports for report-level defenses (Detection, k-means).

``beta`` follows the paper: the *fraction of malicious users among all
users*, ``beta = m / (n + m)``, so ``m = beta * n / (1 - beta)`` for a
dataset of ``n`` genuine users.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Literal, Optional

import numpy as np

from repro._rng import RngLike, as_generator
from repro.attacks.base import PoisoningAttack
from repro.datasets.base import Dataset
from repro.exceptions import InvalidParameterError
from repro.protocols.base import FrequencyOracle, counts_to_items

SimulationMode = Literal["fast", "sampled", "chunked"]


def malicious_count(num_genuine: int, beta: float, strict: bool = False) -> int:
    """Malicious users joining ``num_genuine`` at malicious fraction ``beta``.

    When ``beta > 0`` but the population is so small that the count rounds
    to zero, the "attacked" cell would silently run unpoisoned — a warning
    is emitted, or :class:`~repro.exceptions.InvalidParameterError` raised
    under ``strict=True``.
    """
    if not 0.0 <= beta < 1.0:
        raise InvalidParameterError(f"beta must be in [0, 1), got {beta}")
    m = int(round(beta * num_genuine / (1.0 - beta)))
    if beta > 0.0 and m == 0:
        message = (
            f"beta={beta} with n={num_genuine} genuine users rounds to m=0 "
            f"malicious users: the cell will run unpoisoned"
        )
        if strict:
            raise InvalidParameterError(message)
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return m


@dataclass
class TrialResult:
    """All artifacts of one poisoning trial."""

    #: True frequency vector of the genuine data (the recovery target).
    true_frequencies: np.ndarray
    #: Frequencies aggregated from genuine reports only (``f_X_tilde``).
    genuine_frequencies: np.ndarray
    #: Frequencies aggregated from all reports (``f_Z``).
    poisoned_frequencies: np.ndarray
    #: Frequencies aggregated from malicious reports only (``f_Y``),
    #: ``None`` when no malicious users were injected.
    malicious_frequencies: Optional[np.ndarray]
    #: Genuine and malicious population sizes.
    n: int
    m: int
    #: Raw combined reports (``sampled`` mode only; genuine first).
    reports: Optional[Any] = None
    #: Mask over ``reports`` marking the malicious tail (ground truth for
    #: defense evaluation; a real server never sees it).
    malicious_mask: Optional[np.ndarray] = None
    #: int64 ``support_counts`` of ``reports`` (``sampled`` mode only),
    #: the genuine plus malicious counts the trial already folded.  The
    #: report-level defenses subtract from them instead of rescanning.
    support_counts: Optional[np.ndarray] = None

    @property
    def beta(self) -> float:
        """Realized malicious fraction ``m / (n + m)``."""
        total = self.n + self.m
        return self.m / total if total else 0.0

    @property
    def true_eta(self) -> float:
        """Realized malicious/genuine ratio ``m / n``."""
        return self.m / self.n if self.n else 0.0


def run_trial(
    dataset: Dataset,
    protocol: FrequencyOracle,
    attack: Optional[PoisoningAttack] = None,
    beta: float = 0.05,
    mode: SimulationMode = "fast",
    rng: RngLike = None,
    chunk_users: Optional[int] = None,
) -> TrialResult:
    """Simulate one poisoning round.

    Parameters
    ----------
    dataset:
        Genuine users' data (histogram).
    protocol:
        The LDP frequency oracle; its ``domain_size`` must match.
    attack:
        Poisoning attack, or ``None``/``beta=0`` for an unpoisoned round.
    beta:
        Malicious fraction ``m/(n+m)``; paper default 0.05.
    mode:
        ``"fast"`` draws genuine aggregated counts from their marginal
        laws (milliseconds at paper scale); ``"sampled"`` materializes
        every report (needed by Detection / k-means defenses);
        ``"chunked"`` runs the exact report-level simulation in
        bounded-memory chunks without retaining reports (see
        :func:`repro.sim.engine.run_chunked_trial`).
    rng:
        Seed or generator for the whole trial.
    chunk_users:
        Users simulated per chunk in ``"chunked"`` mode (default
        :data:`repro.sim.engine.DEFAULT_CHUNK_USERS`); rejected in the
        other modes, which never chunk.
    """
    if dataset.domain_size != protocol.domain_size:
        raise InvalidParameterError(
            f"dataset domain size {dataset.domain_size} != protocol domain size "
            f"{protocol.domain_size}"
        )
    if mode == "chunked":
        from repro.sim.engine import run_chunked_trial

        return run_chunked_trial(
            dataset, protocol, attack, beta=beta, rng=rng, chunk_users=chunk_users
        )
    if chunk_users is not None:
        raise InvalidParameterError(
            f"chunk_users only applies to mode='chunked', got mode={mode!r}"
        )
    gen = as_generator(rng)
    n = dataset.num_users
    m = malicious_count(n, beta) if attack is not None else 0

    genuine_reports = None
    if mode == "sampled":
        items = counts_to_items(dataset.counts, gen)
        genuine_reports = protocol.perturb(items, gen)
        genuine_counts = protocol.support_counts(genuine_reports)
    elif mode == "fast":
        genuine_counts = protocol.sample_genuine_counts(dataset.counts, gen)
    else:
        raise InvalidParameterError(f"mode must be 'fast' or 'sampled', got {mode!r}")

    genuine_freq = protocol.estimate_frequencies(genuine_counts, n)

    if m > 0 and attack is not None:
        malicious_reports = attack.craft(protocol, m, gen)
        malicious_counts = protocol.support_counts(malicious_reports)
        malicious_freq = protocol.estimate_frequencies(malicious_counts, m)
        total_counts = genuine_counts + malicious_counts
        poisoned_freq = protocol.estimate_frequencies(total_counts, n + m)
        reports = None
        malicious_mask = None
        if mode == "sampled":
            reports = protocol.concat_reports(genuine_reports, malicious_reports)
            malicious_mask = np.zeros(n + m, dtype=bool)
            malicious_mask[n:] = True
    else:
        total_counts = genuine_counts
        malicious_freq = None
        poisoned_freq = genuine_freq
        reports = genuine_reports
        malicious_mask = np.zeros(n, dtype=bool) if mode == "sampled" else None

    return TrialResult(
        true_frequencies=dataset.frequencies,
        genuine_frequencies=genuine_freq,
        poisoned_frequencies=poisoned_freq,
        malicious_frequencies=malicious_freq,
        n=n,
        m=m,
        reports=reports,
        malicious_mask=malicious_mask,
        support_counts=total_counts if mode == "sampled" else None,
    )
