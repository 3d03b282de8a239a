"""End-to-end poisoning trial (the Figure 2 process).

One trial simulates: genuine users perturb and report -> the attacker
injects ``m`` crafted reports -> the server aggregates the poisoned
frequency vector.  The result carries every intermediate vector needed by
the metrics and recovery methods, plus (in ``sampled`` mode) the raw
reports for report-level defenses (Detection, k-means).

:func:`run_trial` runs all three simulation modes.  ``chunked`` mode
perturbs and crafts in bounded-memory chunks of ``support_counts``
partial sums (:func:`chunked_genuine_counts`,
:func:`chunked_malicious_counts`), so report-level OUE/SUE simulations of
tens of millions of users fit in RAM (an ``(n, d)`` boolean report matrix
never exists).

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
from repro.protocols.base import DEFAULT_CHUNK_USERS, FrequencyOracle, counts_to_items

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


def _validate_chunk(chunk_users: Optional[int]) -> int:
    chunk = DEFAULT_CHUNK_USERS if chunk_users is None else int(chunk_users)
    if chunk < 1:
        raise InvalidParameterError(f"chunk_users must be >= 1, got {chunk_users}")
    return chunk


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
    and folded through
    :meth:`~repro.protocols.base.FrequencyOracle.fold_support_counts`:
    the crafted reports materialize once, so the memory high-water mark
    for those attacks is the full ``m``-report batch itself (``m x d``
    booleans for OUE, O(m) pairs for OLH/GRR) plus one fold slice's scan
    — *not* bounded by ``chunk_users``.  ``m`` is a ``beta`` fraction of
    the population.
    """
    gen = as_generator(rng)
    chunk = _validate_chunk(chunk_users)
    if not getattr(attack, "iid_reports", True):
        return protocol.fold_support_counts(
            protocol.init_support_state(), attack.craft(protocol, m, gen)
        )
    total = np.zeros(protocol.domain_size, dtype=np.int64)
    for start in range(0, m, chunk):
        take = min(chunk, m - start)
        total += protocol.support_counts(attack.craft(protocol, take, gen))
    return total


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
        ``"chunked"`` has the semantics of ``"sampled"`` but aggregates
        genuine reports with :func:`chunked_genuine_counts` and malicious
        ones with :func:`chunked_malicious_counts`, retaining none
        (``reports is None``, which rules out report-level defenses).  Its
        memory high-water mark is ``O(chunk_users * d)`` instead of
        ``O(n * d)``, except that attacks with ``iid_reports = False``
        (e.g. ``MultiAttacker``) craft their full ``m``-report batch at
        once.
    rng:
        Seed or generator for the whole trial; genuine users draw first,
        then the attacker.
    chunk_users:
        Users simulated per chunk in ``"chunked"`` mode (default
        :data:`~repro.protocols.base.DEFAULT_CHUNK_USERS`); rejected in
        the other modes, which never chunk.
    """
    if dataset.domain_size != protocol.domain_size:
        raise InvalidParameterError(
            f"dataset domain size {dataset.domain_size} != protocol domain size "
            f"{protocol.domain_size}"
        )
    if chunk_users is not None and mode != "chunked":
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
    elif mode == "chunked":
        genuine_counts = chunked_genuine_counts(protocol, dataset.counts, gen, chunk_users)
    else:
        raise InvalidParameterError(
            f"mode must be 'fast', 'sampled' or 'chunked', got {mode!r}"
        )

    genuine_freq = protocol.estimate_frequencies(genuine_counts, n)

    if m > 0 and attack is not None:
        if mode == "chunked":
            malicious_reports = None
            malicious_counts = chunked_malicious_counts(protocol, attack, m, gen, chunk_users)
        else:
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
