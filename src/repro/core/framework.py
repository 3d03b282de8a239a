"""Analytical framework for poisoning attacks (paper Section V-B1).

The framework has three parties — genuine users ``X``, an attacker crafting
``Y``, and the server aggregating ``Z = X_tilde U Y`` — and derives the
relationship between the three frequency vectors:

    ``f_Z(v) = n/(n+m) * f_X_tilde(v) + m/(n+m) * f_Y(v)``      (Eq. 14)

plus the asymptotic normal laws of each (Lemmas 1-2, Theorem 1).  This
module implements those moments in closed form; they back the estimator's
error analysis, the Berry-Esseen bounds of :mod:`repro.core.errors` and the
statistical tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.protocols.base import ProtocolParams


@dataclass(frozen=True)
class NormalLaw:
    """Mean/variance pair of an asymptotically normal frequency estimate."""

    mean: float
    variance: float

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


def mixture_frequency(
    genuine_freq: np.ndarray, malicious_freq: np.ndarray, n: int, m: int
) -> np.ndarray:
    """Compose the poisoned frequency vector (Eq. 14)."""
    if n <= 0 or m < 0:
        raise InvalidParameterError(f"need n > 0 and m >= 0, got n={n}, m={m}")
    genuine = np.asarray(genuine_freq, dtype=np.float64)
    malicious = np.asarray(malicious_freq, dtype=np.float64)
    total = n + m
    return (n / total) * genuine + (m / total) * malicious


def support_probability(true_frequency: float, p: float, q: float) -> float:
    """Probability that one genuine report supports a fixed item ``v``.

    A user holding ``v`` (probability ``f``) supports it with probability
    ``p``; any other user with probability ``q``.
    """
    return true_frequency * p + (1.0 - true_frequency) * q


def per_report_estimate_moments(support_prob: float, p: float, q: float) -> NormalLaw:
    """Moments of the single-report count estimate ``(1_S(v) - q)/(p - q)``.

    The estimate is two-valued: ``(1-q)/(p-q)`` with probability ``s`` and
    ``-q/(p-q)`` otherwise, so mean ``(s-q)/(p-q)`` and variance
    ``s(1-s)/(p-q)^2`` — the building block of Lemmas 1 and 2.
    """
    if not 0.0 <= support_prob <= 1.0:
        raise InvalidParameterError(f"support probability must be in [0,1], got {support_prob}")
    gap = p - q
    if gap == 0:
        raise InvalidParameterError("degenerate protocol: p == q")
    mean = (support_prob - q) / gap
    variance = support_prob * (1.0 - support_prob) / gap**2
    return NormalLaw(mean=mean, variance=variance)


def genuine_frequency_law(true_frequency: float, params: ProtocolParams, n: int) -> NormalLaw:
    """Lemma 2: asymptotic law of the genuine aggregated frequency.

    ``mean = f_X(v)`` and
    ``variance = q(1-q)/(n(p-q)^2) + f_X(v)(1-p-q)/(n(p-q))``.
    """
    if n <= 0:
        raise InvalidParameterError(f"n must be positive, got {n}")
    p, q = params.p, params.q
    gap = p - q
    variance = q * (1.0 - q) / (n * gap**2) + true_frequency * (1.0 - p - q) / (n * gap)
    return NormalLaw(mean=float(true_frequency), variance=float(variance))


def malicious_frequency_law(support_prob: float, params: ProtocolParams, m: int) -> NormalLaw:
    """Lemma 1: asymptotic law of the malicious aggregated frequency.

    ``support_prob`` is the probability that one crafted report supports
    the item (for single-item encodings this equals the attacker-designed
    probability ``P(v)``).  The law is the per-report law scaled by ``m``:
    ``mean = mu_y`` and ``variance = Var[per-report]/m``.
    """
    if m <= 0:
        raise InvalidParameterError(f"m must be positive, got {m}")
    per_report = per_report_estimate_moments(support_prob, params.p, params.q)
    return NormalLaw(mean=per_report.mean, variance=per_report.variance / m)


def poisoned_frequency_law(genuine: NormalLaw, malicious: NormalLaw, eta: float) -> NormalLaw:
    """Theorem 1: law of the poisoned frequency as a mixture.

    ``mu_z = mu_x/(1+eta) + eta*mu_y/(1+eta)`` and
    ``var_z = var_x/(1+eta)^2 + eta^2*var_y/(1+eta)^2``, with
    ``eta = m/n``.
    """
    if eta < 0:
        raise InvalidParameterError(f"eta must be >= 0, got {eta}")
    scale = 1.0 + eta
    mean = genuine.mean / scale + eta * malicious.mean / scale
    variance = genuine.variance / scale**2 + eta**2 * malicious.variance / scale**2
    return NormalLaw(mean=mean, variance=variance)
