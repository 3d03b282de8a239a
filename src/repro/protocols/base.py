"""Abstract base class for pure LDP frequency-estimation protocols.

A pure protocol (Wang et al., USENIX Security'17) is a pair ``(Psi, Phi)``:
``Psi`` perturbs one user's item, and ``Phi`` turns the number of reports
*supporting* each item ``v`` into an unbiased count estimate

    ``Phi(v) = (C(v) - n * q) / (p - q)``                    (paper Eq. 11)

where ``C(v)`` counts reports whose support set contains ``v`` (Eq. 12-13),
and ``p``/``q`` are the probabilities that a report supports its true item /
any other fixed item.  This unified view is exactly what both the attacks
and LDPRecover exploit, so the base class exposes ``p``, ``q`` and the
estimator while subclasses supply perturbation, support counting, and the
attacker-side "craft a report supporting item v" primitive.

Two simulation paths are offered:

* ``perturb`` + ``support_counts`` materialize every report (exact,
  report-level; required by the Detection baseline and IPA);
* ``sample_genuine_counts`` draws the aggregated support counts of a
  genuine population directly from their marginal laws, so paper-scale
  populations (hundreds of thousands of users) simulate in milliseconds.
"""

from __future__ import annotations

import base64
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Sequence

import numpy as np

from repro._rng import RngLike, as_generator
from repro.exceptions import InvalidParameterError, ProtocolError

#: Reports per slice of :meth:`FrequencyOracle.fold_support_counts`, and
#: the default users per chunk of ``mode="chunked"`` trials
#: (:func:`repro.sim.pipeline.run_trial`).  At OUE's worst case one slice
#: materializes ``DEFAULT_CHUNK_USERS * d`` booleans, which bounds a
#: fold's transient memory whatever the batch size.
DEFAULT_CHUNK_USERS = 131_072

#: Wire dtypes :func:`decode_array` accepts.  Report batches only ever
#: carry item indices (``int64``), bit vectors (``bool``) or hash seeds
#: (``uint64``); rejecting everything else keeps the decoder from
#: constructing arbitrary dtypes out of untrusted payloads.
WIRE_DTYPES = ("bool", "int64", "uint64")


def encode_array(array: np.ndarray) -> dict[str, Any]:
    """JSON-safe wire encoding of ``array`` (dtype, shape, base64 bytes).

    The inverse is :func:`decode_array`; both restrict themselves to the
    report dtypes in :data:`WIRE_DTYPES` so a payload round-trips
    byte-for-byte without ever pickling.
    """
    arr = np.ascontiguousarray(array)
    if str(arr.dtype) not in WIRE_DTYPES:
        raise ProtocolError(
            f"cannot wire-encode dtype {arr.dtype!r}; expected one of {WIRE_DTYPES}"
        )
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict[str, Any]) -> np.ndarray:
    """Decode the :func:`encode_array` wire form ``payload`` back to an array.

    Validates the dtype against :data:`WIRE_DTYPES` and the byte count
    against the declared shape, so malformed payloads fail loudly instead
    of mis-slicing.
    """
    try:
        dtype_s, shape, data = payload["dtype"], payload["shape"], payload["data"]
    except (TypeError, KeyError) as exc:
        raise ProtocolError(f"malformed wire array payload: {exc!r}") from exc
    if dtype_s not in WIRE_DTYPES:
        raise ProtocolError(
            f"refusing wire dtype {dtype_s!r}; expected one of {WIRE_DTYPES}"
        )
    dtype = np.dtype(dtype_s)
    shape_t = tuple(int(s) for s in shape)
    raw = base64.b64decode(data)
    expected = int(np.prod(shape_t, dtype=np.int64)) * dtype.itemsize
    if len(raw) != expected:
        raise ProtocolError(
            f"wire array payload has {len(raw)} bytes, expected {expected} "
            f"for shape {shape_t} and dtype {dtype_s}"
        )
    # ``bytearray`` keeps the decoded batch writable (frombuffer over the
    # immutable bytes would return a read-only view).
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape_t)


@dataclass(frozen=True)
class ProtocolParams:
    """The public parameters of a pure LDP protocol.

    These are exactly the quantities LDPRecover needs (Section V-C): the
    aggregation probabilities ``p`` and ``q`` and the domain size ``d``.
    The recovery code takes this object rather than a full protocol so it
    can run on frequencies collected elsewhere.
    """

    name: str
    epsilon: float
    domain_size: int
    p: float
    q: float

    @property
    def d(self) -> int:
        """Alias for :attr:`domain_size` matching the paper's notation."""
        return self.domain_size

    def expected_malicious_sum(self) -> float:
        """Learned sum of malicious frequencies, ``(1 - q*d) / (p - q)``.

        Paper Eq. (21): because crafted reports bypass perturbation but not
        aggregation, the expected sum of the malicious frequency vector is
        a constant that depends only on the protocol.
        """
        return (1.0 - self.q * self.domain_size) / (self.p - self.q)


def validate_epsilon(epsilon: float) -> float:
    """Check that the privacy budget is a positive finite float."""
    eps = float(epsilon)
    if not math.isfinite(eps) or eps <= 0:
        raise InvalidParameterError(f"epsilon must be positive and finite, got {epsilon!r}")
    return eps


def validate_domain_size(domain_size: int) -> int:
    """Check that the domain size is an integer >= 2."""
    d = int(domain_size)
    if d < 2:
        raise InvalidParameterError(f"domain_size must be >= 2, got {domain_size!r}")
    return d


class FrequencyOracle(ABC):
    """Base class for GRR, OUE and OLH.

    Subclasses must set :attr:`p` and :attr:`q` in ``__init__`` and
    implement the abstract report-level primitives.  All randomized methods
    accept an ``rng`` argument normalized by :func:`repro._rng.as_generator`.
    """

    #: Short protocol name, e.g. ``"grr"``; set by subclasses.
    name: ClassVar[str] = "abstract"

    def __init__(self, epsilon: float, domain_size: int) -> None:
        self.epsilon = validate_epsilon(epsilon)
        self.domain_size = validate_domain_size(domain_size)
        # Subclasses overwrite these with protocol-specific values.
        self.p: float = float("nan")
        self.q: float = float("nan")

    # ------------------------------------------------------------------
    # Derived, protocol-independent machinery (paper Section III-C)
    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Domain size, matching the paper's ``d``."""
        return self.domain_size

    @property
    def params(self) -> ProtocolParams:
        """Public parameters consumed by the recovery code."""
        return ProtocolParams(
            name=self.name,
            epsilon=self.epsilon,
            domain_size=self.domain_size,
            p=self.p,
            q=self.q,
        )

    def estimate_counts(self, support_counts: np.ndarray, n: int) -> np.ndarray:
        """Unbiased count estimates ``(C(v) - n*q) / (p - q)`` (Eq. 11)."""
        counts = np.asarray(support_counts, dtype=np.float64)
        if counts.shape != (self.domain_size,):
            raise ProtocolError(
                f"support_counts must have shape ({self.domain_size},), got {counts.shape}"
            )
        if n <= 0:
            raise ProtocolError(f"number of reports n must be positive, got {n}")
        return (counts - n * self.q) / (self.p - self.q)

    def estimate_frequencies(self, support_counts: np.ndarray, n: int) -> np.ndarray:
        """Unbiased frequency estimates ``Phi(v) / n``."""
        return self.estimate_counts(support_counts, n) / float(n)

    def aggregate(self, reports: Any) -> np.ndarray:
        """Frequency estimates straight from a batch of reports."""
        n = self.num_reports(reports)
        return self.estimate_frequencies(self.support_counts(reports), n)

    def expected_malicious_sum(self) -> float:
        """Paper Eq. (21); see :meth:`ProtocolParams.expected_malicious_sum`."""
        return self.params.expected_malicious_sum()

    # ------------------------------------------------------------------
    # Report-level primitives (exact path)
    # ------------------------------------------------------------------
    @abstractmethod
    def perturb(self, items: np.ndarray, rng: RngLike = None) -> Any:
        """Run the LDP perturbation ``Psi`` on one item per user.

        ``items`` is an integer array of private items in ``[0, d)``;
        returns a protocol-specific batch of reports.
        """

    @abstractmethod
    def support_counts(self, reports: Any) -> np.ndarray:
        """Count, for each item ``v``, the reports whose support contains ``v``."""

    @abstractmethod
    def craft_supporting(self, items: np.ndarray, rng: RngLike = None) -> Any:
        """Attacker primitive: craft one report per entry of ``items``.

        Each crafted report is the natural encoding of the requested item,
        *bypassing* perturbation — the poisoning model of the paper
        (Section IV-A): malicious users send attacker-chosen encoded data
        directly to the server.
        """

    @abstractmethod
    def concat_reports(self, first: Any, second: Any) -> Any:
        """Concatenate two report batches (genuine followed by malicious)."""

    @abstractmethod
    def num_reports(self, reports: Any) -> int:
        """Number of reports in a batch."""

    @abstractmethod
    def reports_supporting_any(self, reports: Any, items: Sequence[int]) -> np.ndarray:
        """Boolean mask of reports whose support intersects ``items``.

        Used by the Detection baseline (Section VI-A5), which drops every
        report that "matches the target items".
        """

    @abstractmethod
    def target_support_counts(self, reports: Any, items: Sequence[int]) -> np.ndarray:
        """Per-report count of how many of ``items`` the report supports.

        Backs the threshold-based Detection baseline: a report supporting
        many target items at once carries the signature of a crafted MGA
        report.
        """

    def select_reports(self, reports: Any, mask: np.ndarray) -> Any:
        """Keep only the reports where ``mask`` is True."""
        raise NotImplementedError

    def subset_support_counts(self, reports: Any, masks: np.ndarray) -> np.ndarray:
        """Support counts of several report subsets, as a ``(k, d)`` int64 array.

        ``masks`` is a ``(k, n)`` bool array over the batch's ``n``
        reports; row ``i`` of the result equals
        ``support_counts(select_reports(reports, masks[i]))``.  The
        report-level defenses count their subsets through this, so a
        protocol whose scan is costly per report (per-user OLH) can count
        all ``k`` subsets in one pass over the batch.  This default runs
        exactly that loop, one subset at a time.
        """
        rows = self._validate_masks(reports, masks)
        counts = np.zeros((rows.shape[0], self.domain_size), dtype=np.int64)
        for i, row in enumerate(rows):
            counts[i] = self.support_counts(self.select_reports(reports, row))
        return counts

    def _validate_masks(self, reports: Any, masks: np.ndarray) -> np.ndarray:
        rows = np.asarray(masks, dtype=bool)
        n = self.num_reports(reports)
        if rows.ndim != 2 or rows.shape[1] != n:
            raise ProtocolError(f"masks must have shape (k, {n}), got {rows.shape}")
        return rows

    @abstractmethod
    def slice_reports(self, reports: Any, start: int, stop: int) -> Any:
        """The contiguous sub-batch ``reports[start:stop]``.

        :meth:`fold_support_counts` walks batches through this, so it must
        cost O(stop - start).
        """

    def max_report_support(self) -> int:
        """Largest number of items a single report can support.

        GRR reports support exactly one item; vector encodings (OUE, OLH)
        can support up to the whole domain.  Detection thresholds scale
        against this.
        """
        return self.domain_size

    # ------------------------------------------------------------------
    # Streaming aggregation (explicit-state kernel)
    # ------------------------------------------------------------------
    def init_support_state(self) -> np.ndarray:
        """Fresh, zeroed ``support_counts`` partial sums to fold batches into.

        The explicit state of the streaming kernel: an ``int64`` vector of
        length ``d``.  Because support counting is a sum over reports,
        folding any sequence of report batches into this state with
        :meth:`fold_support_counts` is byte-equal to one
        :meth:`support_counts` pass over their concatenation.
        """
        return np.zeros(self.domain_size, dtype=np.int64)

    def fold_support_counts(self, state: np.ndarray, reports: Any) -> np.ndarray:
        """Fold one report batch into explicit ``state``, slice by slice.

        ``state`` is a partial-sum vector from :meth:`init_support_state`
        (or a previous fold); it is updated in place and returned.
        ``reports`` is walked through :meth:`slice_reports` in slices of
        :data:`DEFAULT_CHUNK_USERS` reports, so peak transient memory is
        one slice's worth regardless of the batch size (OLH's per-user
        scan is further bounded by its fixed hash tile), and any split of
        the same reports folds to byte-equal counts.
        """
        arr = np.asarray(state)
        if arr.shape != (self.domain_size,) or arr.dtype != np.int64:
            raise ProtocolError(
                f"state must be an int64 vector of shape ({self.domain_size},), "
                f"got shape {arr.shape} and dtype {arr.dtype}"
            )
        chunk = DEFAULT_CHUNK_USERS
        n = self.num_reports(reports)
        for start in range(0, n, chunk):
            arr += self.support_counts(
                self.slice_reports(reports, start, min(start + chunk, n))
            )
        return arr

    # ------------------------------------------------------------------
    # Wire serialization (repro.serve ingest payloads)
    # ------------------------------------------------------------------
    def encode_reports(self, reports: Any) -> dict[str, Any]:
        """JSON-safe wire encoding of a report batch.

        The default covers every ndarray-shaped report batch (GRR's item
        indices, OUE's bit matrix) via :func:`encode_array`; protocols
        with structured batches (OLH's seed/value pairs) override both
        codec methods.  ``decode_reports(encode_reports(r))`` round-trips
        byte-for-byte.
        """
        return encode_array(np.asarray(reports))

    def decode_reports(self, payload: dict[str, Any]) -> Any:
        """Decode a batch produced by :meth:`encode_reports`."""
        return decode_array(payload)

    # ------------------------------------------------------------------
    # Distributional primitives (fast path)
    # ------------------------------------------------------------------
    @abstractmethod
    def sample_genuine_counts(self, true_counts: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Draw the aggregated support counts of a genuine population.

        ``true_counts[v]`` is the number of users whose private item is
        ``v``.  The returned array is distributed as
        ``support_counts(perturb(items))`` (exactly for GRR/OUE, marginally
        for OLH) but costs O(d) instead of O(n).
        """

    @abstractmethod
    def theoretical_variance(self, n: int, frequency: float = 0.0) -> float:
        """Variance of the count estimator as printed in the paper.

        GRR: Eq. (4); OUE: Eq. (7); OLH: Eq. (10).
        """

    # ------------------------------------------------------------------
    # Helpers shared by subclasses
    # ------------------------------------------------------------------
    def _validate_items(self, items: np.ndarray) -> np.ndarray:
        arr = np.asarray(items)
        if arr.ndim != 1:
            raise ProtocolError(f"items must be a 1-D array, got shape {arr.shape}")
        if arr.size == 0:
            return arr.astype(np.int64)
        arr = arr.astype(np.int64, copy=False)
        if arr.min() < 0 or arr.max() >= self.domain_size:
            raise ProtocolError(
                f"items must lie in [0, {self.domain_size}), got range "
                f"[{arr.min()}, {arr.max()}]"
            )
        return arr

    def _validate_true_counts(self, true_counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(true_counts)
        if counts.shape != (self.domain_size,):
            raise ProtocolError(
                f"true_counts must have shape ({self.domain_size},), got {counts.shape}"
            )
        if np.any(counts < 0):
            raise ProtocolError("true_counts must be non-negative")
        return counts.astype(np.int64, copy=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(epsilon={self.epsilon}, domain_size={self.domain_size})"


def counts_to_items(true_counts: np.ndarray, rng: RngLike = None, shuffle: bool = True) -> np.ndarray:
    """Expand a count vector into one item per user.

    Utility for the exact simulation path: turns ``true_counts`` (the
    dataset histogram) into the array of private items held by individual
    users, optionally shuffled.
    """
    counts = np.asarray(true_counts, dtype=np.int64)
    items = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    if shuffle:
        as_generator(rng).shuffle(items)
    return items
