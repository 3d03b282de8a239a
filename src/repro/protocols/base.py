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
  populations (hundreds of thousands of users) simulate in milliseconds;
  ``sample_crafted_counts`` does the same for reports crafted with
  ``craft_supporting``.
"""

from __future__ import annotations

import base64
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Optional, Sequence

import numpy as np

from repro._rng import RngLike, as_generator
from repro.exceptions import InvalidParameterError, ProtocolError

#: Reports per slice of :meth:`FrequencyOracle.fold_support_counts`, and
#: the default users per chunk of ``mode="chunked"`` trials
#: (:func:`repro.sim.pipeline.run_trial`).  At OUE's worst case one slice
#: materializes ``DEFAULT_CHUNK_USERS * d`` booleans, which bounds a
#: fold's transient memory whatever the batch size.
DEFAULT_CHUNK_USERS = 131_072

#: Wire dtypes :func:`encode_array` emits, exactly one per payload site:
#: GRR items in the narrowest unsigned dtype that holds ``d - 1``
#: (``uint8`` up to d = 256, ``uint16`` up to 65,536, then ``uint32``),
#: OUE's ``np.packbits`` rows (``uint8``), OLH's ``uint64`` seeds and
#: ``int64`` values, and the ``int64`` support counts of snapshots.
#: :func:`decode_array` accepts only the one dtype its caller names, so
#: no other dtype is ever built out of an untrusted payload.
WIRE_DTYPES = ("int64", "uint8", "uint16", "uint32", "uint64")

#: Largest in-memory size, in bytes, that one wire payload may decode to.
#: :func:`decode_array` checks it from the declared shape before any
#: base64 is decoded.  The compact forms widen when decoded (GRR's
#: ``uint16`` items to ``int64``, OUE's packed bits to one bool each), so
#: without this bound a body at ``repro.serve.http.MAX_BODY_BYTES``
#: (256 MiB) could decode to about 1.5 GiB; with it, a batch decodes to
#: at most 256 MiB (262,144 OUE reports at d = 1024, 33.5 million GRR
#: reports).
MAX_DECODED_BYTES = 1 << 28


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


def decode_array(
    payload: Any,
    dtype: str,
    width: Optional[int] = None,
    row_bytes: Optional[int] = None,
) -> np.ndarray:
    """Decode the :func:`encode_array` wire form ``payload`` back to an array.

    ``payload`` comes from outside the program, so every field is checked
    and every failure raises :class:`~repro.exceptions.ProtocolError`:

    * the declared dtype must be exactly ``dtype``;
    * the shape must be a list of non-negative plain ints, ``[n]``, or
      ``[n, width]`` when ``width`` is given;
    * ``n`` rows of ``row_bytes`` in-memory bytes each (default: the wire
      row's own size) must fit :data:`MAX_DECODED_BYTES`, checked before
      any base64 is decoded;
    * the data must be strict base64 of exactly the bytes that shape and
      dtype need.
    """
    try:
        dtype_s, shape, data = payload["dtype"], payload["shape"], payload["data"]
    except (TypeError, KeyError) as exc:
        raise ProtocolError(f"malformed wire array payload: {exc!r}") from exc
    if dtype_s != dtype:
        raise ProtocolError(f"refusing wire dtype {dtype_s!r}; expected {dtype!r}")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ProtocolError(
            f"wire array shape must be a list of non-negative integers, got {shape!r:.80}"
        )
    if len(shape) != (1 if width is None else 2) or (width is not None and shape[1] != width):
        expected_shape = "[n]" if width is None else f"[n, {width}]"
        raise ProtocolError(f"wire array shape {shape!r:.80} is not {expected_shape}")
    wire_row = np.dtype(dtype).itemsize * (1 if width is None else width)
    rows = shape[0]
    decoded = rows * (wire_row if row_bytes is None else row_bytes)
    if decoded > MAX_DECODED_BYTES:
        raise ProtocolError(
            f"wire batch of {rows} reports would decode to {decoded} bytes, over "
            f"the {MAX_DECODED_BYTES}-byte limit; split the batch"
        )
    expected = rows * wire_row
    if not isinstance(data, str) or len(data) != 4 * -(-expected // 3):
        raise ProtocolError(
            f"wire array data must be a base64 string of {4 * -(-expected // 3)} "
            f"characters for shape {shape} and dtype {dtype}"
        )
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ProtocolError(f"wire array data is not base64: {exc}") from exc
    if len(raw) != expected:
        raise ProtocolError(
            f"wire array payload has {len(raw)} bytes, expected {expected} "
            f"for shape {shape} and dtype {dtype}"
        )
    # ``bytearray`` keeps the decoded batch writable (frombuffer over the
    # immutable bytes would return a read-only view).
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)


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

        The "matches the target items" test of the Detection baseline
        (Section VI-A5).  Detection itself calls
        :meth:`target_support_counts`, which is positive exactly where
        this mask is true.
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
    @abstractmethod
    def encode_reports(self, reports: Any) -> dict[str, Any]:
        """JSON-safe wire encoding of a report batch, in the protocol's
        compact form.

        Each protocol ships the fewest bytes that carry its reports, built
        from :func:`encode_array` payloads:

        * GRR: items in the narrowest unsigned dtype that holds ``d - 1``
          (1 byte per report up to d = 256, 2 up to d = 65,536);
        * OUE/SUE: ``np.packbits`` rows, ``ceil(d / 8)`` bytes per report;
        * OLH/BLH: ``uint64`` seeds beside ``int64`` values, 16 bytes per
          report.

        ``decode_reports(encode_reports(r))`` returns the in-memory form
        (``int64`` items, the ``(n, d)`` bool matrix,
        :class:`~repro.protocols.olh.OLHReports`)
        byte-for-byte, and re-encoding it gives the same payload.
        """

    @abstractmethod
    def decode_reports(self, payload: Any) -> Any:
        """Decode a batch produced by :meth:`encode_reports`.

        ``payload`` comes from outside the program: any payload that
        :meth:`encode_reports` cannot have produced raises
        :class:`~repro.exceptions.ProtocolError` (see :func:`decode_array`
        for the checks every array payload passes, and each protocol's
        override for its own: GRR items below ``d``, OUE padding bits
        clear, OLH values in ``[0, g)``).
        """

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

    def sample_crafted_counts(self, item_counts: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Draw the support counts of crafted reports for an item histogram.

        ``item_counts[v]`` is the number of reports crafted with
        :meth:`craft_supporting` for item ``v``.  The returned array is
        distributed as ``support_counts(craft_supporting(items))`` over
        those ``m = item_counts.sum()`` items.  This default crafts and
        counts them in O(m*d); GRR, OUE and OLH draw the counts in O(d).
        """
        items = counts_to_items(self._validate_true_counts(item_counts), shuffle=False)
        return self.support_counts(self.craft_supporting(items, rng))

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
