"""Keyed hash family used by Optimized Local Hashing (OLH).

The paper uses xxhash; OLH only requires a family ``H`` such that for a
random member the hash of each item is uniform over ``{0, .., g-1}`` and
(approximately) independent across items (Section III-B of the paper).  We
implement a splitmix64-based keyed hash, which passes both requirements for
the domain sizes used here, needs no dependency, and vectorizes over numpy
arrays of seeds and items.

The map is ``H_seed(x) = mix64(mix64(x) XOR seed) mod g`` where ``mix64``
is the splitmix64 finalizer.  Each user draws a fresh 64-bit ``seed``; the
pair ``(seed, y)`` is the OLH report.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: Upper bound (exclusive) for seeds drawn for the family.
SEED_SPACE = 2**63 - 1

#: (report, item) cells per tile of :func:`support_matches`.  Its two
#: uint64 buffers and one bool buffer (~0.55 MB) fit one core's L2 cache,
#: so every in-place pass over a tile runs from cache; the scan's memory
#: is bounded by this constant whatever the batch size.
TILE_CELLS = 32_768


def _finalize(z: np.ndarray, scratch: np.ndarray) -> None:
    """The splitmix64 finalizer, in place on uint64 ``z`` (``scratch``: same shape)."""
    z += _GOLDEN
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def _reduce(z: np.ndarray, g: np.uint64, scratch: np.ndarray) -> None:
    """``z %= g`` in place, computed exactly as ``z - (z // g) * g``.

    Equal to ``z % g`` bit for bit on uint64; numpy divides by a scalar
    through libdivide, which is several times faster than its ``%``.
    """
    np.floor_divide(z, g, out=scratch)
    scratch *= g
    z -= scratch


def mix64(x: np.ndarray) -> np.ndarray:
    """Apply the splitmix64 finalizer elementwise to a uint64 array."""
    z = np.array(x, dtype=np.uint64)
    _finalize(z, np.empty_like(z))
    return z


def hash_items(seeds: np.ndarray, items: np.ndarray, g: int) -> np.ndarray:
    """Hash ``items`` under per-element ``seeds`` into ``{0, .., g-1}``.

    ``seeds`` and ``items`` broadcast against each other, so callers can
    evaluate a single seed over the whole domain (``seeds`` scalar-like,
    ``items`` 1-D), one item under many seeds, or elementwise pairs.

    Parameters
    ----------
    seeds:
        uint64-convertible array of hash-function keys.
    items:
        integer array of item identifiers (non-negative).
    g:
        size of the hash range; must be >= 2.

    Returns
    -------
    numpy.ndarray
        uint64 array of hash values in ``[0, g)`` with the broadcast shape
        of ``seeds`` and ``items``.
    """
    if g < 2:
        raise ValueError(f"hash range g must be >= 2, got {g}")
    s = np.asarray(seeds, dtype=np.uint64)
    x = mix64(np.asarray(items, dtype=np.uint64))
    z = np.bitwise_xor(x, s, out=np.empty(np.broadcast_shapes(x.shape, s.shape), np.uint64))
    scratch = np.empty_like(z)
    _finalize(z, scratch)
    _reduce(z, np.uint64(g), scratch)
    return z


def support_matches(
    seeds: np.ndarray, values: np.ndarray, items: np.ndarray, g: int, axis: int,
    masks: np.ndarray | None = None,
) -> np.ndarray:
    """Count matches over the (reports x items) grid, tile by tile.

    The per-user OLH support scan: cell ``(j, i)`` matches when
    ``hash_items(seeds[j], items[i], g) == values[j]``.  Returns the int64
    match counts summed along ``axis`` of that grid: ``axis=0`` gives one
    count per item, ``axis=1`` one per report.  A reported value outside
    ``[0, g)`` never matches (negative values wrap past ``2**63``).

    ``masks``, a ``(k, n)`` bool array over the ``n`` reports, counts
    ``k`` report subsets in the same pass (``axis=0`` only): row ``i`` of
    the ``(k, len(items))`` result sums the matches of the reports where
    ``masks[i]`` is True.  Each tile adds ``masks_tile @ match_tile``,
    multiplied in float32, which is exact because a tile's partial sums
    never exceed :data:`TILE_CELLS` < ``2**24``; only one report slice of
    the masks is converted at a time.

    ``items`` is pre-mixed once.  The grid is then walked in tiles of at
    most :data:`TILE_CELLS` cells (read at call time), each hashed in
    place in preallocated buffers, so the scan holds one tile whatever the
    batch or domain size.  A tile is laid out (items x reports), so the
    per-report operands (seed, value) are contiguous rows.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    want = np.asarray(values).astype(np.uint64)
    mixed = mix64(np.asarray(items, dtype=np.uint64))
    if masks is not None and (axis != 0 or masks.shape[1:] != s.shape):
        raise ValueError(f"masks need axis=0 and shape (k, {s.size}), got {masks.shape}")
    width = mixed.size if axis == 0 else s.size
    counts = np.zeros(width if masks is None else (len(masks), width), dtype=np.int64)
    cols = max(1, min(s.size, TILE_CELLS))
    rows = max(1, TILE_CELLS // cols)
    z = np.empty(rows * cols, dtype=np.uint64)
    scratch = np.empty_like(z)
    hit = np.empty(rows * cols, dtype=bool)
    modulus = np.uint64(g)
    for c in range(0, s.size, cols):
        c_end = min(c + cols, s.size)
        if masks is not None:
            weights = masks[:, c:c_end].astype(np.float32)
        for r in range(0, mixed.size, rows):
            r_end = min(r + rows, mixed.size)
            shape = (r_end - r, c_end - c)
            size = shape[0] * shape[1]
            tile, tmp, match = (buf[:size].reshape(shape) for buf in (z, scratch, hit))
            np.bitwise_xor(mixed[r:r_end, None], s[c:c_end], out=tile)
            _finalize(tile, tmp)
            _reduce(tile, modulus, tmp)
            np.equal(tile, want[c:c_end], out=match)
            if masks is not None:
                counts[:, r:r_end] += (weights @ match.T.astype(np.float32)).astype(np.int64)
            elif axis == 0:
                counts[r:r_end] += match.sum(axis=1)
            else:
                counts[c:c_end] += match.sum(axis=0)
    return counts


def hash_domain(seed: int, domain_size: int, g: int) -> np.ndarray:
    """Hash the full domain ``0..domain_size-1`` under one ``seed``."""
    items = np.arange(domain_size, dtype=np.uint64)
    return hash_items(np.uint64(seed), items, g)


def hash_domains(seeds: np.ndarray, domain_size: int, g: int) -> np.ndarray:
    """Hash the full domain under each of several ``seeds`` at once.

    The batched kernel behind cohort-mode OLH aggregation: the inner
    ``mix64`` of the domain is evaluated once and broadcast against every
    seed, so hashing ``K`` seeds costs one domain pre-mix plus ``K *
    domain_size`` finalizer applications.

    Parameters
    ----------
    seeds:
        1-D uint64-convertible array of ``K`` hash-function keys.
    domain_size:
        Number of items ``0..domain_size-1`` to hash under every seed.
    g:
        Size of the hash range; must be >= 2.

    Returns
    -------
    numpy.ndarray
        uint64 array of shape ``(K, domain_size)``; row ``i`` equals
        ``hash_domain(seeds[i], domain_size, g)``.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    if s.ndim != 1:
        raise ValueError(f"seeds must be 1-D, got shape {s.shape}")
    items = np.arange(domain_size, dtype=np.uint64)
    return hash_items(s[:, None], items[None, :], g)


def value_histograms(
    groups: np.ndarray, values: np.ndarray, num_groups: int, g: int
) -> np.ndarray:
    """Per-group histograms of hash values in ``[0, g)``.

    One fused ``bincount`` over ``groups * g + values``: entry ``[k, y]``
    counts the positions where ``groups == k`` and ``values == y``.  This
    is the O(n) reported-value tally of cohort-mode OLH aggregation —
    ``groups`` is each report's cohort-seed index, ``values`` its reported
    hash value.

    Parameters
    ----------
    groups:
        Integer array of group indices in ``[0, num_groups)``.
    values:
        Integer array (same shape) of hash values in ``[0, g)``.
    num_groups:
        Number of histogram rows.
    g:
        Size of the hash range (histogram row width).

    Returns
    -------
    numpy.ndarray
        int64 array of shape ``(num_groups, g)``.
    """
    keys = np.asarray(groups, dtype=np.int64) * np.int64(g) + np.asarray(
        values, dtype=np.int64
    )
    return np.bincount(keys.ravel(), minlength=num_groups * g).reshape(
        num_groups, g
    ).astype(np.int64)


def draw_seeds(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent hash-function keys."""
    return rng.integers(0, SEED_SPACE, size=n, dtype=np.int64).astype(np.uint64)
