"""Analysis metrics computed *purely from bitmaps* -- §3.2 of the paper.

No function in this module ever touches raw data; everything is popcounts
and compressed bitwise operations on :class:`~repro.bitmap.index.BitmapIndex`
objects whose raw arrays have long been discarded:

* individual value distributions -- each bin's popcount (free at build time);
* joint value distributions -- ``popcount(AND)`` over bin pairs;
* count-based EMD -- differences of bin popcounts;
* spatial EMD -- ``popcount(XOR)`` per aligned bin pair;
* Shannon entropy / mutual information / conditional entropy -- the shared
  distribution-level formulas of :mod:`repro.metrics.entropy` applied to
  bitmap-derived counts.

At equal binning every value equals its full-data counterpart exactly
(property-tested) -- the paper's central "no accuracy loss" claim.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import joint_count_matrix
from repro.bitmap.ops import (
    STREAMING_COUNT_RATIO_THRESHOLD,
    and_count_streaming,
    xor_count_streaming,
)
from repro.metrics.emd import emd_from_counts, emd_from_diffs
from repro.metrics.entropy import (
    conditional_entropy_from_joint,
    mutual_information_from_joint,
    shannon_entropy_from_counts,
)
from repro.util.bits import popcount_u32


def _check_aligned(index_a: BitmapIndex, index_b: BitmapIndex) -> None:
    if index_a.n_elements != index_b.n_elements:
        raise ValueError(
            "indices cover different element sets: "
            f"{index_a.n_elements} != {index_b.n_elements}"
        )


def _joint_counts_streaming(index_a: BitmapIndex, index_b: BitmapIndex) -> np.ndarray:
    """Compressed route: m x n run-merge count kernels, no decompression."""
    out = np.zeros((index_a.n_bins, index_b.n_bins), dtype=np.int64)
    counts_a = index_a.bin_counts()
    counts_b = index_b.bin_counts()
    nonempty_j = np.flatnonzero(counts_b)
    for i in range(index_a.n_bins):
        if counts_a[i] == 0:
            continue
        va = index_a.bitvectors[i]
        for j in nonempty_j:
            out[i, j] = and_count_streaming(va, index_b.bitvectors[j])
    return out


def joint_counts(
    index_a: BitmapIndex, index_b: BitmapIndex, *, threshold: float | None = None
) -> np.ndarray:
    """Joint histogram ``J[i, j] = popcount(A_i AND B_j)`` -- Figure 5.

    The bitmap replacement for scanning both arrays to build the joint
    value distribution, dispatched by density: when both indices compress
    well the ``m x n`` ANDs run entirely in the compressed domain
    (run-merge count kernels); otherwise
    :func:`~repro.bitmap.kernels.joint_count_matrix` ANDs only the
    nonzero groups of the memoised group matrices.  Both routes return
    identical counts.
    """
    _check_aligned(index_a, index_b)
    t = STREAMING_COUNT_RATIO_THRESHOLD if threshold is None else threshold
    if index_a.compression_ratio() <= t and index_b.compression_ratio() <= t:
        return _joint_counts_streaming(index_a, index_b)
    return joint_count_matrix(index_a.group_matrix(), index_b.group_matrix())


def shannon_entropy_bitmap(index: BitmapIndex) -> float:
    """Equation 4 from bin popcounts (the free value distribution)."""
    return shannon_entropy_from_counts(index.bin_counts())


def mutual_information_bitmap(index_a: BitmapIndex, index_b: BitmapIndex) -> float:
    """Equation 5 from the AND-derived joint distribution."""
    return mutual_information_from_joint(joint_counts(index_a, index_b))


def conditional_entropy_bitmap(index_a: BitmapIndex, index_b: BitmapIndex) -> float:
    """Equation 6, ``H(A|B)``, computed entirely from bitmaps (Figure 5)."""
    return conditional_entropy_from_joint(joint_counts(index_a, index_b))


def emd_count_bitmap(index_a: BitmapIndex, index_b: BitmapIndex) -> float:
    """Count-based EMD: per-bin popcount differences, then Equation 3.

    Requires both indices to share one binning scale (same bin count), as
    the paper requires for time-steps under comparison.
    """
    _check_aligned(index_a, index_b)
    if index_a.n_bins != index_b.n_bins:
        raise ValueError(
            f"EMD needs a shared binning scale: {index_a.n_bins} != {index_b.n_bins} bins"
        )
    return emd_from_counts(index_a.bin_counts(), index_b.bin_counts())


def spatial_bin_differences_bitmap(
    index_a: BitmapIndex, index_b: BitmapIndex, *, threshold: float | None = None
) -> np.ndarray:
    """Per-bin ``popcount(A_j XOR B_j)`` -- Figure 4's m XOR operations.

    Density-dispatched like :func:`joint_counts`: compressible index pairs
    run the m XORs as run-merge count kernels; dense pairs XOR the
    memoised group matrices row-wise.
    """
    _check_aligned(index_a, index_b)
    if index_a.n_bins != index_b.n_bins:
        raise ValueError(
            f"EMD needs a shared binning scale: {index_a.n_bins} != {index_b.n_bins} bins"
        )
    t = STREAMING_COUNT_RATIO_THRESHOLD if threshold is None else threshold
    if index_a.compression_ratio() <= t and index_b.compression_ratio() <= t:
        return np.asarray(
            [
                xor_count_streaming(va, vb)
                for va, vb in zip(index_a.bitvectors, index_b.bitvectors)
            ],
            dtype=np.int64,
        )
    xor = index_a.group_matrix() ^ index_b.group_matrix()
    return popcount_u32(xor).sum(axis=1, dtype=np.int64)


def emd_spatial_bitmap(index_a: BitmapIndex, index_b: BitmapIndex) -> float:
    """Spatial EMD from XOR popcounts (Figure 4), Equation 3 accumulation."""
    return emd_from_diffs(spatial_bin_differences_bitmap(index_a, index_b))
