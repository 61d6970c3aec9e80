"""Fused k-way kernels over WAH bitvectors -- the multi-operand hot tier.

The pairwise kernels of :mod:`repro.bitmap.ops` force every multi-operand
combination (OR-ing the bins of a range predicate, AND-ing per-variable
masks, rolling a level up by fanout) through a Python ``reduce`` that
materialises k - 1 intermediate WAH vectors and decodes each of them
again for the next step.  This module fuses those folds:

* :func:`logical_op_many` / :func:`op_count_many` -- the **dense path**:
  each operand is decoded exactly once into a stacked ``(k, chunk)``
  group matrix and reduced with a single ``np.bitwise_or.reduce`` /
  ``bitwise_and.reduce`` / ``bitwise_xor.reduce`` sweep.  The sweep is
  chunked along the group axis so peak extra memory is bounded by
  :data:`KWAY_CHUNK_BYTES` regardless of k or vector length; only the
  single result group array (for the materialising form) spans the full
  length.

* :func:`logical_op_runmerge_many` / :func:`op_count_runmerge_many` --
  the **compressed path**: a multi-cursor run merge.  Every operand's
  memoised run decode (:meth:`~repro.bitmap.wah.WAHBitVector.runs`)
  contributes its boundaries to one sorted union; ``searchsorted``
  advances all k cursors at once, yielding a ``(k, segments)`` value
  matrix that the same ufunc reduce collapses.  A fill x ... x fill
  span contributes O(1) work however many groups it covers, so cost is
  O(sum of runs), never O(k x groups).

* :func:`logical_accumulate` -- the prefix-scan sibling (cumulative
  OR/AND/XOR), feeding :class:`~repro.bitmap.range_index.RangeBitmapIndex`
  construction: one decode per operand, one ``ufunc.accumulate`` sweep
  per chunk, per-chunk recompression stitched with the seam-merging
  concatenator.

* :func:`stack_groups` -- the shared decode-once helper behind
  :meth:`~repro.bitmap.index.BitmapIndex.group_matrix` (rows written
  straight into one preallocated matrix).

* :func:`joint_count_matrix` -- the dense m x n joint histogram
  ``popcount(A_i AND B_j)`` behind the metrics, analysis and mining
  layers, gathering only A's nonzero groups.

:func:`auto_op_many` / :func:`auto_count_many` dispatch between the two
paths with :func:`~repro.bitmap.ops.prefers_runmerge` -- the same
compression-ratio rule the pairwise dispatchers use, with thresholds
recalibrated for hardware popcount and k-way fusion by
``benchmarks/bench_kernel_dispatch.py`` (see DESIGN.md, "Kernel dispatch
policy").

All k-way paths are bit-identical to the pairwise left fold
``reduce(lambda x, y: op(x, y), vectors)`` (property-tested across the
binning families), so dispatch remains purely a performance decision.
The non-associative ``andnot`` keeps left-fold semantics:
``reduce(andnot, [a, b, c]) == a AND NOT (b OR c)``, which is how both
paths evaluate it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bitmap.ops import prefers_runmerge
from repro.bitmap.wah import WAHBitVector, compress_groups, compress_runs
from repro.util.bits import (
    GROUP_BITS,
    GROUP_FULL,
    HAS_HARDWARE_POPCOUNT,
    groups_needed,
    last_group_mask,
    popcount_total,
    popcount_u32,
)

#: Peak bytes the chunked dense sweeps may hold in stacked group form.
#: 8 MiB keeps the working set inside typical L2+L3 while amortising
#: numpy call overhead; the chunk width adapts to the operand count so
#: ``k * chunk_groups * 4`` never exceeds this bound.
KWAY_CHUNK_BYTES = 8 << 20

#: Compression-ratio threshold at or below which *every* operand must sit
#: for the k-way dispatchers to take the multi-cursor run merge.  Far
#: below the pairwise thresholds (0.05): the fused dense sweep costs one
#: hardware-rate pass per operand, while the merge pays an O(sum of runs
#: x log) boundary-union sort that grows with k -- at k = 8 the measured
#: crossover sits near ratio 0.01 (``benchmarks/bench_kernel_dispatch.py``,
#: k-way table; DESIGN.md "Kernel dispatch policy").
KWAY_RUNMERGE_RATIO_THRESHOLD = 0.01

#: Ufuncs whose ``reduce``/``accumulate`` implement the associative ops.
_UFUNCS = {
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}


def _coerce_wah_many(vectors: Sequence) -> Sequence[WAHBitVector]:
    """Convert a possibly-mixed-codec operand list to the WAH word domain.

    The k-way merge boundary of the codec layer
    (:mod:`repro.bitmap.codec`): all-WAH inputs pass through untouched;
    any other codec's vectors are re-encoded as WAH so every fused fold
    produces words independent of how the operands were stored.
    """
    if all(type(v) is WAHBitVector for v in vectors):
        return vectors
    from repro.bitmap.codec import as_wah_all

    return as_wah_all(vectors)


def _check_many(vectors: Sequence[WAHBitVector], op: str) -> None:
    if op not in _UFUNCS and op != "andnot":
        raise ValueError(
            f"unknown op {op!r}; expected one of {sorted(_UFUNCS) + ['andnot']}"
        )
    if not vectors:
        raise ValueError("need at least one operand")
    n_bits = vectors[0].n_bits
    for v in vectors[1:]:
        if v.n_bits != n_bits:
            raise ValueError(
                f"operand length mismatch: {v.n_bits} != {n_bits} bits"
            )


def _chunk_groups_for(k: int, chunk_bytes: int) -> int:
    """Chunk width (in groups) bounding the stacked matrix to chunk_bytes."""
    return max(1, chunk_bytes // (4 * max(1, k)))


def _expand_slice(vec: WAHBitVector, lo: int, hi: int, out: np.ndarray) -> None:
    """Decode groups ``[lo, hi)`` of ``vec`` into ``out`` (length hi-lo).

    Works from the memoised run decode, so a chunked sweep still touches
    each compressed word O(1) times across the whole vector.
    """
    ends, vals = vec.runs()
    i0 = int(np.searchsorted(ends, lo, side="right"))
    i1 = int(np.searchsorted(ends, hi, side="left")) + 1
    sub_ends = np.minimum(ends[i0:i1], hi)
    sub_starts = np.empty(i1 - i0, dtype=np.int64)
    sub_starts[0] = lo
    np.maximum(ends[i0 : i1 - 1], lo, out=sub_starts[1:])
    out[:] = np.repeat(vals[i0:i1], sub_ends - sub_starts)


def stack_groups(
    vectors: Sequence[WAHBitVector],
    n_bits: int | None = None,
    *,
    mask_padding: bool = True,
) -> np.ndarray:
    """Decode each vector once into a ``(k, n_groups)`` uint32 matrix.

    The rows are written straight into one preallocated matrix (no
    intermediate list-of-rows + ``vstack`` copy).  With ``mask_padding``
    the final column is masked to the valid bits of ``n_bits`` --
    callers treating the matrix as a shared working set (the analysis
    layers) want that; the fused sweeps skip it because zero padding is
    already invariant under every supported op.
    """
    if not vectors:
        return np.empty((0, 0), dtype=np.uint32)
    vectors = _coerce_wah_many(vectors)
    if n_bits is None:
        n_bits = vectors[0].n_bits
    n_groups = groups_needed(n_bits)
    out = np.empty((len(vectors), n_groups), dtype=np.uint32)
    for i, v in enumerate(vectors):
        if v.n_bits != n_bits:
            raise ValueError(
                f"operand length mismatch: {v.n_bits} != {n_bits} bits"
            )
        if n_groups:
            _expand_slice(v, 0, n_groups, out[i])
    if mask_padding and out.size and n_bits:
        out[:, -1] &= last_group_mask(n_bits)
    return out


def joint_count_matrix(
    ga: np.ndarray,
    gb: np.ndarray,
    mask: np.ndarray | None = None,
    *,
    chunk_bytes: int = KWAY_CHUNK_BYTES,
) -> np.ndarray:
    """``J[i, j] = popcount(ga[i] AND gb[j] AND mask)`` as an int64 matrix.

    ``ga`` / ``gb`` are ``(n_bins, n_groups)`` group matrices, ``mask`` an
    optional group array.  A bin row is zero in most groups, so only A's
    nonzero ``(row, group)`` pairs are visited (Roaring's "intersect only
    where both operands are nonzero"): they gather their B columns, AND,
    popcount in place, and one ``np.add.reduceat`` sums each A row.  The
    gathered ``n_b x pairs`` block is chunked to ``chunk_bytes``, so
    extra memory is 8 bytes per nonzero pair plus about ``chunk_bytes``.
    """
    if ga.shape[1:] != gb.shape[1:] or (
        mask is not None and mask.shape != ga.shape[1:]
    ):
        raise ValueError("group matrices and mask cover different group counts")
    out = np.zeros((ga.shape[0], gb.shape[0]), dtype=np.int64)
    flat = np.flatnonzero(ga != 0)
    words = ga.ravel()
    chunk = _chunk_groups_for(gb.shape[0], chunk_bytes)
    for lo in range(0, flat.size, chunk):
        pos = flat[lo : lo + chunk]
        rows, cols = np.divmod(pos, ga.shape[1])
        vals = words[pos]
        if mask is not None:
            vals &= mask[cols]
            keep = np.flatnonzero(vals)
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        block = gb[:, cols]
        block &= vals
        if HAS_HARDWARE_POPCOUNT:
            np.bitwise_count(block, out=block)
        else:
            block = popcount_u32(block)
        # uint32 row sums: a chunk holds under 2**32 / 31 words.
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        out[rows[starts]] += np.add.reduceat(
            block, starts, axis=1, dtype=np.uint32
        ).T
        del block  # never hold two chunks' blocks at once
    return out


def _reduce_rows(mat: np.ndarray, op: str) -> np.ndarray:
    """Fold ``op`` across axis 0 of a ``(k, m)`` group matrix.

    Left-fold semantics throughout; ``andnot`` folds as
    ``row0 AND NOT (row1 OR ... OR rowk-1)``.
    """
    if op == "andnot":
        if mat.shape[0] == 1:
            return mat[0].copy()
        rest = np.bitwise_or.reduce(mat[1:], axis=0)
        return mat[0] & (rest ^ GROUP_FULL)
    return _UFUNCS[op].reduce(mat, axis=0)


# --------------------------------------------------------------- dense path
def logical_op_many(
    vectors: Sequence[WAHBitVector],
    op: str,
    *,
    chunk_bytes: int = KWAY_CHUNK_BYTES,
) -> WAHBitVector:
    """Fused ``op`` over k operands, decoding each exactly once.

    Equivalent to the pairwise left fold ``reduce(logical_op, vectors)``
    (bit-identical, property-tested) but with one decode per operand and
    one ufunc reduce instead of k - 1 intermediate WAH materialisations.
    Peak extra memory is ``min(k * n_groups, chunk_bytes / 4)`` stacked
    words plus the single result group array.
    """
    _check_many(vectors, op)
    n_bits = vectors[0].n_bits
    n_groups = groups_needed(n_bits)
    if n_groups == 0:
        return WAHBitVector(np.empty(0, dtype=np.uint32), n_bits)
    k = len(vectors)
    if k == 1:
        return vectors[0]
    result = np.empty(n_groups, dtype=np.uint32)
    chunk = _chunk_groups_for(k, chunk_bytes)
    buf = np.empty((k, min(chunk, n_groups)), dtype=np.uint32)
    for lo in range(0, n_groups, chunk):
        hi = min(lo + chunk, n_groups)
        mat = buf[:, : hi - lo]
        for i, v in enumerate(vectors):
            _expand_slice(v, lo, hi, mat[i])
        result[lo:hi] = _reduce_rows(mat, op)
    # Padding bits stay zero for every supported op (all operands keep
    # padding zero; andnot complements only non-leading operands, which
    # the first operand's zero padding masks off) -- no final mask needed.
    return WAHBitVector(compress_groups(result), n_bits)


def op_count_many(
    vectors: Sequence[WAHBitVector],
    op: str,
    *,
    chunk_bytes: int = KWAY_CHUNK_BYTES,
) -> int:
    """``popcount(op(v1, ..., vk))`` without materialising any result.

    The count-only sibling of :func:`logical_op_many`: the reduced chunk
    goes straight to the hardware popcount, so no full-length array of
    any kind is allocated.
    """
    _check_many(vectors, op)
    n_bits = vectors[0].n_bits
    n_groups = groups_needed(n_bits)
    if n_groups == 0:
        return 0
    k = len(vectors)
    if k == 1:
        return vectors[0].count()
    total = 0
    chunk = _chunk_groups_for(k, chunk_bytes)
    buf = np.empty((k, min(chunk, n_groups)), dtype=np.uint32)
    for lo in range(0, n_groups, chunk):
        hi = min(lo + chunk, n_groups)
        mat = buf[:, : hi - lo]
        for i, v in enumerate(vectors):
            _expand_slice(v, lo, hi, mat[i])
        total += popcount_total(_reduce_rows(mat, op))
    return total


# ---------------------------------------------------------- compressed path
def _merged_segments_many(
    vectors: Sequence[WAHBitVector],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Multi-cursor run merge: aligned segments across all k operands.

    Returns ``(seg, vals)`` where segment ``j`` covers ``seg[j]`` groups
    over which operand ``i`` uniformly holds group value ``vals[i, j]``
    (or ``None`` for empty vectors).  The boundary union is one sorted
    ``np.unique`` over every operand's run ends; each operand's covering
    run per segment is a vectorised ``searchsorted`` into its own run
    decode -- the k-cursor generalisation of the pairwise packed-key
    merge, O(sum of runs x log k) with no Python-level cursor stepping.

    Any segment longer than one group is fill-only in *every* operand
    (literal runs span exactly one group and their single boundary would
    have split it), so multi-group segments always reduce to a fillable
    value -- the invariant :func:`~repro.bitmap.wah.compress_runs` needs.
    """
    runs = [v.runs() for v in vectors]
    if any(ends.size == 0 for ends, _ in runs):
        if not all(ends.size == 0 for ends, _ in runs):
            raise AssertionError("operand word streams encode different lengths")
        return None
    total = runs[0][0][-1]
    for ends, _ in runs[1:]:
        if ends[-1] != total:
            raise AssertionError("operand word streams encode different lengths")
    bounds = np.unique(np.concatenate([ends for ends, _ in runs]))
    seg = np.diff(bounds, prepend=0)
    vals = np.empty((len(vectors), bounds.size), dtype=np.uint32)
    for i, (ends, run_vals) in enumerate(runs):
        # The run covering groups (bounds[j-1], bounds[j]] is the first
        # run whose end offset is >= bounds[j].
        vals[i] = run_vals[np.searchsorted(ends, bounds, side="left")]
    return seg, vals


def op_count_runmerge_many(vectors: Sequence[WAHBitVector], op: str) -> int:
    """``popcount(op(v1, ..., vk))`` computed on the compressed streams.

    Each merged segment contributes ``popcount(fold) * segment_groups``;
    nothing is expanded to the group domain, so a billion-bit fill costs
    the same as one literal in every operand.
    """
    _check_many(vectors, op)
    if len(vectors) == 1:
        return vectors[0].count()
    merged = _merged_segments_many(vectors)
    if merged is None:
        return 0
    seg, vals = merged
    out = _reduce_rows(vals, op)
    nz = np.flatnonzero(out)
    if nz.size == 0:
        return 0
    return int((popcount_u32(out[nz]).astype(np.int64) * seg[nz]).sum())


def logical_op_runmerge_many(
    vectors: Sequence[WAHBitVector], op: str
) -> WAHBitVector:
    """Fused ``op`` over k operands without leaving the compressed domain.

    The materialising sibling of :func:`op_count_runmerge_many`: merged
    segment values re-encode straight from run-length form, so cost is
    O(sum of runs), not O(k x groups).
    """
    _check_many(vectors, op)
    if len(vectors) == 1:
        return vectors[0]
    merged = _merged_segments_many(vectors)
    if merged is None:
        return WAHBitVector(np.empty(0, dtype=np.uint32), vectors[0].n_bits)
    seg, vals = merged
    return WAHBitVector(
        compress_runs(_reduce_rows(vals, op), seg), vectors[0].n_bits
    )


# -------------------------------------------------------------- prefix scan
def logical_accumulate(
    vectors: Sequence[WAHBitVector],
    op: str = "or",
    *,
    chunk_bytes: int = KWAY_CHUNK_BYTES,
) -> list[WAHBitVector]:
    """All k prefix folds ``op(v1), op(v1, v2), ..., op(v1, ..., vk)``.

    The fused form of the one-at-a-time accumulation loop (cumulative OR
    is how a range-encoded index is rolled up from an equality-encoded
    one): each operand decodes once per chunk, one ``ufunc.accumulate``
    sweep produces every prefix simultaneously, and per-chunk
    recompressions stitch seam-merged via
    :func:`~repro.bitmap.builder.concatenate_bitvectors` -- bit-identical
    to the pairwise loop (property-tested).  ``andnot`` is not a ufunc
    accumulate; the three associative ops are supported.
    """
    if op not in _UFUNCS:
        raise ValueError(f"unknown accumulate op {op!r}; expected one of {sorted(_UFUNCS)}")
    _check_many(vectors, op)
    from repro.bitmap.builder import concatenate_bitvectors

    n_bits = vectors[0].n_bits
    n_groups = groups_needed(n_bits)
    k = len(vectors)
    if n_groups == 0:
        return [WAHBitVector(np.empty(0, dtype=np.uint32), n_bits) for _ in vectors]
    if k == 1:
        return [vectors[0]]
    chunk = _chunk_groups_for(k, chunk_bytes)
    pieces: list[list[WAHBitVector]] = [[] for _ in range(k)]
    buf = np.empty((k, min(chunk, n_groups)), dtype=np.uint32)
    ufunc = _UFUNCS[op]
    for lo in range(0, n_groups, chunk):
        hi = min(lo + chunk, n_groups)
        mat = buf[:, : hi - lo]
        for i, v in enumerate(vectors):
            _expand_slice(v, lo, hi, mat[i])
        ufunc.accumulate(mat, axis=0, out=mat)
        piece_bits = (
            (hi - lo) * GROUP_BITS
            if hi < n_groups
            else n_bits - lo * GROUP_BITS
        )
        for i in range(k):
            pieces[i].append(
                WAHBitVector(compress_groups(mat[i]), piece_bits)
            )
    return [
        parts[0] if len(parts) == 1 else concatenate_bitvectors(parts)
        for parts in pieces
    ]


# ------------------------------------------------------- density dispatchers
def auto_op_many(
    vectors: Sequence[WAHBitVector],
    op: str,
    *,
    threshold: float | None = None,
) -> WAHBitVector:
    """Fused k-way ``op`` routed by operand density (any codec).

    When *every* operand compresses to at or below
    :data:`KWAY_RUNMERGE_RATIO_THRESHOLD` the multi-cursor run merge
    wins; otherwise the chunked dense sweep runs.  Bit-identical either
    way (property-tested), so dispatch is purely a performance decision.
    Non-WAH operands convert at this merge boundary, so the result words
    never depend on the storage codec.
    """
    vectors = _coerce_wah_many(vectors)
    t = KWAY_RUNMERGE_RATIO_THRESHOLD if threshold is None else threshold
    if prefers_runmerge(vectors, t):
        return logical_op_runmerge_many(vectors, op)
    return logical_op_many(vectors, op)


def auto_count_many(
    vectors: Sequence[WAHBitVector],
    op: str = "and",
    *,
    threshold: float | None = None,
) -> int:
    """``popcount`` of the fused k-way ``op``, routed by operand density
    (any codec; non-WAH operands convert at this merge boundary)."""
    vectors = _coerce_wah_many(vectors)
    t = KWAY_RUNMERGE_RATIO_THRESHOLD if threshold is None else threshold
    if prefers_runmerge(vectors, t):
        return op_count_runmerge_many(vectors, op)
    return op_count_many(vectors, op)
