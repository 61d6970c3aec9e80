"""Property tests for the sparse joint-histogram kernel.

:func:`repro.bitmap.kernels.joint_count_matrix` must equal two
references on every input:

* the per-row loop it replaced (each of A's bin rows ANDed with every
  group of B's matrix, then popcounted), kept here as the oracle;
* a full-data ``np.bincount(a_bin * n_b + b_bin)`` over the raw bin ids,
  restricted to the mask's elements.

Hypothesis draws both indices from the four binning families with
unequal bin counts and deliberately empty bins, stores each under the
WAH, Roaring or WAH64 codec, and restricts by no mask, an all-zero, an
all-one, a random or a region mask.  Element counts include 0 and the
ragged tails around one and two 31-bit groups, and tiny ``chunk_bytes``
budgets put chunk seams inside A's rows.

A second test bounds the kernel's working set under ``tracemalloc``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.queries import restricted_joint_counts
from repro.bitmap.binning import (
    DistinctValueBinning,
    EqualWidthBinning,
    ExplicitBinning,
    PrecisionBinning,
)
from repro.bitmap.index import BitmapIndex
from repro.bitmap.kernels import KWAY_CHUNK_BYTES, joint_count_matrix
from repro.bitmap.wah import WAHBitVector
from repro.metrics import joint_counts
from repro.util.bits import GROUP_BITS, pack_bits_to_groups, popcount_u32

CODECS = ("wah", "roaring", "wah64")
MASKS = ("none", "zeros", "ones", "random", "region")
SIZES = (0, 1, 30, 31, 32, 62, 63, 200, 997)


def row_loop_joint(ga, gb, mask=None):
    """The dense loop the kernel replaced: every A row against all of B."""
    if mask is not None:
        ga = ga & mask
    out = np.empty((ga.shape[0], gb.shape[0]), dtype=np.int64)
    for i in range(ga.shape[0]):
        out[i, :] = popcount_u32(ga[i][None, :] & gb).sum(axis=1, dtype=np.int64)
    return out


def bincount_joint(a_bin, b_bin, n_a, n_b, keep):
    """Full-data reference: the joint histogram of the raw bin ids."""
    flat = a_bin[keep].astype(np.int64) * n_b + b_bin[keep]
    return np.bincount(flat, minlength=n_a * n_b).reshape(n_a, n_b)


def _variable(draw, rng, n):
    """One variable's data and binning; some bins are always empty."""
    kind = draw(st.sampled_from(("equal", "precision", "explicit", "distinct")))
    if kind == "equal":
        binning = EqualWidthBinning(-5.0, 5.0, draw(st.integers(2, 20)))
        data = rng.uniform(-5.0, 1.0, n)  # bins above 1.0 stay empty
    elif kind == "precision":
        binning = PrecisionBinning(10.0, 12.0, digits=draw(st.integers(0, 1)))
        data = rng.uniform(10.0, 11.0, n)
    elif kind == "explicit":
        binning = ExplicitBinning(np.linspace(-1.0, 1.0, draw(st.integers(3, 12))))
        data = rng.uniform(-1.0, 0.2, n)
    else:
        values = np.arange(draw(st.integers(2, 9)), dtype=float)
        binning = DistinctValueBinning(values)
        data = rng.choice(values[:-1], n)  # the largest value never occurs
    return data, binning


@st.composite
def joint_cases(draw):
    n = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data_a, binning_a = _variable(draw, rng, n)
    data_b, binning_b = _variable(draw, rng, n)
    ia = BitmapIndex.build(data_a, binning_a, codec=draw(st.sampled_from(CODECS)))
    ib = BitmapIndex.build(data_b, binning_b, codec=draw(st.sampled_from(CODECS)))
    style = draw(st.sampled_from(MASKS))
    if style == "zeros":
        keep = np.zeros(n, dtype=bool)
    elif style == "random":
        keep = rng.random(n) < rng.uniform(0.1, 0.9)
    elif style == "region":
        lo = int(rng.integers(0, max(1, n)))
        keep = np.zeros(n, dtype=bool)
        keep[lo : int(rng.integers(lo, n + 1))] = True
    else:
        keep = np.ones(n, dtype=bool)
    mask = None if style == "none" else WAHBitVector.from_bools(keep)
    # 4 * n_b bytes is a one-pair chunk: every pair sits on a seam.
    chunk_bytes = draw(
        st.sampled_from((KWAY_CHUNK_BYTES, 4 * ib.n_bins, 4 * ib.n_bins * 7, 999))
    )
    return {
        "ia": ia,
        "ib": ib,
        "a_bin": binning_a.assign(data_a),
        "b_bin": binning_b.assign(data_b),
        "keep": keep,
        "mask": mask,
        "chunk_bytes": chunk_bytes,
    }


@settings(max_examples=250, deadline=None)
@given(case=joint_cases())
def test_kernel_matches_row_loop_and_bincount(case):
    ia, ib, mask = case["ia"], case["ib"], case["mask"]
    ga, gb = ia.group_matrix(), ib.group_matrix()
    mg = None if mask is None else mask.to_groups()
    got = joint_count_matrix(ga, gb, mg, chunk_bytes=case["chunk_bytes"])
    assert got.dtype == np.int64
    assert got.shape == (ia.n_bins, ib.n_bins)
    assert np.array_equal(got, row_loop_joint(ga, gb, mg))
    full = bincount_joint(
        case["a_bin"], case["b_bin"], ia.n_bins, ib.n_bins, case["keep"]
    )
    assert np.array_equal(got, full)
    # The public routes that call the kernel agree with it.
    if mask is not None:
        assert np.array_equal(restricted_joint_counts(ia, ib, mask), full)
    else:
        assert np.array_equal(joint_counts(ia, ib, threshold=0.0), full)


def test_shape_mismatch_rejected():
    ga = np.zeros((3, 5), dtype=np.uint32)
    with pytest.raises(ValueError, match="group counts"):
        joint_count_matrix(ga, np.zeros((2, 4), dtype=np.uint32))
    with pytest.raises(ValueError, match="group counts"):
        joint_count_matrix(ga, ga, np.zeros(4, dtype=np.uint32))


def test_empty_operand_matrices():
    no_groups = joint_count_matrix(
        np.zeros((3, 0), dtype=np.uint32), np.zeros((2, 0), dtype=np.uint32)
    )
    assert np.array_equal(no_groups, np.zeros((3, 2), dtype=np.int64))
    ga = np.full((3, 4), 7, dtype=np.uint32)
    assert joint_count_matrix(ga, np.zeros((0, 4), dtype=np.uint32)).shape == (3, 0)


# ------------------------------------------------------- bounded working set
N_BINS = 64
N_GROUPS = 30_000


@pytest.fixture(scope="module")
def incompressible():
    """A 64-bin index over uniform random bin ids (~39% of each bin's
    groups are nonzero), as group matrices for two variables."""
    rng = np.random.default_rng(5)
    n = N_GROUPS * GROUP_BITS

    def matrix():
        ids = rng.integers(0, N_BINS, n)
        return np.stack([pack_bits_to_groups(ids == b) for b in range(N_BINS)])

    return matrix(), matrix()


@pytest.mark.parametrize("chunk_bytes", [KWAY_CHUNK_BYTES, 1 << 20])
def test_working_set_bounded_by_chunk(incompressible, chunk_bytes):
    """Peak allocation is A's nonzero index (8 bytes a pair, found via a
    one-byte-a-group mask) plus one chunk budget plus the output -- far
    below the ``n_b x nnz(A)`` words an unchunked gather would take."""
    ga, gb = incompressible
    nnz = int(np.count_nonzero(ga))
    out_bytes = N_BINS * N_BINS * 8
    unchunked = N_BINS * nnz * 4
    bound = 8 * nnz + ga.size + chunk_bytes + 2 * out_bytes + (1 << 20)
    assert unchunked > 4 * bound  # the bound actually separates the two
    tracemalloc.start()
    try:
        got = joint_count_matrix(ga, gb, chunk_bytes=chunk_bytes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak} B over bound {bound} B"
    assert got.sum() == N_GROUPS * GROUP_BITS
