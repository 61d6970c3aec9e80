"""Micro-benchmarks of the compressed bitwise kernels (§3.2's fast ops).

Ablations:

* fast (group-expansion) vs streaming (word-merge) logical ops;
* compressed AND+popcount vs the equivalent numpy boolean kernel on the
  decompressed data (what "hardware-supported bitwise ops" buys);
* count-only kernels vs materialising the result vector;
* compressed-domain (run-merge) count kernels vs decompress-then-popcount
  on well-compressed operands -- the dispatcher's streaming regime;
* fused k-way reduction (``logical_op_many``) vs a pairwise
  ``reduce(logical_or, ...)`` fold on executor-shaped multi-bin
  operands -- what the kernels tier buys the range-query hot path;
* the sparse joint-histogram kernel (``joint_count_matrix``) vs the
  dense per-row loop it replaced, on one ``serve_hot``-shaped rank slab
  (73,728 Ocean elements, 64 bins a variable) for an MI and a CE-WHERE
  query -- the MI/CE rank partial.

Run as a script (``python bench_kernels.py [--smoke]``) to sweep the
k-way section over k in {2, 4, 8, 16} and time the joint section.  A
full run asserts the fused kernel's >= 2x win at k >= 8 and the joint
kernel's >= 2x win over the row loop, then writes
``results/kernels_kway.txt``, ``results/kernels_joint.txt`` and the
machine-readable ``results/BENCH_kernels.json`` (with a host block).
``--smoke`` uses small inputs, checks parity only, and writes to a fresh
temporary directory, never over the committed results.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from functools import reduce
from pathlib import Path

import numpy as np

import pytest

from repro.analysis.queries import restricted_joint_counts
from repro.bitmap import BitmapIndex, EqualWidthBinning, WAHBitVector
from repro.bitmap.kernels import (
    KWAY_RUNMERGE_RATIO_THRESHOLD,
    auto_count_many,
    joint_count_matrix,
    logical_op_many,
    op_count_many,
)
from repro.bitmap.ops import (
    and_count,
    and_count_streaming,
    auto_count,
    logical_and,
    logical_op_streaming,
    logical_or,
    logical_xor,
    or_count,
    xor_count,
    xor_count_streaming,
)
from repro.sims import OceanDataGenerator
from repro.util.bits import HAS_HARDWARE_POPCOUNT, popcount_u32

sys.path.insert(0, str(Path(__file__).parent))
from _tables import RESULTS_DIR, format_table, save_table

N = 31 * 40_000  # 1.24M bits

#: Average run length (bits) of the sparse fixture; long runs push the
#: compression ratio into the dispatcher's streaming regime (<= 0.1).
SPARSE_RUN = 620


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(1)
    # Run-structured bits, the regime WAH is built for.
    a = np.repeat(rng.random(N // 200) < 0.3, 200)[:N]
    b = np.repeat(rng.random(N // 150) < 0.3, 150)[:N]
    a, b = np.resize(a, N), np.resize(b, N)
    return a, b, WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)


@pytest.fixture(scope="module")
def dense_vectors():
    rng = np.random.default_rng(3)
    # Unstructured bits: nearly every word is a literal (ratio ~1.0), the
    # regime where the dispatcher must stay on the group kernel.
    a = rng.random(N) < 0.5
    b = rng.random(N) < 0.5
    va, vb = WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)
    assert va.compression_ratio() > 0.9 and vb.compression_ratio() > 0.9
    return a, b, va, vb


@pytest.fixture(scope="module")
def sparse_vectors():
    rng = np.random.default_rng(7)
    a = np.resize(np.repeat(rng.random(N // SPARSE_RUN + 1) < 0.3, SPARSE_RUN), N)
    b = np.resize(np.repeat(rng.random(N // SPARSE_RUN + 1) < 0.3, SPARSE_RUN), N)
    va, vb = WAHBitVector.from_bools(a), WAHBitVector.from_bools(b)
    # The acceptance regime: both operands compress to <= 0.1 words/group.
    assert va.compression_ratio() <= 0.1 and vb.compression_ratio() <= 0.1
    va.runs(), vb.runs()  # warm the memoised run decode (steady state)
    return a, b, va, vb


def test_kernel_and_fast(benchmark, vectors):
    _, _, va, vb = vectors
    benchmark(lambda: logical_and(va, vb))


def test_kernel_and_streaming(benchmark, vectors):
    _, _, va, vb = vectors
    out = benchmark(lambda: logical_op_streaming(va, vb, "and"))
    assert out == logical_and(va, vb)


def test_kernel_and_count_only(benchmark, vectors):
    a, b, va, vb = vectors
    count = benchmark(lambda: and_count(va, vb))
    assert count == int((a & b).sum())


def test_kernel_xor_count_only(benchmark, vectors):
    a, b, va, vb = vectors
    count = benchmark(lambda: xor_count(va, vb))
    assert count == int((a ^ b).sum())


def test_kernel_numpy_bool_baseline(benchmark, vectors):
    a, b, _, _ = vectors
    benchmark(lambda: int((a & b).sum()))


def test_kernel_xor_materialised(benchmark, vectors):
    _, _, va, vb = vectors
    benchmark(lambda: logical_xor(va, vb).count())


def test_kernel_and_count_streaming_sparse(benchmark, sparse_vectors):
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: and_count_streaming(va, vb))
    assert count == int((a & b).sum())


def test_kernel_and_count_dense_sparse(benchmark, sparse_vectors):
    """Decompress-then-popcount on the same sparse operands (the loser)."""
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: and_count(va, vb))
    assert count == int((a & b).sum())


def test_kernel_xor_count_streaming_sparse(benchmark, sparse_vectors):
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: xor_count_streaming(va, vb))
    assert count == int((a ^ b).sum())


def test_kernel_xor_count_dense_sparse(benchmark, sparse_vectors):
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: xor_count(va, vb))
    assert count == int((a ^ b).sum())


def test_kernel_auto_count_sparse(benchmark, sparse_vectors):
    """Dispatcher overhead on the streaming route (two ratio reads)."""
    a, b, va, vb = sparse_vectors
    count = benchmark(lambda: auto_count(va, vb, "and"))
    assert count == int((a & b).sum())


def test_kernel_auto_count_dense(benchmark, dense_vectors):
    """Dispatcher on dense operands must not regress the group kernel."""
    a, b, va, vb = dense_vectors
    count = benchmark(lambda: auto_count(va, vb, "and"))
    assert count == int((a & b).sum())


def test_kernel_and_count_dense_baseline(benchmark, dense_vectors):
    """The undispatched group kernel on the same dense operands."""
    a, b, va, vb = dense_vectors
    count = benchmark(lambda: and_count(va, vb))
    assert count == int((a & b).sum())


def test_kernel_popcount(benchmark, vectors):
    _, _, va, _ = vectors
    benchmark(va.count)


def test_kernel_compression(benchmark, vectors):
    a, _, _, _ = vectors
    benchmark(lambda: WAHBitVector.from_bools(a))


def test_kernel_decompression(benchmark, vectors):
    _, _, va, _ = vectors
    benchmark(va.to_bools)


# --------------------------------------------------------------------------
# Fused k-way reduction vs pairwise fold (the executor's range-query path)
# --------------------------------------------------------------------------

#: Operand counts for the k-way sweep; 8 and 16 are the executor's
#: typical multi-bin range widths, 2 isolates the fusion overhead.
KWAY_SWEEP = [2, 4, 8, 16]


def range_query_operands(k: int, n_bits: int = N) -> list[WAHBitVector]:
    """``k`` adjacent bins of an equal-width index over gaussian data.

    This is exactly what the executor's ``_resolve_range`` hands to the
    OR reduction: disjoint bin bitvectors whose density tracks the value
    histogram.  Run decodes are pre-warmed (steady-state serving).
    """
    rng = np.random.default_rng(31 * k + 5)
    values = np.clip(rng.normal(0.0, 1.0, n_bits), -4.0, 4.0)
    index = BitmapIndex.build(values, EqualWidthBinning(-4.0, 4.0, 32))
    lo = (len(index.bitvectors) - k) // 2  # central (densest) bins
    vecs = list(index.bitvectors[lo : lo + k])
    for v in vecs:
        v.runs()
    return vecs


def pairwise_or_reduce(vectors: list[WAHBitVector]) -> WAHBitVector:
    """The pre-kernels executor path: a left fold of pairwise ORs."""
    return reduce(logical_or, vectors)


def pairwise_or_count(vectors: list[WAHBitVector]) -> int:
    if len(vectors) == 1:
        return vectors[0].count()
    folded = reduce(logical_or, vectors[:-1])
    return or_count(folded, vectors[-1])


@pytest.fixture(scope="module")
def kway_operands():
    return range_query_operands(8)


def test_kernel_kway_fused_or(benchmark, kway_operands):
    out = benchmark(lambda: logical_op_many(kway_operands, "or"))
    assert out == pairwise_or_reduce(kway_operands)


def test_kernel_kway_pairwise_or(benchmark, kway_operands):
    """The pairwise fold the fused kernel replaced (the loser at k=8)."""
    benchmark(lambda: pairwise_or_reduce(kway_operands))


def test_kernel_kway_fused_count(benchmark, kway_operands):
    count = benchmark(lambda: op_count_many(kway_operands, "or"))
    assert count == pairwise_or_reduce(kway_operands).count()
    assert count == auto_count_many(kway_operands, "or")


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_kway_sweep(smoke: bool, out_dir: Path) -> dict:
    """Sweep fused vs pairwise OR over k; return the JSON-able record."""
    n_bits = 31 * 4_000 if smoke else N
    repeats = 3 if smoke else 15
    rows: list[list[object]] = []
    record: list[dict] = []
    for k in KWAY_SWEEP:
        vecs = range_query_operands(k, n_bits)
        fused = logical_op_many(vecs, "or")
        folded = pairwise_or_reduce(vecs)
        assert fused == folded, f"k-way OR diverged from pairwise at k={k}"
        assert op_count_many(vecs, "or") == folded.count()
        t_pair = _best_seconds(lambda: pairwise_or_reduce(vecs), repeats)
        t_fused = _best_seconds(lambda: logical_op_many(vecs, "or"), repeats)
        t_pair_count = _best_seconds(lambda: pairwise_or_count(vecs), repeats)
        t_fused_count = _best_seconds(lambda: op_count_many(vecs, "or"), repeats)
        op_speedup = t_pair / t_fused
        count_speedup = t_pair_count / t_fused_count
        ratio = max(v.compression_ratio() for v in vecs)
        rows.append(
            [
                k,
                ratio,
                t_pair * 1e6,
                t_fused * 1e6,
                op_speedup,
                count_speedup,
            ]
        )
        record.append(
            {
                "k": k,
                "max_compression_ratio": round(ratio, 4),
                "pairwise_or_us": round(t_pair * 1e6, 1),
                "fused_or_us": round(t_fused * 1e6, 1),
                "or_speedup": round(op_speedup, 2),
                "pairwise_count_us": round(t_pair_count * 1e6, 1),
                "fused_count_us": round(t_fused_count * 1e6, 1),
                "count_speedup": round(count_speedup, 2),
            }
        )
    table = format_table(
        f"Fused k-way OR vs pairwise fold (N={n_bits} bits, equal-width "
        f"range-query operands{', SMOKE' if smoke else ''})",
        ["k", "ratio", "pairwise_us", "fused_us", "or_speedup", "count_speedup"],
        rows,
    )
    save_table("kernels_kway", table, out_dir)
    if not smoke:
        losers = {r["k"]: r["or_speedup"] for r in record if r["k"] >= 8}
        assert all(s >= 2.0 for s in losers.values()), (
            f"fused k-way OR under 2x vs pairwise fold at k >= 8: {losers}"
        )
    return {
        "n_bits": n_bits,
        "kway_runmerge_ratio_threshold": KWAY_RUNMERGE_RATIO_THRESHOLD,
        "kway": record,
    }


# --------------------------------------------------------------------------
# Sparse joint-histogram kernel vs the dense per-row loop (MI/CE partials)
# --------------------------------------------------------------------------

#: One ``serve_hot`` rank slab: the top quarter of an Ocean (16, 96, 192)
#: field's depth levels -- 73,728 elements -- at 64 equal-width bins.
JOINT_SHAPE = (16, 96, 192)
JOINT_RANKS = 4
JOINT_BINS = 64


def rank_slab(shape=JOINT_SHAPE, bins=JOINT_BINS):
    """Temperature and salinity indices of rank 0's slab, plus the raw
    temperature slab (for the CE-WHERE predicate)."""
    snap = OceanDataGenerator(shape, seed=7).advance()
    slabs = {
        v: snap.fields[v][: shape[0] // JOINT_RANKS].ravel()
        for v in ("temperature", "salinity")
    }
    ia, ib = (
        BitmapIndex.build(x, EqualWidthBinning.from_data(x, bins))
        for x in slabs.values()
    )
    return ia, ib, slabs["temperature"]


def row_loop_joint(ga, gb, mask):
    """The dense loop the kernel replaced: each A row ANDed with every
    group of B's matrix, then popcounted."""
    ga = ga & mask
    out = np.empty((ga.shape[0], gb.shape[0]), dtype=np.int64)
    for i in range(ga.shape[0]):
        out[i, :] = popcount_u32(ga[i][None, :] & gb).sum(axis=1, dtype=np.int64)
    return out


def _fresh(index: BitmapIndex) -> BitmapIndex:
    """A new index over the same (cached) bitvectors, as the executor
    builds per query -- its group-matrix memo starts empty."""
    return BitmapIndex(index.binning, index.bitvectors, index.n_elements)


def _median_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


@pytest.fixture(scope="module")
def joint_slab():
    ia, ib, t = rank_slab()
    return ia.group_matrix(), ib.group_matrix(), WAHBitVector.ones(ia.n_elements)


def test_kernel_joint_sparse(benchmark, joint_slab):
    ga, gb, mask = joint_slab
    out = benchmark(lambda: joint_count_matrix(ga, gb, mask.to_groups()))
    assert np.array_equal(out, row_loop_joint(ga, gb, mask.to_groups()))


def test_kernel_joint_row_loop(benchmark, joint_slab):
    """The per-row loop the sparse kernel replaced (the loser)."""
    ga, gb, mask = joint_slab
    benchmark(lambda: row_loop_joint(ga, gb, mask.to_groups()))


def run_joint_section(smoke: bool, out_dir: Path) -> dict:
    """Row loop vs sparse kernel per query class; parity asserted."""
    shape, bins = ((8, 16, 32), 16) if smoke else (JOINT_SHAPE, JOINT_BINS)
    repeats = 3 if smoke else 40
    ia, ib, temperature = rank_slab(shape, bins)
    masks = {
        "mi": WAHBitVector.ones(ia.n_elements),
        "ce_where": ia.query_value_range(
            float(np.median(temperature)), float(temperature.max())
        ),
    }
    ga, gb = ia.group_matrix(), ib.group_matrix()
    rows: list[list[object]] = []
    record: list[dict] = []
    for case, mask in masks.items():
        mg = mask.to_groups()
        expected = row_loop_joint(ga, gb, mg)
        assert np.array_equal(joint_count_matrix(ga, gb, mg), expected), case
        assert np.array_equal(
            restricted_joint_counts(_fresh(ia), _fresh(ib), mask), expected
        ), case
        decode = _median_ms(
            lambda: (_fresh(ia).group_matrix(), _fresh(ib).group_matrix()), repeats
        )
        loop = _median_ms(lambda: row_loop_joint(ga, gb, mg), repeats)
        kernel = _median_ms(lambda: joint_count_matrix(ga, gb, mg), repeats)
        before = _median_ms(
            lambda: row_loop_joint(
                _fresh(ia).group_matrix(), _fresh(ib).group_matrix(),
                mask.to_groups(),
            ),
            repeats,
        )
        after = _median_ms(
            lambda: restricted_joint_counts(_fresh(ia), _fresh(ib), mask), repeats
        )
        nonzero = np.count_nonzero(ga & mg) / ga.size
        rows.append([case, nonzero, decode, loop, kernel, loop / kernel, before, after])
        record.append(
            {
                "case": case,
                "nonzero_group_frac": round(nonzero, 4),
                "decode_ms": round(decode, 3),
                "row_loop_ms": round(loop, 3),
                "kernel_ms": round(kernel, 3),
                "kernel_speedup": round(loop / kernel, 2),
                "partial_row_loop_ms": round(before, 3),
                "partial_kernel_ms": round(after, 3),
            }
        )
    table = format_table(
        f"Joint histogram per rank partial: row loop vs sparse kernel "
        f"({ia.n_elements} elements, {bins} bins, median of {repeats}"
        f"{', SMOKE' if smoke else ''}; partial = fresh decode + joint)",
        ["case", "nz_frac", "decode_ms", "loop_ms", "kernel_ms", "speedup",
         "partial_loop_ms", "partial_kernel_ms"],
        rows,
    )
    save_table("kernels_joint", table, out_dir)
    if not smoke:
        slow = {r["case"]: r["kernel_speedup"] for r in record}
        assert all(s >= 2.0 for s in slow.values()), (
            f"sparse joint kernel under 2x vs the row loop: {slow}"
        )
    return {"n_elements": ia.n_elements, "bins": bins, "cases": record}


def host_block() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hardware_popcount": HAS_HARDWARE_POPCOUNT,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small operands, parity checks only, output to a temp dir",
    )
    args = parser.parse_args(argv)
    out_dir = (
        Path(tempfile.mkdtemp(prefix="bench_kernels_"))
        if args.smoke
        else RESULTS_DIR
    )
    result = {
        "smoke": args.smoke,
        "host": host_block(),
        "hardware_popcount": HAS_HARDWARE_POPCOUNT,
        **run_kway_sweep(args.smoke, out_dir),
        "joint": run_joint_section(args.smoke, out_dir),
    }
    json_path = out_dir / "BENCH_kernels.json"
    json_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"[saved to {json_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
