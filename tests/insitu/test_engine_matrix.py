"""Every engine x selector pairing of the in-situ driver against run().

Each configuration simulates the same seeded Heat3D run, writes its
selected bitmaps through an OutputWriter, and must match the serial
:meth:`InSituPipeline.run` exactly: same selection, scores, evaluation
count and per-step index sizes, and byte-identical ``.rbmp`` files.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.bitmap import PrecisionBinning
from repro.insitu import OutputWriter, SeparateCores, SharedCores
from repro.insitu.pipeline import InSituPipeline
from repro.selection import CONDITIONAL_ENTROPY
from repro.sims import Heat3D

N_STEPS, SELECT_K = 10, 3
SHAPE = (8, 8, 16)  # 1024 elements: two-way splits are not 31-aligned

RUNNERS = {
    "inline": lambda p: p.run(N_STEPS, SELECT_K),
    "threads": lambda p: p.run_threaded(
        N_STEPS, SELECT_K, queue_capacity_bytes=2 * 1024 * 8, n_workers=2
    ),
    "shared-threads": lambda p: p.run_parallel(
        N_STEPS, SELECT_K, allocation=SharedCores(2), executor="threads"
    ),
    "shared-processes": lambda p: p.run_parallel(
        N_STEPS, SELECT_K, allocation=SharedCores(2)
    ),
    "separate-processes": lambda p: p.run_parallel(
        N_STEPS, SELECT_K, allocation=SeparateCores(1, 1),
        queue_capacity_bytes=1 << 20,
    ),
    "auto-threads": lambda p: p.run_parallel(
        N_STEPS, SELECT_K, allocation="auto", n_workers=2, executor="threads"
    ),
    "streaming": lambda p: p.run_streaming(N_STEPS, SELECT_K),
}

BINNINGS = {
    "fixed": lambda: PrecisionBinning(19.0, 101.0, digits=0),
    "adaptive": lambda: None,
}


def _run(runner, binning, out: Path, ordering=None):
    pipe = InSituPipeline(
        Heat3D(SHAPE, seed=7),
        binning,
        CONDITIONAL_ENTROPY,
        writer=OutputWriter(out),
        ordering=ordering,
    )
    result = runner(pipe)
    files = {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*.rbmp"))
    }
    return result, files


def _assert_same(result, files, ref, ref_files):
    assert result.selection.selected == ref.selection.selected
    np.testing.assert_array_equal(result.selection.scores, ref.selection.scores)
    assert result.selection.n_evaluations == ref.selection.n_evaluations
    assert result.artifact_bytes == ref.artifact_bytes
    assert result.bytes_written == ref.bytes_written
    assert len(files) == SELECT_K
    assert files.keys() == ref_files.keys()
    for name, data in files.items():
        assert data == ref_files[name], f"{name} differs from run()'s"


@pytest.mark.timeout(300)
@pytest.mark.parametrize("binning", sorted(BINNINGS))
@pytest.mark.parametrize("engine", sorted(RUNNERS))
def test_engine_matches_run(tmp_path, engine, binning):
    ref, ref_files = _run(RUNNERS["inline"], BINNINGS[binning](), tmp_path / "ref")
    result, files = _run(RUNNERS[engine], BINNINGS[binning](), tmp_path / engine)
    _assert_same(result, files, ref, ref_files)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("engine", ["threads", "streaming"])
def test_ordered_engine_matches_run(tmp_path, engine):
    binning = BINNINGS["fixed"]()
    ref, ref_files = _run(RUNNERS["inline"], binning, tmp_path / "ref", "lex")
    result, files = _run(RUNNERS[engine], binning, tmp_path / engine, "lex")
    _assert_same(result, files, ref, ref_files)
