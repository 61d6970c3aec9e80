"""The in-situ analysis pipeline (Figure 2 end-to-end).

Three reduction modes matching the methods §5 compares:

* ``bitmap``   -- simulate -> build a compressed bitmap index per step ->
  **discard the raw data** -> select K of N on bitmaps -> write only the
  selected bitmaps;
* ``fulldata`` -- simulate -> keep raw steps resident -> select on raw
  arrays -> write the selected steps' raw data;
* ``sampling`` -- simulate -> down-sample -> select on samples -> write
  the selected samples (the §5.5 baseline).

Every entry point here and in :mod:`repro.insitu.multivariable_pipeline`
picks an *engine* (:mod:`repro.insitu.parallel`) and a *selector* (batch,
or a :class:`~repro.selection.streaming.StreamingSelector`) and calls
:func:`_drive`: the one simulate -> reduce -> select -> write loop, and
the only keeper of the phase timings of the paper's stacked bars, of
Figure 11's :class:`~repro.insitu.memory.MemoryTracker` categories and of
the already-built prefix of steps.
"""

from __future__ import annotations

from contextlib import nullcontext, suppress
from functools import partial
from dataclasses import dataclass, field
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from repro.bitmap.adaptive import AdaptivePrecisionIndexer, aligned_metric
from repro.bitmap.binning import Binning
from repro.bitmap.index import BitmapIndex
from repro.bitmap.ordering import RunOrdering
from repro.insitu.allocation import (
    SeparateCores,
    SharedCores,
    equation_1_2_allocation,
)
from repro.insitu.memory import MemoryTracker
from repro.insitu.parallel import (
    InlineEngine,
    ThreadedEngine,
    separate_cores_engine,
    shared_cores_engine,
)
from repro.insitu.queue import QueueFailed
from repro.insitu.sampling import Sampler
from repro.insitu.writer import OutputWriter
from repro.selection.greedy import (
    Partitioning,
    SelectionResult,
    select_timesteps_bitmap,
    select_timesteps_full,
)
from repro.selection.metrics import SelectionMetric
from repro.selection.streaming import StreamingSelector
from repro.sims.base import Simulation, TimeStepData
from repro.util.timing import TimeBreakdown

ReductionMode = Literal["bitmap", "fulldata", "sampling"]

#: Extracts the analysis payload from a step (default: all fields
#: concatenated, the §5.1 Lulesh convention; single-field sims are
#: unaffected).
PayloadFn = Callable[[TimeStepData], np.ndarray]


def default_payload(step: TimeStepData) -> np.ndarray:
    return step.concatenated()


@dataclass
class PipelineResult:
    """Everything one pipeline run measured."""

    mode: ReductionMode
    timings: TimeBreakdown
    selection: SelectionResult
    memory: MemoryTracker
    bytes_written: int
    #: reduced artifact sizes per step (bitmap bytes / sample bytes / raw bytes)
    artifact_bytes: list[int] = field(default_factory=list)
    queue_stats: object | None = None

    @property
    def total_seconds(self) -> float:
        return self.timings.total

    def summary(self) -> str:
        phases = ", ".join(
            f"{k}={v:.3f}s" for k, v in sorted(self.timings.phases.items())
        )
        return (
            f"[{self.mode}] {phases}; total={self.total_seconds:.3f}s; "
            f"selected={self.selection.selected}; "
            f"written={self.bytes_written / 2**20:.2f} MiB; "
            f"peak_mem={self.memory.peak_bytes / 2**20:.2f} MiB"
        )


class _Sample(NamedTuple):
    """A down-sampled step.  Positions are regenerated at write time from
    the *original* payload size: deriving it from the sample length and
    fraction rounds wrongly for many pairs, giving out-of-range positions."""

    values: np.ndarray
    n_elements: int
    nbytes: int


# ------------------------------------------------------------------- driver
def _drive(
    simulation: Simulation,
    n_steps: int,
    payload_fn: Callable,
    open_engine: Callable,
    select: Callable[[list], SelectionResult] | StreamingSelector,
    write: Callable[[list[tuple[int, object]]], int] | None,
    *,
    mode: ReductionMode = "bitmap",
    binning_for: Callable | None = None,
    prefix: Sequence[tuple[int, object]] = (),
    timings: TimeBreakdown | None = None,
) -> PipelineResult:
    """Simulate the steps after ``prefix``, reduce, select, write.

    ``open_engine(payload)`` starts the engine at the first simulated
    step; ``binning_for(payload)`` bins steps on the simulation side.
    ``write(items)`` stores ``(step_id, artifact)`` pairs and returns the
    bytes written.
    """
    timings = timings if timings is not None else TimeBreakdown()
    phase = {"bitmap": "reduce_bitmap", "sampling": "reduce_sample"}.get(mode)
    reduce_clock = (lambda: timings.timed(phase)) if phase else nullcontext
    memory = MemoryTracker()
    memory.set("simulation_substrate", max(simulation.substrate_nbytes, 1))
    streaming = isinstance(select, StreamingSelector)
    step_ids: list[int] = []
    built: dict[int, object] = {}
    nbytes: dict[int, int] = {}
    written: list[int] = []

    def keep(step_id: int, artifact) -> None:
        nbytes[step_id] = artifact.nbytes
        if not streaming:
            built[step_id] = artifact
            memory.add("retained_window", artifact.nbytes)
            return
        with timings.timed("select"):
            select.push((step_id, artifact))
        # Account what is *actually* resident: the retained artifacts' own
        # sizes, not the current step's size times a count (bitmap sizes
        # vary step to step with data compressibility).
        memory.set("retained_window", sum(a.nbytes for _, a in select.resident()))

    def flush(items: list[tuple[int, object]]) -> None:
        if write is not None and items:
            with timings.timed("output"):
                written.append(write(items))

    if streaming:
        # Selected bitmaps hit storage the moment their interval closes.
        select.on_commit = lambda _s, _score, item: flush([item] if item else [])
    for step_id, artifact in prefix:
        step_ids.append(step_id)
        keep(step_id, artifact)
    engine = None
    try:
        # A worker that dies poisons its queue; finish() then re-raises
        # the original exception once the pool has drained.
        with suppress(QueueFailed):
            for _ in range(n_steps - len(prefix)):
                with timings.timed("simulate"):
                    step = simulation.advance()
                payload = payload_fn(step)
                step_ids.append(step.step)
                if engine is None:
                    engine = open_engine(payload)
                with reduce_clock():
                    binning = binning_for(payload) if binning_for else None
                    artifact = engine.submit(step.step, payload, binning=binning)
                if artifact is None:
                    memory.set("queue", engine.resident_bytes)
                    continue
                if phase:
                    # Raw data is resident only while being reduced -- the
                    # in-situ memory win.  (Unreduced, the payload *is* the
                    # retained artifact; counting it here too would
                    # double-book one step.)
                    memory.set("current_step_raw", payload.nbytes)
                keep(step.step, artifact)
        if engine is not None:
            with reduce_clock():
                queued = engine.finish()
            for step_id in step_ids:
                if step_id in queued:
                    keep(step_id, queued[step_id])
    finally:
        if engine is not None:
            engine.close()
    memory.release("current_step_raw")

    with timings.timed("select"):
        artifacts = [built.get(s) for s in step_ids]
        selection = select.finalize() if streaming else select(artifacts)
    if not streaming:
        flush([(step_ids[pos], artifacts[pos]) for pos in selection.selected])
    return PipelineResult(
        mode, timings, selection, memory, sum(written),
        [nbytes[s] for s in step_ids], engine.stats if engine is not None else None,
    )


# ----------------------------------------------------------------- pipeline
class InSituPipeline:
    """Drives a :class:`~repro.sims.base.Simulation` through reduce-select-write."""

    def __init__(
        self,
        simulation: Simulation,
        binning: Binning | None,
        metric: SelectionMetric,
        *,
        mode: ReductionMode = "bitmap",
        sampler: Sampler | None = None,
        writer: OutputWriter | None = None,
        payload_fn: PayloadFn = default_payload,
        partitioning: Partitioning = "fixed",
        build_method: Literal["vectorized", "online"] = "vectorized",
        adaptive_digits: int = 1,
        ordering: str | None = None,
    ) -> None:
        if mode == "sampling" and sampler is None:
            raise ValueError("sampling mode needs a Sampler")
        if binning is None and mode != "bitmap":
            raise ValueError(
                "adaptive binning (binning=None) is only defined for bitmap "
                "mode; full-data/sampling metrics need a declared scale"
            )
        if ordering is not None:
            if mode != "bitmap":
                raise ValueError(
                    "row ordering reorders bitmap encoding; it is only "
                    "defined for bitmap mode"
                )
            if metric.name == "emd_spatial":
                # Spatial-unit popcounts are not invariant under a row
                # permutation; every other built-in metric (count-based
                # EMD, MI, CE) is, because all steps share one ordering.
                raise ValueError(
                    "emd_spatial is not permutation-invariant; pick a "
                    "count-based metric or drop ordering"
                )
        self.simulation = simulation
        self.binning = binning
        self.mode: ReductionMode = mode
        self.sampler = sampler
        self.writer = writer
        self.payload_fn = payload_fn
        self.partitioning: Partitioning = partitioning
        self.build_method = build_method
        self.ordering_method = ordering
        #: Run-level row ordering, computed from the *first* step's
        #: payload and reused for every later step.
        self._ordering = RunOrdering(ordering) if ordering is not None else None
        if binning is None:
            # Per-step tick-aligned binning (§5.1's 64-206 bins regime):
            # each step is indexed under its own minimal range; selection
            # metrics align ticks pairwise.
            self._indexer = AdaptivePrecisionIndexer(
                digits=adaptive_digits, method=build_method
            )
            self._step_binning = self._indexer.binning_for
            self.metric = aligned_metric(metric)
        else:
            self._indexer = None
            self._step_binning = lambda _payload: binning
            self.metric = metric

    # ----------------------------------------------------------- sequential
    def run(
        self,
        n_steps: int,
        select_k: int,
        *,
        resume: list[tuple[int, BitmapIndex]] | None = None,
    ) -> PipelineResult:
        """Sequential (Shared-Cores-like) execution: phases alternate.

        ``resume`` hands the pipeline an already-built prefix of per-step
        indices as ``(step_id, index)`` pairs (e.g. reloaded from a
        :class:`~repro.cluster.checkpoint.CheckpointStore` after a
        crash): the simulation is fast-forwarded past them with
        :meth:`~repro.sims.base.Simulation.skip` and only the remaining
        steps are simulated and reduced.  Because selection runs over the
        full artifact list either way, a resumed run returns exactly the
        selection an uninterrupted run would.  Bitmap mode only -- the
        other modes retain raw/sampled arrays, which no checkpoint holds.
        """
        timings = TimeBreakdown()
        if resume:
            if self.mode != "bitmap":
                raise ValueError("resume is defined for bitmap mode only")
            if len(resume) > n_steps:
                raise ValueError(
                    f"resume prefix of {len(resume)} steps exceeds "
                    f"n_steps={n_steps}"
                )
            with timings.timed("simulate"):
                self.simulation.skip(len(resume))
        return self._run(
            n_steps, select_k, lambda _: InlineEngine(self._reduce),
            prefix=resume or (), timings=timings,
        )

    # ------------------------------------------------------------- threaded
    def run_threaded(
        self,
        n_steps: int,
        select_k: int,
        *,
        queue_capacity_bytes: int,
        n_workers: int = 1,
    ) -> PipelineResult:
        """Separate-Cores execution: simulation and reduction overlap.

        Only meaningful for ``mode='bitmap'`` (the strategy exists to hide
        bitmap-construction time behind the simulation).
        """
        if self.mode != "bitmap":
            raise ValueError("threaded execution is defined for bitmap mode")
        return self._run(n_steps, select_k, lambda _: ThreadedEngine(
            self._build_index, queue_capacity_bytes, n_workers
        ))

    # ------------------------------------------------------------- parallel
    def run_parallel(
        self,
        n_steps: int,
        select_k: int,
        *,
        allocation: SharedCores | SeparateCores | Literal["auto"] | None = None,
        n_workers: int | None = None,
        executor: Literal["threads", "processes"] = "processes",
        queue_capacity_bytes: int | None = None,
        calibration_steps: int = 2,
        chunk_elements: int = 1 << 20,
    ) -> PipelineResult:
        """Multi-core execution of either §2.3 core-allocation strategy.

        ``allocation`` picks it: a
        :class:`~repro.insitu.allocation.SharedCores` splits every step's
        build spatially across all workers, a
        :class:`~repro.insitu.allocation.SeparateCores` overlaps the
        parent-side simulation with ``bitmap_cores`` encoder workers behind
        a bounded queue, and ``"auto"`` measures ``calibration_steps``
        steps serially and splits ``n_workers`` cores by the paper's
        Equations 1-2.  Without ``allocation``, ``n_workers`` selects
        Shared Cores.  ``executor='processes'`` (default) uses the
        zero-copy shared-memory engines of :mod:`repro.insitu.parallel`;
        ``'threads'`` is the GIL-bound escape hatch (lower overhead for
        tiny steps, no multi-core speedup for the Python fraction).

        Bitmaps are bit-identical to :meth:`run` in every configuration.
        Row ordering is not supported: the shared-memory engines stitch
        spatial slabs in simulation order.
        """
        if self.mode != "bitmap":
            raise ValueError("parallel execution is defined for bitmap mode")
        if self.ordering_method is not None:
            raise ValueError(
                "row ordering is not supported by the parallel engines; "
                "use run()/run_threaded() or BitmapIndex.build(ordering=...)"
            )
        if executor not in ("threads", "processes"):
            raise ValueError(f"unknown executor {executor!r}")
        timings = TimeBreakdown()
        prefix: list[tuple[int, BitmapIndex]] = []
        if allocation is None:
            if n_workers is None:
                raise ValueError("pass allocation=... or n_workers=...")
            allocation = SharedCores(n_workers)
        elif allocation == "auto":
            if n_workers is None:
                raise ValueError("allocation='auto' needs n_workers (total cores)")
            probe = min(max(1, calibration_steps), n_steps)
            for _ in range(probe):
                with timings.timed("simulate"):
                    step = self.simulation.advance()
                payload = self.payload_fn(step)
                with timings.timed("reduce_bitmap"):
                    prefix.append((step.step, self._build_index(payload)))
            allocation = equation_1_2_allocation(
                n_workers,
                timings.phases["simulate"] / probe,
                timings.phases["reduce_bitmap"] / probe,
            )
        if not isinstance(allocation, (SharedCores, SeparateCores)):
            raise ValueError(f"unknown allocation {allocation!r}")

        def open_engine(payload: np.ndarray):
            if isinstance(allocation, SharedCores):
                return shared_cores_engine(
                    allocation.total_cores, self.binning,
                    executor=executor, chunk_elements=chunk_elements,
                )
            if executor == "threads":
                return ThreadedEngine(
                    self._build_index,
                    queue_capacity_bytes or 4 * max(self.simulation.bytes_per_step, 1),
                    allocation.bitmap_cores,
                )
            return separate_cores_engine(
                self.binning, allocation.bitmap_cores, payload.nbytes,
                capacity_bytes=queue_capacity_bytes,
                adaptive_digits=self._indexer.digits if self._indexer else 1,
                chunk_elements=chunk_elements,
            )

        # Shared Cores bins each step on the simulation side, then splits
        # its build across every core.
        shared = isinstance(allocation, SharedCores)
        return self._run(
            n_steps, select_k, open_engine, prefix=prefix, timings=timings,
            binning_for=self._step_binning if shared else None,
        )

    # ------------------------------------------------------------ streaming
    def run_streaming(self, n_steps: int, select_k: int) -> PipelineResult:
        """Fully streaming bitmap pipeline: select online, write on commit.

        Uses :class:`~repro.selection.streaming.StreamingSelector`, so at
        most *two* bitmap artifacts are ever resident (the previously
        committed selection and the current interval's best), and each
        selected bitmap is written the moment its interval closes -- the
        tightest-memory reading of Figure 2.  The selection is identical
        to :meth:`run` (greedy only ever looks at the last committed
        step).
        """
        if self.mode != "bitmap":
            raise ValueError("streaming execution is defined for bitmap mode")
        selector = StreamingSelector(
            n_steps, select_k, lambda prev, cand: self.metric.bitmap(prev[1], cand[1])
        )
        return self._run(
            n_steps, select_k, lambda _: InlineEngine(self._reduce), selector=selector
        )

    # -------------------------------------------------------------- phases
    def _run(self, n_steps, select_k, open_engine, *, selector=None, **kwargs):
        """One :func:`_drive` call with this pipeline's mode-specific parts."""
        return _drive(
            self.simulation,
            n_steps,
            self.payload_fn,
            open_engine,
            selector or partial(self._select, select_k=select_k),
            self._write if self.writer is not None else None,
            mode=self.mode,
            **kwargs,
        )

    def _build_index(
        self, payload: np.ndarray, binning: Binning | None = None
    ) -> BitmapIndex:
        if binning is None:
            binning = self._step_binning(payload)
        ordering = None
        if self._ordering is not None:
            ordering = self._ordering.for_step([payload], binning)
        return BitmapIndex.build(
            payload, binning, method=self.build_method, ordering=ordering
        )

    def _reduce(self, payload: np.ndarray, binning: Binning | None = None):
        if self.mode == "bitmap":
            return self._build_index(payload, binning)
        if self.mode == "sampling":
            sampler, n = self.sampler, payload.size
            assert sampler is not None
            return _Sample(sampler.sample(payload), n, sampler.sample_bytes(n))
        # fulldata: the "reduction" is keeping everything.
        return payload

    def _select(self, artifacts: list, select_k: int) -> SelectionResult:
        if self.mode == "bitmap":
            return select_timesteps_bitmap(
                artifacts, select_k, self.metric, partitioning=self.partitioning
            )
        if self.mode == "sampling":
            artifacts = [sample.values for sample in artifacts]
        return select_timesteps_full(
            artifacts,
            select_k,
            self.metric,
            self.binning,
            partitioning=self.partitioning,
        )

    def _write(self, items: list[tuple[int, object]]) -> int:
        before = self.writer.stats.bytes_written
        for step_id, artifact in items:
            if self.mode == "bitmap":
                self.writer.write_bitmap_step(step_id, {"payload": artifact})
            elif self.mode == "sampling":
                assert self.sampler is not None
                self.writer.write_sample_step(
                    step_id,
                    self.sampler.positions(artifact.n_elements),
                    {"payload": artifact.values},
                )
            else:
                self.writer.write_raw_step(
                    TimeStepData(step_id, {"payload": np.asarray(artifact)})
                )
        return self.writer.stats.bytes_written - before
