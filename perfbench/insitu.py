"""Workload ``insitu``: the paper's write path, end to end.

Heat3D 96^3, with its heat source placed by the seed, runs 40 steps
through the serial ``InSituPipeline.run``; each step is binned into 64
equal-width bins and encoded, K=8 steps are selected by conditional
entropy, an ``OutputWriter`` stores them, and ``Catalog.build`` indexes
the output.  One such job is the unit of
``wall_s``; an operation is one simulated time step.

The traced run takes its spans through objects the pipeline accepts --
a ``Simulation``, a ``Binning``, a ``SelectionMetric``, a ``payload_fn``
and an ``OutputWriter`` -- so no program code is patched.  ``BitmapIndex
.build`` runs between the payload hand-off and the next ``advance`` (or
the first metric call after the last step), which is where its span
opens and closes.
"""

from __future__ import annotations

import itertools
import math
import shutil
import time
from dataclasses import dataclass

import numpy as np
from common import (
    Config,
    Outcome,
    Tracer,
    iterations,
    median,
    peak_rss_mb,
    percentile,
)

from repro.bitmap import BitmapIndex, EqualWidthBinning, load_index
from repro.insitu import InSituPipeline, OutputWriter
from repro.insitu.pipeline import default_payload
from repro.selection.metrics import CONDITIONAL_ENTROPY, SelectionMetric
from repro.service import Catalog
from repro.sims import Heat3D
from repro.sims.heat3d import HeatSource
from repro.sims.base import Simulation

SETUP_REPEATS = 5


@dataclass(frozen=True)
class Size:
    shape: tuple[int, int, int]
    steps: int
    select: int
    bins: int


FULL = Size((96, 96, 96), 40, 8, 64)
SMOKE = Size((24, 24, 24), 8, 3, 16)

# Heat3D keeps every cell between its initial field (20 plus noise of
# sd 0.01) and its 100-degree source, so this range holds every value.
BIN_LO, BIN_HI = 19.5, 100.5
# The strata and noise come from this fixed seed; the run's seed only
# places the heat source.  A seed that redrew the strata diffusivities
# would change how fast heat spreads, and with it the index sizes and
# the time of every layer by up to a third, so runs on different seeds
# would not measure the same work.
PHYSICS_SEED = 0


def _heat_source(shape, seed: int) -> HeatSource:
    """A hot box of the default size near the bottom, placed by ``seed``."""
    w = max(1, min(shape) // 8)
    rng = np.random.default_rng(seed)
    cy, cz = (int(rng.integers(w + 1, n - w - 1)) for n in shape[1:])
    return HeatSource(
        (shape[0] - 2 * w, cy - w, cz - w), (shape[0] - w, cy + w, cz + w), 100.0
    )


class _Phases:
    """Opens and closes the spans the pipeline's call order implies."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.open = None
        self.phase = "reduce"

    def _close(self) -> None:
        self.tracer.end(self.open)
        self.open = None

    def advance(self) -> None:
        self._close()

    def payload_ready(self) -> None:
        self.open = self.tracer.begin("bitmap.builder.encode_ms")

    def metric_called(self) -> None:
        if self.phase == "reduce":
            self._close()
            self.open = self.tracer.begin("selection.select_ms")
            self.phase = "select"

    def write_called(self) -> None:
        if self.phase == "select":
            self._close()
            self.phase = "write"

    def finish(self) -> None:
        self._close()


class _Sim(Simulation):
    """Delegates to Heat3D and stamps the start of every step."""

    def __init__(self, inner: Simulation, tracer: Tracer, phases) -> None:
        self.inner = inner
        self.tracer = tracer
        self.phases = phases
        self.stamps: list[float] = []

    @property
    def shape(self):
        return self.inner.shape

    @property
    def variable_names(self):
        return self.inner.variable_names

    @property
    def substrate_nbytes(self) -> int:
        return self.inner.substrate_nbytes

    def advance(self):
        if self.phases is not None:
            self.phases.advance()
        self.stamps.append(time.perf_counter())
        with self.tracer.span("sims.advance_ms"):
            return self.inner.advance()


class _TracedBinning(EqualWidthBinning):
    def assign(self, values):
        with self._tracer.span("bitmap.binning.assign_ms"):
            return super().assign(values)


class _Writer(OutputWriter):
    """Keeps every index it is handed, for the reload check."""

    def __init__(self, root, binning, tracer: Tracer, phases) -> None:
        super().__init__(root)
        self.binning = binning
        self.tracer = tracer
        self.phases = phases
        self.written: dict[int, BitmapIndex] = {}

    def write_bitmap_step(self, step_id, indices):
        if self.phases is not None:
            self.phases.write_called()
            # The traced binning type has no on-disk tag: store the same
            # bitvectors under the plain binning, as an untraced run does.
            indices = {
                name: BitmapIndex(
                    self.binning, idx.bitvectors, idx.n_elements, idx.ordering
                )
                for name, idx in indices.items()
            }
        self.written[step_id] = indices["payload"]
        with self.tracer.span("bitmap.serialization.save_ms"):
            return super().write_bitmap_step(step_id, indices)


def _prepare(cfg: Config, size: Size, job: int, tracer: Tracer):
    """Inputs and pipeline objects of one job (the set-up work)."""
    phases = _Phases(tracer) if tracer.enabled else None
    binning = EqualWidthBinning(BIN_LO, BIN_HI, size.bins)
    heat = Heat3D(
        size.shape, seed=PHYSICS_SEED, sources=[_heat_source(size.shape, cfg.seed)]
    )
    sim = _Sim(heat, tracer, phases)
    out = cfg.work / f"job_{job:03d}"
    writer = _Writer(out, binning, tracer, phases)
    if phases is None:
        pipeline = InSituPipeline(sim, binning, CONDITIONAL_ENTROPY, writer=writer)
    else:
        traced = _TracedBinning(BIN_LO, BIN_HI, size.bins)
        object.__setattr__(traced, "_tracer", tracer)

        def ce_bitmap(prev, cand):
            phases.metric_called()
            with tracer.span("metrics.ce_eval_ms"):
                return CONDITIONAL_ENTROPY.bitmap(prev, cand)

        def payload(step):
            data = default_payload(step)
            phases.payload_ready()
            return data

        metric = SelectionMetric(
            CONDITIONAL_ENTROPY.name, CONDITIONAL_ENTROPY.full, ce_bitmap
        )
        pipeline = InSituPipeline(
            sim, traced, metric, writer=writer, payload_fn=payload
        )
    return pipeline, sim, writer, phases, out


def _run_job(size: Size, prepared, tracer: Tracer):
    pipeline, _, _, phases, out = prepared
    t0 = time.perf_counter()
    with tracer.span("insitu.driver_ms"):
        result = pipeline.run(size.steps, size.select)
        if phases is not None:
            phases.finish()
        with tracer.span("service.catalog.build_ms"):
            catalog = Catalog.build(out)
    wall = time.perf_counter() - t0
    return result, catalog, wall


def _check_job(out: Outcome, result, catalog, writer, first_selection):
    """Reloading each written index gives the built index, the catalog
    lists exactly the selected steps, and every job selects the same."""
    selected = sorted(writer.written)
    ok = len(selected) == len(result.selection.selected)
    ok = ok and catalog.steps() == selected
    for step_id, built in writer.written.items():
        path = writer.root / f"step_{step_id:05d}" / "payload.rbmp"
        ok = ok and load_index(path) == built
    if first_selection is not None:
        ok = ok and selected == first_selection
    out.check(ok, f"job selecting {selected}")
    return first_selection or selected


def run(cfg: Config, tracer: Tracer) -> Outcome:
    size = SMOKE if cfg.smoke else FULL
    out = Outcome()
    repeats = 1 if cfg.smoke else SETUP_REPEATS
    setup_times, ready = [], []
    for job in range(repeats):
        t0 = time.perf_counter()
        ready.append(_prepare(cfg, size, job, Tracer(False)))
        setup_times.append(time.perf_counter() - t0)
    job_ids = itertools.count(repeats)

    selection = None
    walls = {False: [], True: []}  # by whether the job was traced
    step_lat = []
    for tr in iterations(cfg, tracer):
        if ready and not tr.enabled:
            current = ready.pop(0)
        else:
            current = _prepare(cfg, size, next(job_ids), tr)
        _, sim, writer, _, job_dir = current
        result, catalog, wall = _run_job(size, current, tr)
        selection = _check_job(out, result, catalog, writer, selection)
        walls[tr.enabled].append(wall)
        if tr is tracer:
            step_lat.extend(b - a for a, b in zip(sim.stamps, sim.stamps[1:]))
        bytes_written = sum(p.stat().st_size for p in job_dir.rglob("*.rbmp"))
        shutil.rmtree(job_dir, ignore_errors=True)
    jobs = walls[cfg.trace]

    raw_bytes = size.steps * math.prod(size.shape) * 8
    out.metrics = {
        "setup_s": median(setup_times),
        "wall_s": median(jobs),
        "peak_rss_mb": peak_rss_mb(),
        "bytes_written": float(bytes_written),
        "index_bytes_ratio": sum(result.artifact_bytes) / raw_bytes,
        "qps": size.steps * len(jobs) / sum(jobs),
        "latency_p50_ms": median(step_lat) * 1e3,
        "latency_p95_ms": percentile(step_lat, 0.95) * 1e3,
    }
    out.notes.update(
        jobs=len(jobs),
        latency_samples=len(step_lat),
        setup_samples=len(setup_times),
        selected_steps=selection,
    )
    if cfg.trace:
        self_ms = tracer.self_times_ms()

        def per_call(name):
            return median(self_ms.get(name, []))

        def per_job(name):
            return sum(self_ms.get(name, [])) / len(jobs)

        out.layers = {
            "sims.advance_ms": per_call("sims.advance_ms"),
            "bitmap.binning.assign_ms": per_call("bitmap.binning.assign_ms"),
            "bitmap.builder.encode_ms": per_call("bitmap.builder.encode_ms"),
            "metrics.ce_eval_ms": per_call("metrics.ce_eval_ms"),
            "selection.evaluations": float(result.selection.n_evaluations),
            "selection.select_ms": per_job("selection.select_ms"),
            "bitmap.serialization.save_ms": per_call("bitmap.serialization.save_ms"),
            "service.catalog.build_ms": per_call("service.catalog.build_ms"),
            "insitu.driver_ms": per_job("insitu.driver_ms"),
            "bitmap.index.bytes_per_step": sum(result.artifact_bytes) / size.steps,
            "insitu.memory.peak_mb": result.memory.peak_bytes / 2**20,
        }
        out.notes["untraced_wall_s"] = median(walls[False])
        out.notes["traced_wall_s"] = median(walls[True])
    return out
