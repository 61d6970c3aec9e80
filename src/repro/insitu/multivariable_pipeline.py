"""End-to-end multi-variable in-situ driver.

Ties together the per-variable pieces (`repro.insitu.variables`), the
greedy selector, and the :class:`~repro.io.timeseries.BitmapStore` into
one runner: simulate -> per-variable reduce -> select (weighted combined
metric) -> persist selected steps' indices per variable.

This is the faithful shape of the paper's Lulesh experiment: "there are a
total of 12 data arrays for each time-step, and we support in-situ
analysis based on all of them" -- with each array on its own binning and
each selected step stored as 12 ``.rbmp`` files.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import Mapping

from repro.insitu.memory import MemoryTracker
from repro.insitu.parallel import InlineEngine
from repro.insitu.pipeline import _drive
from repro.insitu.variables import (
    MultiVariableIndexer,
    MultiVariableStep,
    select_timesteps_multivariable,
)
from repro.io.timeseries import BitmapStore
from repro.selection.greedy import SelectionResult
from repro.selection.metrics import SelectionMetric
from repro.sims.base import Simulation
from repro.util.timing import TimeBreakdown


@dataclass
class MultiVariableResult:
    """Outcome of a multi-variable in-situ run."""

    selection: SelectionResult
    timings: TimeBreakdown
    memory: MemoryTracker
    bytes_stored: int
    per_variable_bytes: dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        phases = ", ".join(
            f"{k}={v:.3f}s" for k, v in sorted(self.timings.phases.items())
        )
        return (
            f"[multivariable] {phases}; selected={self.selection.selected}; "
            f"stored={self.bytes_stored / 2**20:.2f} MiB"
        )


@dataclass
class MultiVariablePipeline:
    """Simulate, reduce per variable, select, persist to a BitmapStore."""

    simulation: Simulation
    indexer: MultiVariableIndexer
    metric: SelectionMetric
    _: KW_ONLY
    store: BitmapStore | None = None
    weights: Mapping[str, float] | None = None

    def run(self, n_steps: int, select_k: int) -> MultiVariableResult:
        per_variable: dict[str, int] = {}

        def persist(items: list[tuple[int, MultiVariableStep]]) -> int:
            before = self.store.total_bytes()
            for step_id, mv in items:
                for name, index in mv.indices.items():
                    self.store.write(step_id, name, index)
            for name in self.indexer.binnings:
                per_variable[name] = sum(mv.indices[name].nbytes for _, mv in items)
            return self.store.total_bytes() - before

        result = _drive(
            self.simulation, n_steps, lambda step: step,
            lambda _: InlineEngine(lambda step, _binning: self.indexer.reduce(step)),
            lambda reduced: select_timesteps_multivariable(
                reduced, select_k, self.metric, weights=self.weights
            ),
            persist if self.store is not None else None,
        )
        if self.store is not None:
            with result.timings.timed("output"):
                self.store.set_attr("metric", result.selection.metric_name)
                self.store.set_attr(
                    "selection", ",".join(str(s) for s in result.selection.selected)
                )
        return MultiVariableResult(
            result.selection, result.timings, result.memory,
            result.bytes_written, per_variable,
        )
