"""Per-variable in-situ reduction -- the multi-array handling of §5.1.

Lulesh emits "a total of 12 data arrays for each time-step, and we
support in-situ analysis based on all of them".  Two faithful readings:

* index the concatenated payload under one binning (what
  :class:`~repro.insitu.pipeline.InSituPipeline` defaults to) -- simple,
  but mixes value distributions of unlike quantities;
* index **each variable under its own binning** and combine the
  per-variable correlation scores -- what a physics-aware deployment does
  and what this module provides.

:class:`MultiVariableIndexer` turns one :class:`~repro.sims.base.TimeStepData`
into a dict of per-variable indices; :func:`combined_metric` lifts any
:class:`~repro.selection.metrics.SelectionMetric` to dicts by summing
per-variable distinctness (each variable contributes in its own binning,
exactness preserved per variable); :class:`MultiVariableStep` is the
artifact the selectors see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.bitmap.binning import Binning
from repro.bitmap.index import BitmapIndex
from repro.bitmap.ordering import RunOrdering
from repro.sims.base import TimeStepData


@dataclass(frozen=True)
class MultiVariableStep:
    """One time-step reduced to per-variable bitmap indices."""

    step: int
    indices: Mapping[str, BitmapIndex]

    @property
    def nbytes(self) -> int:
        return sum(i.nbytes for i in self.indices.values())

    def variables(self) -> list[str]:
        return sorted(self.indices)


@dataclass(frozen=True)
class MultiVariableIndexer:
    """Builds per-variable indices under per-variable binnings.

    ``binnings`` maps variable name -> binning; variables absent from the
    map are skipped (the paper indexes analysis variables, not every
    internal array).

    ``ordering`` ("lex" / "gray" / "hist", :mod:`repro.bitmap.ordering`)
    computes **one** row permutation from *all* variables' bin ids
    jointly (variables in sorted-name order) on the first reduced step,
    then applies that same permutation to every variable of every later
    step.  This is where multi-column Gray-code and histogram-aware
    ordering earn their keep -- a shared permutation compresses
    secondary variables too -- and sharing it across steps keeps
    cross-step joint popcounts (the selection metrics) exactly
    invariant; a per-step permutation would silently misalign rows
    between steps.
    """

    binnings: Mapping[str, Binning]
    method: str = "vectorized"
    ordering: str | None = None

    def __post_init__(self) -> None:
        if not self.binnings:
            raise ValueError("need at least one variable binning")
        run_ordering = None if self.ordering is None else RunOrdering(self.ordering)
        object.__setattr__(self, "_run_ordering", run_ordering)  # frozen dataclass

    def reduce(self, step: TimeStepData) -> MultiVariableStep:
        shared = self._shared_ordering(step)
        indices: dict[str, BitmapIndex] = {}
        for name, binning in self.binnings.items():
            indices[name] = BitmapIndex.build(
                self._field(step, name),
                binning,
                method=self.method,  # type: ignore[arg-type]
                ordering=shared,
            )
        return MultiVariableStep(step.step, indices)

    def _shared_ordering(self, step: TimeStepData):
        """Run-level ordering: computed once, reused for every step."""
        if self._run_ordering is None:
            return None
        names = sorted(self.binnings)
        return self._run_ordering.for_step(
            [self._field(step, n) for n in names], [self.binnings[n] for n in names]
        )

    def _field(self, step: TimeStepData, name: str) -> np.ndarray:
        if name not in step.fields:
            raise KeyError(
                f"step {step.step} lacks variable {name!r}; "
                f"has {sorted(step.fields)}"
            )
        return step.fields[name]

    @classmethod
    def from_probe(
        cls,
        steps: Sequence[TimeStepData],
        *,
        bins: int,
        variables: Sequence[str] | None = None,
        method: str = "vectorized",
        ordering: str | None = None,
    ) -> "MultiVariableIndexer":
        """Derive per-variable equal-width binnings from probe steps."""
        from repro.bitmap.binning import common_binning

        if not steps:
            raise ValueError("need at least one probe step")
        names = (
            list(variables) if variables is not None else sorted(steps[0].fields)
        )
        binnings = {
            name: common_binning([s.fields[name] for s in steps], bins=bins)
            for name in names
        }
        return cls(binnings, method=method, ordering=ordering)


def combined_metric(metric, *, weights: Mapping[str, float] | None = None):
    """Distinctness over MultiVariableStep = weighted sum over variables.

    Returns a callable suitable for the streaming selector or the greedy
    helpers that accept a raw distinctness function.
    """

    def distinctness(prev: MultiVariableStep, cand: MultiVariableStep) -> float:
        if set(prev.indices) != set(cand.indices):
            raise ValueError(
                f"steps carry different variables: "
                f"{sorted(prev.indices)} vs {sorted(cand.indices)}"
            )
        total = 0.0
        for name in prev.indices:
            w = 1.0 if weights is None else float(weights.get(name, 0.0))
            if w == 0.0:
                continue
            total += w * metric.bitmap(prev.indices[name], cand.indices[name])
        return total

    return distinctness


def select_timesteps_multivariable(
    steps: Sequence[MultiVariableStep],
    k: int,
    metric,
    *,
    weights: Mapping[str, float] | None = None,
):
    """Greedy selection over per-variable-reduced steps."""
    from repro.selection.greedy import SelectionResult
    from repro.selection.partitioning import (
        fixed_length_partitions,
        validate_partitions,
    )

    parts = fixed_length_partitions(len(steps), k)
    validate_partitions(parts, len(steps))
    score = combined_metric(metric, weights=weights)
    selected = [0]
    scores = [float("nan")]
    evaluations = 0
    prev = 0
    for interval in parts[1:]:
        best, best_score = -1, -np.inf
        for cand in interval:
            s = score(steps[prev], steps[cand])
            evaluations += 1
            if s > best_score:
                best, best_score = cand, s
        selected.append(best)
        scores.append(best_score)
        prev = best
    return SelectionResult(
        selected, scores, parts, f"multivar:{metric.name}", evaluations
    )
