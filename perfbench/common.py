"""Shared pieces of the benchmark: spans, statistics, memory, host block.

Nothing here imports the program under test, so ``run.py`` can refuse to
start (and say why) in a checkout that has no ``src/repro``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


# ------------------------------------------------------------------ spans
@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    trace: int
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder: name, start, end, parent and trace id.

    Spans nest through a per-thread stack; a span opened on another
    thread names its parent explicitly.  A disabled tracer records
    nothing, so the untraced runs pay one no-op context manager per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: Span | None = None) -> Span | None:
        if not self.enabled:
            return None
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name,
            span_id,
            parent.id if parent is not None else None,
            parent.trace if parent is not None else span_id,
            time.perf_counter_ns(),
        )
        stack.append(span)
        return span

    def end(self, span: Span | None) -> None:
        if span is None:
            return
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        s = self.begin(name, parent)
        try:
            yield s
        finally:
            self.end(s)

    # ------------------------------------------------------------ reports
    def self_times_ms(self) -> dict[str, list[float]]:
        """Per span name, each span's self time (its duration minus the
        part of it its child spans cover), in ms."""
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.duration_ns
        out: dict[str, list[float]] = {}
        for s in self.spans:
            own = s.duration_ns - child_ns.get(s.id, 0)
            out.setdefault(s.name, []).append(own / 1e6)
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [s.duration_ns / 1e6 for s in self.spans if s.name == name]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start_ns):
                fh.write(json.dumps({
                    "name": s.name,
                    "id": s.id,
                    "parent": s.parent,
                    "trace": s.trace,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                }) + "\n")


# ------------------------------------------------------------- statistics
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def iterations(cfg: "Config", tracer: Tracer):
    """Yield the tracer of each measured iteration until ``cfg.seconds``
    have passed.  An untraced run always gets ``tracer`` (disabled); a
    traced run alternates it with a disabled one, at least one of each,
    so the tracing overhead is measured under the same conditions."""
    off = Tracer(False)
    t_start = time.perf_counter()
    for i in itertools.count():
        if i > cfg.trace and time.perf_counter() - t_start >= cfg.seconds:
            return
        yield off if cfg.trace and i % 2 else tracer


# ----------------------------------------------------------------- memory
def _vm_hwm_kib(pid: int) -> int:
    """A live process's peak resident set (VmHWM) in KiB, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident memory of this process plus the given live children.

    Each process's own high-water mark is summed, so pages a forked
    child shares with this process count once per process.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kib + sum(_vm_hwm_kib(p) for p in child_pids)) / 1024.0


# ------------------------------------------------------------------- host
def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_block(root: Path, seed: int, smoke: bool) -> dict:
    import numpy as np

    from repro.util import HAS_HARDWARE_POPCOUNT

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hardware_popcount": bool(HAS_HARDWARE_POPCOUNT),
        "git_sha": _git_sha(root),
        "seed": seed,
        "smoke": smoke,
    }


# ---------------------------------------------------------------- results
@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metric name -> value (units come from BENCHMARK.json)
    metrics: dict[str, float] = field(default_factory=dict)
    #: per-layer metric name -> value (traced runs only)
    layers: dict[str, float] = field(default_factory=dict)
    #: sample counts, oracle cost and other context for the result file
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str = "") -> None:
        """Count one checked operation; a mismatch counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            shown = self.notes.setdefault("mismatches", [])
            if what and len(shown) < 20:
                shown.append(what)
