"""Workload ``mine``: offline correlation mining on stored indices.

Set-up simulates 16 Ocean (16, 96, 192) steps, lays each out in Z-order,
bins temperature and salinity into 16 equal-width bins per step (the
``repro mine`` defaults), saves the indices and builds two-level indices
in memory.  After one untimed warm-up job, each job visits every step:
load both indices from disk, run ``correlation_mining`` (the ``repro
mine`` path) and ``correlation_mining_multilevel``.  An operation is one
step.

The exact miner's hits must equal ``correlation_mining_fulldata`` on
the raw arrays, computed in set-up.  The multilevel miner prunes by an
upper bound, so its hits must be a subset of those, with the same joint
counts and the same spatial hits for every pair it reports.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass

from common import (
    Config,
    Outcome,
    Tracer,
    iterations,
    median,
    peak_rss_mb,
    percentile,
)
from ocean_inputs import ocean

from repro.bitmap import (
    BitmapIndex,
    EqualWidthBinning,
    MultiLevelBitmapIndex,
    ZOrderLayout,
    load_index,
    save_index,
)
from repro.mining import (
    correlation_mining,
    correlation_mining_fulldata,
    correlation_mining_multilevel,
)

SETUP_REPEATS = 3
MINING = dict(value_threshold=0.002, spatial_threshold=0.05, unit_bits=512)


@dataclass(frozen=True)
class Size:
    shape: tuple[int, int, int]
    steps: int
    bins: int


FULL = Size((16, 96, 192), 16, 16)
SMOKE = Size((8, 16, 32), 3, 8)


def _setup_once(cfg: Config, size: Size, rep: int):
    """Simulate, index and store every step; returns per-step paths, the
    multilevel indices and the raw Z-ordered arrays."""
    root = cfg.work / f"store_{rep}"
    gen = ocean(size.shape, cfg.seed)
    layout = ZOrderLayout.for_shape(size.shape)
    steps = []
    for step in range(size.steps):
        snap = gen.advance()
        raw = [layout.flatten(snap.fields[v]) for v in ("temperature", "salinity")]
        binnings = [EqualWidthBinning.from_data(a, size.bins) for a in raw]
        d = root / f"step_{step:05d}"
        d.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, a, b in zip(("temperature", "salinity"), raw, binnings):
            path = d / f"{name}.rbmp"
            save_index(path, BitmapIndex.build(a, b))
            paths.append(path)
        multi = [MultiLevelBitmapIndex.build(a, b) for a, b in zip(raw, binnings)]
        steps.append((paths, multi, raw, binnings))
    return root, steps


def _oracle(steps) -> list:
    """Per step, the full-data miner's hits on the raw arrays."""
    return [
        _hits(correlation_mining_fulldata(raw[0], raw[1], *binnings, **MINING))
        for _, _, raw, binnings in steps
    ]


def _hits(result):
    value = {(h.a_bin, h.b_bin): h.joint_count for h in result.value_hits}
    spatial = {(h.a_bin, h.b_bin, h.unit) for h in result.spatial_hits}
    return value, spatial


def _check(out: Outcome, step: int, exact, multi, oracle) -> None:
    value, spatial = _hits(exact)
    ok = (value, spatial) == oracle
    m_value, m_spatial = _hits(multi)
    ok = ok and all(oracle[0].get(pair) == jc for pair, jc in m_value.items())
    ok = ok and m_spatial == {h for h in oracle[1] if h[:2] in m_value}
    out.check(ok, f"step {step}")


def _job(steps, oracles, tracer: Tracer, out: Outcome):
    """Mine every step once; returns per-step latencies in seconds and
    the job's work counts."""
    latencies = []
    counts = {"pairs": 0, "value_hits": 0, "spatial_hits": 0}
    for i, (paths, multi, _, _) in enumerate(steps):
        t0 = time.perf_counter()
        with tracer.span("mining.step_ms"):
            with tracer.span("bitmap.serialization.load_index_ms"):
                a, b = (load_index(p) for p in paths)
            with tracer.span("mining.correlation_ms"):
                exact = correlation_mining(a, b, **MINING)
            with tracer.span("mining.multilevel_ms"):
                ml, _ = correlation_mining_multilevel(multi[0], multi[1], **MINING)
        latencies.append(time.perf_counter() - t0)
        _check(out, i, exact, ml, oracles[i])
        counts["pairs"] += exact.n_pairs_evaluated + ml.n_pairs_evaluated
        counts["value_hits"] += len(exact.value_hits)
        counts["spatial_hits"] += len(exact.spatial_hits)
    return latencies, counts


def run(cfg: Config, tracer: Tracer) -> Outcome:
    size = SMOKE if cfg.smoke else FULL
    out = Outcome()
    repeats = 1 if cfg.smoke else SETUP_REPEATS
    setup_times = []
    for rep in range(repeats):
        if rep:
            shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        root, steps = _setup_once(cfg, size, rep)
        setup_times.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    oracles = _oracle(steps)
    out.notes["oracle_s"] = time.perf_counter() - t0
    # Warm-up: one untimed (but checked) job, so the first timed job
    # does not pay for first-touch page faults and cold caches.
    _job(steps, oracles, Tracer(False), out)

    walls = {False: [], True: []}  # by whether the job was traced
    latencies = []
    for tr in iterations(cfg, tracer):
        t0 = time.perf_counter()
        job_latencies, counts = _job(steps, oracles, tr, out)
        walls[tr.enabled].append(time.perf_counter() - t0)
        if tr is tracer:
            latencies += job_latencies
    jobs = walls[cfg.trace]

    store_bytes = sum(p.stat().st_size for p in root.rglob("*.rbmp"))
    raw_bytes = sum(a.nbytes for _, _, raw, _ in steps for a in raw)
    out.metrics = {
        "setup_s": median(setup_times),
        "wall_s": median(jobs),
        "peak_rss_mb": peak_rss_mb(),
        "bytes_written": float(store_bytes),
        "index_bytes_ratio": store_bytes / raw_bytes,
        "qps": len(latencies) / sum(jobs),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
    }
    out.notes.update(
        jobs=len(jobs),
        latency_samples=len(latencies),
        setup_samples=len(setup_times),
    )
    if cfg.trace:
        self_ms = tracer.self_times_ms()
        out.layers = {
            "mining.step_ms": median(tracer.durations_ms("mining.step_ms")),
            "bitmap.serialization.load_index_ms": median(
                self_ms["bitmap.serialization.load_index_ms"]),
            "mining.correlation_ms": median(self_ms["mining.correlation_ms"]),
            "mining.multilevel_ms": median(self_ms["mining.multilevel_ms"]),
            "mining.pairs_evaluated": counts["pairs"],
            "mining.value_hits": counts["value_hits"],
            "mining.spatial_hits": counts["spatial_hits"],
        }
        out.notes["untraced_wall_s"] = median(walls[False])
        out.notes["traced_wall_s"] = median(walls[True])
    return out
