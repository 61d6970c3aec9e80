"""Workloads ``serve_hot`` and ``serve_cold``: TCP query serving.

A ``QueryServer`` with 2 shard workers serves an Ocean (16, 96, 192)
store cut into 4 rank slabs along depth, 64 equal-width bins per
variable.  Two closed-loop client connections (analysts wait for each
reply; 2 connections for 2 CPUs) share one pass over a fixed query mix:
every query class at every stored step.  The next pass starts when both
connections are done, so ``wall_s`` is the time to answer the whole mix
once; an operation is one query.

* ``serve_hot`` -- 8 steps (about 6.7 MiB) under a 64 MiB per-shard
  cache, five classes: global MI, CE with a range predicate, global
  COUNT over a range, a ``mask`` op, and a rank-local COUNT.  After
  warm-up nearly every bitvector is a cache hit.
* ``serve_cold`` -- 32 steps (about 27 MiB) under a 0.5 MiB per-shard
  cache, wide two-variable COUNT ranges, global and rank-local.  The
  working set never fits, so loads and decodes dominate.

Every reply is compared with the in-process ``QueryService`` answer
computed in set-up; a wrong value or mask counts as a failed operation.
"""

from __future__ import annotations

import multiprocessing
import shutil
import threading
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
from ocean_inputs import ocean

from repro.analysis.sql import parse_query
from repro.bitmap import BitmapIndex, EqualWidthBinning, load_index, save_index
from repro.bitmap.serialization import LazyBitmapIndex
from repro.metrics import joint_counts
from repro.service import (
    Catalog,
    QueryServer,
    QueryService,
    ServiceClient,
    merge_rank_partials,
    resolve_global,
)
from repro.service.protocol import decode_body, decode_mask, encode_frame, encode_mask

SETUP_REPEATS = 3
CLIENTS = 2
SHARDS = 2
VARIABLES = ("temperature", "salinity")
ALL_CLASSES = ("mi", "ce_where", "count_range", "count_mask", "count_rank")


@dataclass(frozen=True)
class Size:
    shape: tuple[int, int, int]
    ranks: int
    steps: int
    bins: int
    cache_bytes: int
    classes: tuple[str, ...]
    #: COUNT predicates span most bins of both variables
    wide: bool


COLD_CLASSES = ("count_range", "count_rank")
SIZES = {
    ("serve_hot", False): Size((16, 96, 192), 4, 8, 64, 64 << 20, ALL_CLASSES, False),
    ("serve_cold", False): Size(
        (16, 96, 192), 4, 32, 64, 512 << 10, COLD_CLASSES, True
    ),
    ("serve_hot", True): Size((8, 16, 32), 2, 2, 16, 64 << 20, ALL_CLASSES, False),
    ("serve_cold", True): Size((8, 16, 32), 2, 4, 16, 4 << 10, COLD_CLASSES, True),
}


@dataclass(frozen=True)
class Op:
    cls: str
    kind: str  # "query" or "mask"
    sql: str
    step: int


# ------------------------------------------------------------------ set-up
def _build_store(root, size: Size, seed: int):
    """Simulate, bin, encode and save the rank-slab store; returns the
    raw bytes indexed and the value quantiles the query mix uses."""
    gen = ocean(size.shape, seed)
    snaps = [gen.advance() for _ in range(size.steps)]
    fields = {v: np.stack([s.fields[v] for s in snaps]) for v in VARIABLES}
    del snaps
    binnings = {v: EqualWidthBinning.from_data(fields[v], size.bins) for v in VARIABLES}
    depth = size.shape[0] // size.ranks
    for step in range(size.steps):
        for r in range(size.ranks):
            d = root / f"rank_{r:04d}" / f"step_{step:05d}"
            d.mkdir(parents=True, exist_ok=True)
            for v in VARIABLES:
                slab = fields[v][step, r * depth:(r + 1) * depth].ravel()
                save_index(d / f"{v}.rbmp", BitmapIndex.build(slab, binnings[v]))
    Catalog.build(root)
    quantiles = {
        v: np.quantile(fields[v], [0.05, 0.25, 0.5, 0.75, 0.95]) for v in VARIABLES
    }
    raw = sum(a.nbytes for a in fields.values())
    return raw, quantiles


def _mix(size: Size, q) -> list[Op]:
    t05, t25, t50, t75, t95 = (f"{x:.4f}" for x in q["temperature"])
    s05, s25, s50, s75, s95 = (f"{x:.4f}" for x in q["salinity"])
    ops = []
    for step in range(size.steps):
        r = f"rank_{step % size.ranks:04d}"
        sql = {
            "mi": "SELECT MI FROM temperature, salinity",
            "ce_where": "SELECT CE FROM temperature, salinity "
                        f"WHERE temperature >= {t50}",
            "count_mask": "SELECT COUNT FROM temperature, salinity WHERE "
                          f"temperature BETWEEN {t25} AND {t75} AND salinity >= {s50}",
        }
        if not size.wide:
            sql["count_range"] = ("SELECT COUNT FROM temperature, salinity "
                                  f"WHERE salinity BETWEEN {s25} AND {s75}")
            sql["count_rank"] = (f"SELECT COUNT FROM {r}/temperature, {r}/salinity "
                                 f"WHERE {r}/temperature >= {t50}")
        else:
            sql["count_range"] = (
                "SELECT COUNT FROM temperature, salinity WHERE temperature "
                f"BETWEEN {t05} AND {t95} AND salinity BETWEEN {s05} AND {s95}")
            sql["count_rank"] = (
                f"SELECT COUNT FROM {r}/temperature, {r}/salinity WHERE "
                f"{r}/temperature BETWEEN {t05} AND {t95} AND "
                f"{r}/salinity BETWEEN {s05} AND {s95}")
        for cls in size.classes:
            kind = "mask" if cls == "count_mask" else "query"
            ops.append(Op(cls, kind, sql[cls], step))
    return ops


def _oracle(service: QueryService, ops: list[Op]) -> dict:
    expected = {}
    for op in ops:
        if op.kind == "mask":
            res = service.execute_mask(op.sql, step=op.step)
        else:
            res = service.execute(op.sql, step=op.step)
        expected[op] = (res.value, res.mask)
    return expected


# ---------------------------------------------------------------- traffic
def _call(client: ServiceClient, op: Op) -> dict:
    if op.kind == "mask":
        return client.mask(op.sql, step=op.step)
    return client.query(op.sql, step=op.step)


def _correct(op: Op, reply: dict | None, expected: dict) -> bool:
    if reply is None:
        return False
    value, mask = expected[op]
    ok = reply.get("value") == value and reply.get("step") == op.step
    return ok and (mask is None or reply.get("mask") == mask)


class _Clients:
    """The closed-loop connections; a failed call reconnects its slot."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conns = [ServiceClient("127.0.0.1", port) for _ in range(CLIENTS)]

    def run_pass(self, ops: list[Op], tracer: Tracer):
        """Both connections work through their share of ``ops``; returns
        the pass wall time and ``(op, latency_s, reply)`` records."""
        records: list[list] = [[] for _ in range(CLIENTS)]
        root = tracer.begin("service.client.pass_ms")

        def work(k: int) -> None:
            for op in ops[k::CLIENTS]:
                span = tracer.begin(f"service.client.loaded_ms.{op.cls}", root)
                t0 = time.perf_counter()
                try:
                    reply = _call(self.conns[k], op)
                except Exception:  # noqa: BLE001 - a failure is a result here
                    reply = None
                    self.conns[k].close()
                    try:
                        self.conns[k] = ServiceClient("127.0.0.1", self.port)
                    except OSError:
                        pass  # the closed connection fails every later call
                records[k].append((op, time.perf_counter() - t0, reply))
                tracer.end(span)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        tracer.end(root)
        return wall, [r for per in records for r in per]

    def close(self) -> None:
        for c in self.conns:
            c.close()


def _setup_once(cfg: Config, size: Size, rep: int):
    root = cfg.work / f"store_{rep}"
    raw, quantiles = _build_store(root, size, cfg.seed)
    ops = _mix(size, quantiles)
    server = QueryServer(root, shards=SHARDS, cache_bytes=size.cache_bytes).launch()
    clients = _Clients(server.port)
    _, warm = clients.run_pass(ops, Tracer(False))
    return root, raw, ops, server, clients, warm


def _cache_totals(server: QueryServer) -> dict:
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for shard in server.pool.stats():
        for key in totals:
            totals[key] += shard["cache"][key]
    return totals


# --------------------------------------------------------------- workload
def run(cfg: Config, tracer: Tracer) -> Outcome:
    size = SIZES[(cfg.workload, cfg.smoke)]
    out = Outcome()
    repeats = 1 if cfg.smoke else SETUP_REPEATS
    setup_times = []
    for rep in range(repeats):
        t0 = time.perf_counter()
        root, raw, ops, server, clients, warm = _setup_once(cfg, size, rep)
        setup_times.append(time.perf_counter() - t0)
        if rep < repeats - 1:
            clients.close()
            server.close()
            shutil.rmtree(root, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        oracle = QueryService(root, cache_bytes=1 << 30, max_workers=1)
        expected = _oracle(oracle, ops)
        out.notes["oracle_s"] = time.perf_counter() - t0
        for op, _, reply in warm:
            out.check(_correct(op, reply, expected), f"warm-up {op}")

        cache_before = _cache_totals(server)
        walls = {False: [], True: []}  # by whether the pass was traced
        records = []
        for tr in iterations(cfg, tracer):
            wall, recs = clients.run_pass(ops, tr)
            walls[tr.enabled].append(wall)
            for op, _, reply in recs:
                out.check(_correct(op, reply, expected), f"{op}")
            if tr is tracer:
                records.extend(recs)
        cache_after = _cache_totals(server)
        passes = walls[cfg.trace]

        lat_ms = [lat * 1e3 for _, lat, _ in records]
        store_bytes = sum(p.stat().st_size for p in root.rglob("*.rbmp"))
        out.metrics = {
            "setup_s": median(setup_times),
            "wall_s": median(passes),
            "bytes_written": float(store_bytes),
            "index_bytes_ratio": store_bytes / raw,
            "qps": len(records) / sum(passes),
            "latency_p50_ms": median(lat_ms),
            "latency_p95_ms": percentile(lat_ms, 0.95),
        }
        out.notes.update(
            passes=len(passes),
            ops_per_pass=len(ops),
            latency_samples=len(lat_ms),
            setup_samples=len(setup_times),
            ops_per_class={c: sum(o.cls == c for o in ops) for c in size.classes},
        )
        if cfg.trace:
            out.layers = _layers(
                size, tracer, server, clients, oracle, ops, expected,
                records, cache_before, cache_after, out,
            )
            out.notes["untraced_wall_s"] = median(walls[False])
            out.notes["traced_wall_s"] = median(walls[True])
        children = [p.pid for p in multiprocessing.active_children()]
        out.metrics["peak_rss_mb"] = peak_rss_mb(children)
        oracle.close()
    finally:
        clients.close()
        server.close()
    return out


# ------------------------------------------------------------ layer probes
def _layers(size, tracer, server, clients, oracle, ops, expected,
            records, cache_before, cache_after, out) -> dict:
    layers: dict[str, float] = {}
    by_class = {c: [op for op in ops if op.cls == c] for c in size.classes}
    probes = {c: by_class[c][:8] for c in size.classes}
    client = clients.conns[0]

    # Unloaded round trips, then the same requests handled in-process.
    for c, sample in probes.items():
        for op in sample:
            with tracer.span(f"service.client.rtt_ms.{c}"):
                reply = _call(client, op)
            out.check(_correct(op, reply, expected), f"probe {op}")
        sizes = []
        for op in sample:
            request = {"op": op.kind, "sql": op.sql, "step": op.step}
            with tracer.span(f"service.server.handle_ms.{c}"):
                reply = server.handle_request(request)
            with tracer.span("service.protocol.frame_codec_ms"):
                frame = encode_frame(reply)
                decode_body(frame[4:])
            sizes.append(len(frame))
            if op.kind == "mask":
                reply = dict(reply, mask=decode_mask(reply["mask"]))
            out.check(_correct(op, reply, expected), f"handle {op}")
        layers[f"service.protocol.reply_bytes.{c}"] = median(sizes)

    for op in by_class.get("count_mask", []):
        mask = expected[op][1]
        with tracer.span("service.protocol.mask_codec_ms"):
            decode_mask(encode_mask(mask))

    for op in ops:
        with tracer.span("service.executor.parse_ms"):
            query = parse_query(op.sql)
        with tracer.span("service.executor.resolve_ms"):
            resolve_global(server.catalog, query, op.step)

    # One rank's partial through the shard pipe against the same call
    # in-process; both warm, so the difference is the RPC.
    global_ops = [op for op in ops if op.cls != "count_rank" and op.step == 0]
    for op in global_ops:
        want_mask = op.kind == "mask"
        kw = dict(step=op.step, want_mask=want_mask)
        server.pool.partial(op.sql, "rank_0000", **kw)
        oracle.rank_partial(op.sql, rank="rank_0000", **kw)
        for _ in range(5):
            with tracer.span("service.shard.partial_ms"):
                server.pool.partial(op.sql, "rank_0000", **kw)
            with tracer.span("service.executor.rank_partial_ms"):
                oracle.rank_partial(op.sql, rank="rank_0000", **kw)
        ranks = resolve_global(oracle.catalog, parse_query(op.sql), op.step).ranks
        partials = [oracle.rank_partial(op.sql, rank=r, **kw) for r in ranks]
        metric = parse_query(op.sql).metric
        for _ in range(5):
            with tracer.span("service.executor.merge_ms"):
                value, _ = merge_rank_partials(metric, want_mask, partials)
        out.check(value == expected[op][0], f"merge {op}")

    entries = oracle.catalog.entries()[:8]
    for entry in entries:
        lazy = LazyBitmapIndex(oracle.catalog.path_of(entry))
        try:
            with tracer.span("bitmap.serialization.load_bin_ms"):
                lazy.get(lazy.n_bins // 2)
        finally:
            lazy.close()

    if "mi" in size.classes:
        step_dir = server.root / "rank_0000" / "step_00000"
        a = load_index(step_dir / "temperature.rbmp")
        b = load_index(step_dir / "salinity.rbmp")
        with tracer.span("metrics.joint_counts_ms"):
            first = joint_counts(a, b)
        with tracer.span("metrics.joint_counts_memo_ms"):
            again = joint_counts(a, b)
        out.check(bool(np.array_equal(first, again)), "joint_counts repeat")

    # Loaded and pass spans overlap across the two connections, so they
    # are reported by duration below rather than by self time.
    for name, values in tracer.self_times_ms().items():
        if not name.startswith(("service.client.loaded_ms.", "service.client.pass_ms")):
            layers[name] = median(values)
    loaded = {c: [lat * 1e3 for op, lat, _ in records if op.cls == c]
              for c in size.classes}
    for c in size.classes:
        layers[f"service.client.loaded_ms.{c}"] = median(loaded[c])
        layers[f"service.server.queue_wait_ms.{c}"] = (
            median(loaded[c]) - layers[f"service.client.rtt_ms.{c}"]
        )
        layers[f"service.protocol.wire_ms.{c}"] = (
            layers[f"service.client.rtt_ms.{c}"]
            - layers[f"service.server.handle_ms.{c}"]
        )
        stats = [reply["stats"] for op, _, reply in records
                 if op.cls == c and reply is not None]
        layers[f"service.executor.bitvectors_planned.{c}"] = median(
            s["bitvectors_planned"] for s in stats)
        layers[f"service.executor.bytes_loaded.{c}"] = median(
            s["bytes_loaded"] for s in stats)
    all_stats = [reply["stats"] for _, _, reply in records if reply is not None]
    for phase in ("plan", "load", "execute"):
        layers[f"service.executor.{phase}_ms"] = median(
            s[f"{phase}_s"] * 1e3 for s in all_stats)
    layers["service.shard.rpc_ms"] = (
        layers["service.shard.partial_ms"] - layers["service.executor.rank_partial_ms"]
    )
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    layers["service.cache.hit_rate"] = hits / max(hits + misses, 1)
    layers["service.cache.evictions"] = float(
        cache_after["evictions"] - cache_before["evictions"])
    layers["service.client.pass_ms"] = median(
        tracer.durations_ms("service.client.pass_ms"))
    return layers
