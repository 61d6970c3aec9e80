"""Networked sharded query server: asyncio front end over shard workers.

Topology (``repro serve --port P --shards N``)::

    client -- TCP, length-prefixed JSON --> front end (asyncio)
                                              |  scatter (pipes)
                                  +-----------+-----------+
                                  v           v           v
                               shard 0     shard 1     shard N-1
                             QueryService QueryService QueryService

The front end owns three things and deliberately nothing else:

* **framing** -- :mod:`repro.service.protocol`; every well-formed frame
  gets an answer, errors included;
* **admission** -- one atomic counter bounding queries in flight across
  *all* connections, the same check-then-act-free discipline as
  :meth:`~repro.service.executor.QueryService.submit`.  Past
  ``max_pending`` the server sheds load with a structured ``overload``
  error instead of queueing without bound -- overload degrades service,
  it never hangs it;
* **planning** -- parse, resolve the step, and route: a global
  (unqualified) variable over a cluster store scatters to the shards
  owning its rank slabs and gathers their partials with
  :func:`~repro.service.executor.merge_rank_partials` (splice for masks,
  exact integer sums for counts and joint histograms), so the networked
  answer is bit-identical to the in-process one; anything else routes
  whole to a single shard.

With ``replicate=True`` (``repro serve --replicate``) a fourth concern
is delegated to :mod:`repro.service.hotset`: a
:class:`~repro.service.hotset.ReplicaManager` loop watches the workers'
decayed access counters, pushes the hot bitvectors into byte-budgeted
replica slots on non-owner workers, and publishes an epoch-stamped
:class:`~repro.service.hotset.RoutingTable` this dispatcher consults --
rank-targeted and hot-bin queries then land on the least-loaded replica
holder instead of always the owner, and a stale route falls back to the
owner.  Replication never changes a result (every worker reads the same
store and runs the same code); it changes only where the work runs.

Execution happens only in the shard workers; the front end's event loop
never blocks on bitmap work (dispatch runs on a thread pool, shard fan-out
on a second pool so a scatter cannot starve the dispatcher that issued
it).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.analysis.sql import QueryError, parse_query
from repro.bitmap.zorder import ZOrderLayout
from repro.service.catalog import Catalog
from repro.service.executor import (
    ServiceOverloadError,
    merge_rank_partials,
    resolve_global,
)
from repro.service.hotset import ReplicaManager, RoutingTable, rank_of_variable
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_mask,
    error_response,
    read_frame,
    write_frame,
)
from repro.service.shard import ShardError, ShardPool


class QueryServer:
    """The sharded network server; construct, then ``run()`` or ``launch()``.

    Parameters
    ----------
    root:
        Bitmap store directory (single-node or cluster layout).
    shards:
        Worker process count; rank directories round-robin across them.
    host / port:
        Bind address; port 0 picks a free port (``self.port`` after start).
    max_pending:
        Front-end admission bound across all connections.
    cache_bytes:
        Per-shard bitvector cache budget.
    layout:
        Optional Z-order layout enabling REGION predicates (single-file
        queries only).
    replicate:
        Enable the hot-set replication loop: access-driven replica
        placement plus adaptive (least-loaded replica holder) routing.
    hotset_budget:
        Per-worker replica slot budget in bytes (``replicate=True``).
    rebalance_interval:
        Seconds between :class:`~repro.service.hotset.ReplicaManager`
        policy cycles on the background thread.
    hotset_top_k:
        How many globally hottest bitvectors each cycle may replicate.
    """

    def __init__(
        self,
        root: Path | str,
        *,
        shards: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 64,
        cache_bytes: int = 64 << 20,
        layout: ZOrderLayout | None = None,
        start_method: str | None = None,
        replicate: bool = False,
        hotset_budget: int = 8 << 20,
        rebalance_interval: float = 2.0,
        hotset_top_k: int = 16,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"need max_pending >= 1, got {max_pending}")
        self.root = Path(root)
        self.host = host
        self.port = int(port)  # rebound to the real port once listening
        self.max_pending = int(max_pending)
        self.catalog = Catalog.open(self.root)
        # Workers fork *before* any event loop or pool thread exists.
        self.pool = ShardPool(
            self.root,
            shards,
            cache_bytes=cache_bytes,
            layout=layout,
            start_method=start_method,
            hotset_budget=hotset_budget,
        )
        self.routing = RoutingTable()
        self.replicator: ReplicaManager | None = None
        if replicate:
            self.replicator = ReplicaManager(
                self.pool,
                self.routing,
                budget_bytes=hotset_budget,
                top_k=hotset_top_k,
                interval_s=rebalance_interval,
            )
        self._dispatch = ThreadPoolExecutor(
            max_workers=max(4, 2 * shards), thread_name_prefix="repro-serve"
        )
        # Scatters fan out on their own pool: a dispatch thread blocked on
        # its shards must never wait behind other dispatches for a thread.
        self._scatter = ThreadPoolExecutor(
            max_workers=max(4, 2 * shards), thread_name_prefix="repro-scatter"
        )
        self._admission = threading.Lock()
        self._pending = 0
        self._served = 0
        self._rejected = 0
        self._errors = 0
        self._connections = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._closed = False

    # ---------------------------------------------------------- admission
    def _admit(self) -> None:
        with self._admission:
            if self._pending >= self.max_pending:
                self._rejected += 1
                raise ServiceOverloadError(self._pending, self.max_pending)
            self._pending += 1

    def _unadmit(self, served: bool) -> None:
        """Release an admission slot and count how the request ended."""
        with self._admission:
            self._pending -= 1
            if served:
                self._served += 1
            else:
                self._errors += 1

    # ----------------------------------------------------------- dispatch
    def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """One request -> one response dict.  Never raises.

        Runs on the dispatch pool (never the event loop).  Public so unit
        tests can exercise routing without sockets.
        """
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "version": PROTOCOL_VERSION}
        if op == "stats":
            return {"ok": True, "server": self.server_stats(),
                    "shards": self.pool.stats()}
        if op not in ("query", "mask"):
            return error_response("protocol", f"unknown op {op!r}")
        sql = request.get("sql")
        if not isinstance(sql, str):
            return error_response("protocol", "request needs a string 'sql'")
        step = request.get("step")
        if step is not None and not isinstance(step, int):
            return error_response("protocol", "'step' must be an integer")
        try:
            self._admit()
        except ServiceOverloadError as exc:
            return error_response("overload", str(exc))
        served = False
        try:
            response = self._execute(sql, step, want_mask=(op == "mask"))
            served = True
            return response
        except QueryError as exc:
            return error_response("query", str(exc))
        except ShardError as exc:
            return error_response("internal", str(exc))
        except Exception as exc:  # noqa: BLE001 - the reply IS the report
            return error_response(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._unadmit(served)

    def _execute(
        self, sql: str, step: int | None, *, want_mask: bool
    ) -> dict[str, Any]:
        query = parse_query(sql)
        if want_mask and query.metric != "COUNT":
            raise QueryError(f"mask results require COUNT, not {query.metric}")
        glob = resolve_global(self.catalog, query, step)
        if glob is None:
            rank = rank_of_variable(query.var_a)
            route = self.routing.lookup(rank) if rank is not None else None
            result = self.pool.query(
                sql, query.var_a, step=step, want_mask=want_mask, route=route
            )
            response = {
                "ok": True,
                "value": result.value,
                "metric": result.metric,
                "step": result.step,
                "sharded": False,
                "stats": result.stats.as_dict(),
            }
            if want_mask:
                response["mask"] = encode_mask(result.mask)
            return response

        # Scatter: each rank's partial on its owning shard, gathered with
        # the exact merge.  Slab order is glob.ranks order -- preserved
        # through the list regardless of completion order.
        futures = [
            self._scatter.submit(
                self.pool.partial, sql, rank, step=glob.step,
                want_mask=want_mask, route=self.routing.lookup(rank),
            )
            for rank in glob.ranks
        ]
        partials = [f.result() for f in futures]
        value, mask = merge_rank_partials(query.metric, want_mask, partials)
        stats = partials[0].stats
        for partial in partials[1:]:
            stats.absorb(partial.stats)
        response = {
            "ok": True,
            "value": value,
            "metric": query.metric,
            "step": glob.step,
            "sharded": True,
            "ranks": list(glob.ranks),
            "stats": stats.as_dict(),
        }
        if want_mask:
            response["mask"] = encode_mask(mask)
        return response

    # ------------------------------------------------------------- asyncio
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    # The stream is no longer frame-aligned: answer once,
                    # then drop the connection.
                    try:
                        await write_frame(
                            writer, error_response("protocol", str(exc))
                        )
                    except (ConnectionError, OSError):
                        pass
                    break
                if request is None:
                    break
                response = await loop.run_in_executor(
                    self._dispatch, self.handle_request, request
                )
                await write_frame(writer, response)
        except (ConnectionError, OSError):
            pass  # client went away mid-exchange
        except asyncio.CancelledError:
            # Server stopping with this connection open: complete the
            # task normally so teardown doesn't log a cancellation.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: the loop is unwinding (stop() during an
                # open connection); the transport is closed either way,
                # and completing normally keeps shutdown log-silent.
                pass

    # --------------------------------------------------------- replication
    def rebalance(self):
        """Force one replica-placement cycle now (tests, benchmarks).

        Returns the :class:`~repro.service.hotset.ReplicationReport`, or
        ``None`` when the server was built with ``replicate=False``.
        """
        if self.replicator is None:
            return None
        return self.replicator.rebalance()

    def refresh_catalog(self) -> None:
        """Re-scan the store and invalidate every adaptive structure.

        The order matters: routes go stale *first* (dispatch falls back
        to owners immediately), then worker replicas are dropped and
        worker catalogs rebuilt, then the front-end catalog re-scans.
        The next policy cycle rebuilds placement at the new epoch.
        """
        self.routing.invalidate()
        self.pool.clear_replicas()
        self.pool.refresh_workers()
        self.catalog.refresh()

    async def run_async(self) -> None:
        """Serve until :meth:`stop` (or cancellation); asyncio-native."""
        if self.replicator is not None:
            self.replicator.start()
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            self._ready.clear()

    def run(self) -> None:
        """Serve in the calling thread until interrupted (CLI foreground)."""
        try:
            asyncio.run(self.run_async())
        finally:
            self.close()

    # ----------------------------------------------------- background mode
    def launch(self, *, timeout: float = 10.0) -> "QueryServer":
        """Start serving on a daemon thread; returns once listening.

        ``self.port`` holds the bound port.  Used by tests and the load
        generator; the CLI runs :meth:`run` in the foreground instead.
        """
        if self._thread is not None:
            raise RuntimeError("server already launched")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.run_async()),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"server did not start within {timeout}s")
        return self

    def stop(self) -> None:
        """Stop accepting and unwind the loop (idempotent, thread-safe)."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and loop.is_running():
            loop.call_soon_threadsafe(event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def close(self) -> None:
        """Stop serving and tear down shard workers and pools."""
        if self._closed:
            return
        self._closed = True
        if self.replicator is not None:
            self.replicator.stop()
        self.stop()
        self._dispatch.shutdown(wait=True)
        self._scatter.shutdown(wait=True)
        self.pool.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- stats
    def server_stats(self) -> dict:
        with self._admission:
            counters = {
                "served": self._served,
                "rejected": self._rejected,
                "errors": self._errors,
                "pending": self._pending,
            }
        return {
            **counters,
            "connections": self._connections,
            "shards": self.pool.n_shards,
            "max_pending": self.max_pending,
            "dispatch": self.pool.dispatch_counts(),
            "respawns": self.pool.respawn_counts(),
            "replication": {
                "enabled": self.replicator is not None,
                **(
                    self.replicator.stats()
                    if self.replicator is not None
                    else {"epoch": self.routing.epoch, "routes": {}}
                ),
            },
        }

    def __repr__(self) -> str:
        return (
            f"QueryServer({str(self.root)!r}, {self.host}:{self.port}, "
            f"shards={self.pool.n_shards}, stats={self.server_stats()!r})"
        )
