"""Tests for the networked query server (repro.service.server).

The acceptance bar: every query must return byte-identical bitvectors
and identical values through (a) the in-process :class:`QueryService`
and (b) the sharded network server, across shard counts {1, 2, 4}; and
overload must be bounded -- structured errors, no hangs, full recovery.
"""

import socket
import threading

import numpy as np
import pytest

from repro.analysis.sql import query as oracle_query
from repro.service import (
    QueryServer,
    QueryService,
    RemoteOverloadError,
    RemoteQueryError,
    ServiceClient,
)
from repro.service.protocol import encode_frame, recv_frame, send_frame

DIFFERENTIAL_QUERIES = [
    "SELECT MI FROM temperature, salinity",
    "SELECT CE FROM temperature, salinity",
    "SELECT EMD FROM temperature, temperature",
    "SELECT COUNT FROM temperature, salinity",
    "SELECT COUNT FROM temperature, salinity "
    "WHERE temperature BETWEEN 2 AND 7",
    "SELECT MI FROM temperature, salinity "
    "WHERE temperature >= 3 AND salinity <= 35",
    "SELECT COUNT FROM rank_0001/temperature, rank_0001/salinity",
]

MASK_QUERIES = [
    "SELECT COUNT FROM temperature, salinity",
    "SELECT COUNT FROM temperature, salinity "
    "WHERE temperature BETWEEN 2 AND 7 AND salinity >= 30",
    "SELECT COUNT FROM rank_0002/temperature, rank_0002/salinity "
    "WHERE rank_0002/temperature <= 5",
]


@pytest.fixture(scope="module", params=[1, 2, 4])
def served(request, rank_store_env):
    """One launched server per shard count, plus the in-process service."""
    root, _, _ = rank_store_env
    with QueryService(root, max_workers=2) as svc:
        with QueryServer(root, shards=request.param, port=0).launch() as server:
            yield svc, server, request.param


class TestDifferential:
    @pytest.mark.parametrize("sql", DIFFERENTIAL_QUERIES)
    @pytest.mark.parametrize("step", [0, 2])
    def test_values_identical_to_in_process(self, served, sql, step):
        svc, server, _ = served
        local = svc.execute(sql, step=step)
        with ServiceClient("127.0.0.1", server.port) as client:
            remote = client.query(sql, step=step)
        assert remote["value"] == local.value  # ==, not approx: bit-identical
        assert remote["step"] == local.step
        assert remote["metric"] == local.metric

    @pytest.mark.parametrize("sql", MASK_QUERIES)
    def test_masks_byte_identical_to_in_process(self, served, sql):
        svc, server, _ = served
        local = svc.execute_mask(sql, step=0)
        with ServiceClient("127.0.0.1", server.port) as client:
            remote = client.mask(sql, step=0)
        assert remote["value"] == local.value
        assert remote["mask"].n_bits == local.mask.n_bits
        assert np.array_equal(remote["mask"].words, local.mask.words)

    def test_values_match_concatenated_oracle(self, served, rank_store_env):
        _, server, _ = served
        _, serial, _ = rank_store_env
        sql = "SELECT MI FROM temperature, salinity"
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.query(sql, step=0)["value"] == oracle_query(
                sql, serial[0]
            )

    def test_global_queries_report_their_scatter(self, served):
        _, server, _ = served
        with ServiceClient("127.0.0.1", server.port) as client:
            response = client.query("SELECT MI FROM temperature, salinity")
        assert response["sharded"] is True
        assert response["ranks"] == ["rank_0000", "rank_0001", "rank_0002"]
        assert response["stats"]["total_s"] > 0


class TestErrors:
    def test_query_faults_are_structured(self, served):
        _, server, _ = served
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(RemoteQueryError) as info:
                client.query("SELECT MI FROM nosuch, salinity")
            assert info.value.kind == "query"
            # The connection survives the error.
            assert client.ping()

    def test_malformed_sql_is_a_query_error(self, served):
        _, server, _ = served
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(RemoteQueryError) as info:
                client.query("SELEC MI FRM a b")
            assert info.value.kind == "query"

    def test_mask_of_metric_rejected(self, served):
        _, server, _ = served
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(RemoteQueryError, match="COUNT"):
                client.mask("SELECT MI FROM temperature, salinity")

    def test_unknown_op_is_protocol_error(self, served):
        _, server, _ = served
        with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
            send_frame(sock, {"op": "purge"})
            response = recv_frame(sock)
        assert response["ok"] is False
        assert response["error"]["type"] == "protocol"

    def test_missing_sql_is_protocol_error(self, served):
        _, server, _ = served
        with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
            send_frame(sock, {"op": "query"})
            response = recv_frame(sock)
        assert response["error"]["type"] == "protocol"

    def test_garbage_frame_answered_then_dropped(self, served):
        _, server, _ = served
        with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
            frame = encode_frame({"op": "ping"})
            sock.sendall(len(frame).to_bytes(4, "big") + b"\x00" * len(frame))
            response = recv_frame(sock)
            assert response["error"]["type"] == "protocol"
            # The stream is unframed after garbage: server closes it.
            assert sock.recv(1) == b""

    def test_stats_op(self, served):
        _, server, shards = served
        with ServiceClient("127.0.0.1", server.port) as client:
            client.query("SELECT COUNT FROM temperature, salinity", step=0)
            stats = client.stats()
        assert stats["server"]["served"] >= 1
        assert stats["server"]["shards"] == shards
        assert len(stats["shards"]) == shards


class TestOverload:
    def test_bounded_overload_with_recovery(self, rank_store_env):
        """Past max_pending the server sheds with structured errors --
        zero hard failures, zero hangs -- and then recovers to serve the
        baseline workload.  Invalid SQL mixed into the burst is answered
        with query errors, and the server's counters balance exactly."""
        root, _, _ = rank_store_env
        sql = "SELECT MI FROM temperature, salinity"
        bad_sql = "SELECT MI FROM"
        with QueryServer(root, shards=2, port=0, max_pending=2).launch() as server:
            served = [0]
            shed = [0]
            invalid = [0]
            failed = [0]
            tally = threading.Lock()

            def hammer():
                with ServiceClient("127.0.0.1", server.port) as client:
                    for i in range(6):
                        try:
                            client.query(bad_sql if i % 3 == 2 else sql, step=0)
                            with tally:
                                served[0] += 1
                        except RemoteOverloadError:
                            with tally:
                                shed[0] += 1
                        except RemoteQueryError:
                            with tally:
                                invalid[0] += 1
                        except Exception:
                            with tally:
                                failed[0] += 1

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert failed[0] == 0
            assert served[0] + shed[0] + invalid[0] == 48
            assert served[0] > 0
            stats = server.server_stats()
            assert stats["pending"] == 0
            assert stats["rejected"] == shed[0]
            assert stats["served"] == served[0]
            assert stats["errors"] == invalid[0]
            # Recovery: baseline runs clean after the burst.
            with ServiceClient("127.0.0.1", server.port) as client:
                for _ in range(4):
                    assert client.query(sql, step=0)["value"] > 0.0
