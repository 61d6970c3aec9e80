"""Tests for the concurrent query executor (repro.service.executor)."""

import sys
import threading

import numpy as np
import pytest

from repro.analysis.sql import QueryError, query as oracle_query
from repro.bitmap import BitmapIndex, EqualWidthBinning, save_index
from repro.bitmap.index import overlapping_bins
from repro.service import (
    BitvectorCache,
    Catalog,
    QueryService,
    ServiceOverloadError,
)

COUNT_ONE_BIN = (
    "SELECT COUNT FROM temperature, salinity WHERE temperature BETWEEN {lo} AND {hi}"
)


@pytest.fixture
def service(store_env, layout):
    root, _, _ = store_env
    with QueryService(root, layout=layout, max_workers=2) as svc:
        yield svc


def _one_bin_query(binnings) -> str:
    """A value predicate that overlaps exactly one temperature bin."""
    edges = binnings["temperature"].edges
    lo = float(edges[3]) + 1e-9
    hi = float(edges[4]) - 1e-9
    sql = COUNT_ONE_BIN.format(lo=lo, hi=hi)
    assert overlapping_bins(binnings["temperature"], lo, hi).size == 1
    return sql


class TestCorrectness:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT MI FROM temperature, salinity",
            "SELECT CE FROM temperature, salinity",
            "SELECT COUNT FROM temperature, salinity",
            "SELECT COUNT FROM temperature, salinity WHERE temperature >= 12",
            "SELECT MI FROM temperature, salinity WHERE salinity <= 33 "
            "AND temperature BETWEEN 8 AND 20",
            "SELECT COUNT FROM temperature, salinity WHERE REGION(0:4, 0:8, 0:16)",
            "SELECT COUNT FROM temperature, salinity "
            "WHERE temperature >= 12 AND REGION(0:8, 0:8, 0:8)",
        ],
    )
    def test_matches_whole_index_oracle(self, service, store_env, layout, sql):
        _, indices, _ = store_env
        for step in (0, 2):
            got = service.execute(sql, step=step)
            expect = oracle_query(sql, indices[step], layout=layout)
            assert got.value == pytest.approx(expect)
            assert got.step == step

    def test_default_step_is_latest(self, service, store_env, layout):
        _, indices, _ = store_env
        got = service.execute("SELECT MI FROM temperature, salinity")
        expect = oracle_query(
            "SELECT MI FROM temperature, salinity", indices[2], layout=layout
        )
        assert got.step == 2
        assert got.value == pytest.approx(expect)

    def test_emd_on_shared_scale(self, service, store_env, layout):
        _, indices, _ = store_env
        sql = "SELECT EMD FROM temperature, temperature"
        got = service.execute(sql, step=1)
        expect = oracle_query(sql, indices[1], layout=layout)
        assert got.value == pytest.approx(expect)

    def test_query_errors_propagate(self, service):
        with pytest.raises(QueryError, match="unknown variable"):
            service.execute("SELECT MI FROM temperature, pressure")
        with pytest.raises(QueryError, match="not in the FROM"):
            service.execute(
                "SELECT COUNT FROM temperature, salinity WHERE depth >= 1"
            )

    def test_region_without_layout_rejected_in_plan(self, store_env):
        root, _, _ = store_env
        with QueryService(root) as svc:
            with pytest.raises(QueryError, match="ZOrderLayout"):
                svc.execute(
                    "SELECT COUNT FROM temperature, salinity "
                    "WHERE REGION(0:2, 0:2, 0:2)"
                )
            # Planning failed before any bitvector was touched.
            assert svc.file_reads() == 0


class TestLazyLoading:
    def test_cold_single_bin_query_reads_one_record(self, store_env, layout):
        """The acceptance criterion: a single-bin COUNT against a
        multi-bin stored index reads exactly that bin's bytes."""
        root, _, binnings = store_env
        sql = _one_bin_query(binnings)
        with QueryService(root, layout=layout) as svc:
            result = svc.execute(sql, step=1)
            entry = svc.catalog.entry("temperature", 1)
            assert result.stats.bitvectors_planned == 1
            assert result.stats.cache_misses == 1
            # Bytes read from disk == that one record, << the whole file.
            assert svc.file_bytes_read() == result.stats.bytes_loaded
            assert 0 < result.stats.bytes_loaded < entry.nbytes / 4
            assert svc.file_reads() == 1

    def test_warm_repeat_reads_nothing(self, store_env, layout):
        root, _, binnings = store_env
        sql = _one_bin_query(binnings)
        with QueryService(root, layout=layout) as svc:
            cold = svc.execute(sql, step=1)
            bytes_after_cold = svc.file_bytes_read()
            warm = svc.execute(sql, step=1)
            assert warm.value == cold.value
            assert svc.file_bytes_read() == bytes_after_cold  # zero new reads
            assert warm.stats.cache_misses == 0
            assert warm.stats.cache_hits == cold.stats.cache_misses
            assert warm.stats.bytes_loaded == 0

    def test_unpredicated_count_loads_nothing(self, service):
        result = service.execute(
            "SELECT COUNT FROM temperature, salinity", step=0
        )
        assert result.stats.bitvectors_planned == 0
        assert result.value == float(8 * 16 * 32)

    def test_full_metric_loads_all_bins_once(self, store_env, layout):
        root, indices, _ = store_env
        n_bins = indices[0]["temperature"].n_bins
        with QueryService(root, layout=layout) as svc:
            result = svc.execute("SELECT MI FROM temperature, salinity", step=0)
            assert result.stats.bitvectors_planned == 2 * n_bins
            assert result.stats.cache_misses == 2 * n_bins
            total = (
                svc.catalog.entry("temperature", 0).nbytes
                + svc.catalog.entry("salinity", 0).nbytes
            )
            assert result.stats.bytes_loaded < total  # headers/tables skipped

    def test_tiny_cache_still_correct(self, store_env, layout):
        """With a cache too small for the working set, queries still
        return correct values -- they just reload."""
        root, indices, _ = store_env
        with QueryService(
            root, layout=layout, cache=BitvectorCache(64)
        ) as svc:
            sql = "SELECT MI FROM temperature, salinity"
            a = svc.execute(sql, step=0)
            b = svc.execute(sql, step=0)
            expect = oracle_query(sql, indices[0], layout=layout)
            assert a.value == pytest.approx(expect)
            assert b.value == pytest.approx(expect)
            assert b.stats.cache_misses > 0  # nothing could be retained


class TestV1Stores:
    def test_v1_files_are_served(self, tmp_path, rng):
        """A store written entirely in the legacy V1 format still serves."""
        t = rng.uniform(0.0, 10.0, 4096)
        s = np.where(rng.random(4096) < 0.5, t * 3.0, rng.uniform(0, 30, 4096))
        indices = {
            "temperature": BitmapIndex.build(t, EqualWidthBinning(0, 10, 12)),
            "salinity": BitmapIndex.build(s, EqualWidthBinning(0, 30, 12)),
        }
        step_dir = tmp_path / "step_00000"
        step_dir.mkdir()
        for name, index in indices.items():
            save_index(step_dir / f"{name}.rbmp", index, version=1)
        with QueryService(tmp_path) as svc:
            assert {e.version for e in svc.catalog.entries()} == {1}
            sql = "SELECT MI FROM temperature, salinity WHERE temperature >= 5"
            got = svc.execute(sql)
            assert got.value == pytest.approx(oracle_query(sql, indices))
            # Lazy single-bin access works on V1 too (offsets via scan).
            one = svc.execute(
                "SELECT COUNT FROM temperature, salinity "
                "WHERE temperature BETWEEN 0.1 AND 0.8"
            )
            assert one.stats.bitvectors_planned == 1


class TestConcurrency:
    def test_concurrent_results_match(self, service, store_env, layout):
        _, indices, _ = store_env
        sqls = [
            "SELECT MI FROM temperature, salinity",
            "SELECT CE FROM temperature, salinity",
            "SELECT COUNT FROM temperature, salinity WHERE salinity >= 33",
            "SELECT COUNT FROM temperature, salinity WHERE temperature <= 14",
        ] * 3
        results = service.execute_many(sqls, step=1)
        for sql, result in zip(sqls, results):
            assert result.value == pytest.approx(
                oracle_query(sql, indices[1], layout=layout)
            )

    def test_overload_burst_rejects_cleanly(self, store_env, layout):
        """Saturating the pool raises the typed error instead of queueing
        unboundedly or deadlocking; in-flight queries still finish."""
        root, _, _ = store_env
        gate = threading.Event()
        with QueryService(
            root, layout=layout, max_workers=1, max_pending=2
        ) as svc:
            blocker = svc._pool.submit(gate.wait)  # occupy the worker
            sql = "SELECT COUNT FROM temperature, salinity"
            admitted = [svc.submit(sql, step=0) for _ in range(2)]
            with pytest.raises(ServiceOverloadError) as info:
                svc.submit(sql, step=0)
            assert info.value.pending == 2
            assert info.value.capacity == 2
            assert svc.service_stats()["rejected"] == 1
            gate.set()
            assert [f.result().value for f in admitted] == [4096.0, 4096.0]
            blocker.result()
        # After draining, admission is available again in a fresh service.
        with QueryService(root, layout=layout, max_pending=2) as svc:
            assert svc.submit(sql, step=0).result().value == 4096.0

    def test_submit_after_close_rejected(self, store_env):
        root, _, _ = store_env
        svc = QueryService(root)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit("SELECT COUNT FROM temperature, salinity")


class TestAdmissionRace:
    def test_hammering_never_exceeds_capacity(self, store_env):
        """Check-then-act regression: mixed execute/submit callers racing
        the admission boundary can never drive in-flight past the bound."""
        root, _, _ = store_env
        capacity = 3
        svc = QueryService(root, max_workers=2, max_pending=capacity)
        in_flight = 0
        peak = 0
        gauge = threading.Lock()
        real_run = svc._run

        def instrumented(sql, step, want_mask=False):
            nonlocal in_flight, peak
            with gauge:
                in_flight += 1
                peak = max(peak, in_flight)
            try:
                return real_run(sql, step, want_mask)
            finally:
                with gauge:
                    in_flight -= 1
        svc._run = instrumented

        sql = "SELECT COUNT FROM temperature, salinity"
        admitted = [0]
        rejected = [0]
        tally = threading.Lock()
        start = threading.Barrier(16)

        def hammer(tid):
            start.wait()
            for i in range(12):
                try:
                    if (tid + i) % 2:
                        svc.execute(sql, step=0)
                    else:
                        svc.submit(sql, step=0).result()
                    with tally:
                        admitted[0] += 1
                except ServiceOverloadError:
                    with tally:
                        rejected[0] += 1

        threads = [
            threading.Thread(target=hammer, args=(tid,)) for tid in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            # The invariant under attack: admission is atomic, so the
            # concurrently-running count can never exceed the bound.
            assert peak <= capacity, f"{peak} in flight > {capacity}"
            assert admitted[0] + rejected[0] == 16 * 12
            assert admitted[0] > 0
            assert svc.service_stats()["pending"] == 0
            assert svc.service_stats()["rejected"] == rejected[0]
        finally:
            svc.close()

    def test_counters_balance_under_concurrent_calls(self, store_env):
        """``served`` and ``busy_s`` are bumped from caller and pool
        threads at once; every successful call must be counted exactly
        once and failed (unparseable) ones not at all."""
        root, _, _ = store_env
        good = "SELECT COUNT FROM temperature, salinity"
        bad = "SELECT NOPE FROM temperature"
        ok = [0]
        tally = threading.Lock()
        start = threading.Barrier(8)

        def hammer(tid):
            start.wait()
            for i in range(50):
                sql = bad if (tid + i) % 5 == 0 else good
                try:
                    if (tid + i) % 2:
                        svc.execute(sql, step=0)
                    else:
                        svc.submit(sql, step=0).result()
                except QueryError:
                    continue
                with tally:
                    ok[0] += 1

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches mid-update
        with QueryService(root, max_workers=4, max_pending=64) as svc:
            try:
                threads = [
                    threading.Thread(target=hammer, args=(tid,))
                    for tid in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                sys.setswitchinterval(old_interval)
            stats = svc.service_stats()
        assert 0 < ok[0] < 8 * 50
        assert stats["served"] == ok[0]
        assert stats["busy_s"] > 0
        assert stats["pending"] == 0


class TestMaskResults:
    def test_mask_matches_oracle_predicate_mask(self, service, store_env):
        from repro.analysis.sql import parse_query, predicate_mask

        _, indices, _ = store_env
        sql = (
            "SELECT COUNT FROM temperature, salinity "
            "WHERE temperature >= 12 AND salinity <= 33"
        )
        result = service.execute_mask(sql, step=1)
        q = parse_query(sql)
        oracle = predicate_mask(
            q, indices[1]["temperature"], indices[1]["salinity"]
        )
        assert result.mask is not None
        assert result.mask.n_bits == oracle.n_bits
        assert np.array_equal(result.mask.words, oracle.words)
        assert result.value == float(oracle.count())

    def test_mask_popcount_equals_count_query(self, service):
        sql = "SELECT COUNT FROM temperature, salinity WHERE temperature >= 12"
        assert (
            service.execute_mask(sql, step=0).value
            == service.execute(sql, step=0).value
        )

    def test_unpredicated_mask_is_all_ones(self, service, store_env):
        _, indices, _ = store_env
        n = indices[0]["temperature"].n_elements
        result = service.execute_mask(
            "SELECT COUNT FROM temperature, salinity", step=0
        )
        assert result.value == float(n)
        assert result.mask.count() == n

    def test_mask_requires_count(self, service):
        with pytest.raises(QueryError, match="COUNT"):
            service.execute_mask("SELECT MI FROM temperature, salinity")

    def test_plain_results_carry_no_mask(self, service):
        result = service.execute(
            "SELECT COUNT FROM temperature, salinity", step=0
        )
        assert result.mask is None


class TestGlobalQueries:
    """Unqualified variables over a cluster store scatter-gather across
    rank slabs; results must be bit-identical to the single-node oracle."""

    @pytest.fixture(scope="class")
    def rank_service(self, rank_store_env):
        root, _, _ = rank_store_env
        with QueryService(root, max_workers=2) as svc:
            yield svc

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT MI FROM temperature, salinity",
            "SELECT CE FROM temperature, salinity",
            "SELECT EMD FROM temperature, temperature",
            "SELECT COUNT FROM temperature, salinity",
            "SELECT COUNT FROM temperature, salinity "
            "WHERE temperature BETWEEN 2 AND 7",
            "SELECT MI FROM temperature, salinity "
            "WHERE temperature >= 3 AND salinity <= 35",
        ],
    )
    @pytest.mark.parametrize("step", [0, 2])
    def test_matches_concatenated_oracle(
        self, rank_service, rank_store_env, sql, step
    ):
        _, serial, _ = rank_store_env
        result = rank_service.execute(sql, step=step)
        assert result.value == oracle_query(sql, serial[step])
        assert result.step == step

    def test_default_step_is_latest(self, rank_service, rank_store_env):
        _, serial, _ = rank_store_env
        result = rank_service.execute("SELECT MI FROM temperature, salinity")
        assert result.step == 2
        assert result.value == oracle_query(
            "SELECT MI FROM temperature, salinity", serial[2]
        )

    def test_global_mask_splices_word_identical(
        self, rank_service, rank_store_env
    ):
        from repro.analysis.sql import parse_query, predicate_mask

        _, serial, _ = rank_store_env
        sql = (
            "SELECT COUNT FROM temperature, salinity "
            "WHERE temperature BETWEEN 2 AND 7 AND salinity >= 30"
        )
        result = rank_service.execute_mask(sql, step=0)
        q = parse_query(sql)
        oracle = predicate_mask(
            q, serial[0]["temperature"], serial[0]["salinity"]
        )
        assert result.mask.n_bits == oracle.n_bits
        assert np.array_equal(result.mask.words, oracle.words)
        assert result.value == float(oracle.count())

    def test_qualified_name_stays_single_slab(
        self, rank_service, rank_store_env
    ):
        # A rank-qualified name bypasses the global path entirely.
        result = rank_service.execute(
            "SELECT COUNT FROM rank_0001/temperature, rank_0001/salinity",
            step=0,
        )
        assert result.value == 340.0  # RANK_ELEMENTS[1]

    def test_region_on_global_rejected(self, rank_service):
        with pytest.raises(QueryError, match="REGION"):
            rank_service.execute(
                "SELECT COUNT FROM temperature, salinity "
                "WHERE REGION(0:2, 0:2)",
                step=0,
            )

    def test_unknown_variable_still_clean(self, rank_service):
        with pytest.raises(QueryError, match="unknown variable"):
            rank_service.execute("SELECT MI FROM nosuch, salinity")


class TestStaleCatalog:
    """A store directory deleted after catalog.json is written must not
    leak FileNotFoundError; the service rebuilds and answers cleanly."""

    @pytest.fixture
    def two_step_store(self, tmp_path):
        rng = np.random.default_rng(5)
        binning = EqualWidthBinning(0.0, 1.0, 8)
        root = tmp_path / "store"
        for step in (0, 1):
            d = root / f"step_{step:05d}"
            d.mkdir(parents=True)
            for var in ("a", "b"):
                save_index(
                    d / f"{var}.rbmp",
                    BitmapIndex.build(rng.random(100), binning),
                )
        Catalog.build(root)  # persist catalog.json covering both steps
        return root

    def test_deleted_step_yields_query_error(self, two_step_store):
        import shutil

        with QueryService(two_step_store) as svc:
            # Cold service: catalog loaded, nothing opened yet.  Then the
            # directory vanishes behind the manifest's back.
            shutil.rmtree(two_step_store / "step_00001")
            with pytest.raises(QueryError, match="unknown variable|vanished"):
                svc.execute("SELECT COUNT FROM a, b", step=1)
            # The rebuilt catalog serves what is still on disk.
            assert svc.execute("SELECT COUNT FROM a, b", step=0).value == 100.0
            assert svc.catalog.steps() == [0]

    def test_default_step_falls_back_after_delete(self, two_step_store):
        import shutil

        with QueryService(two_step_store) as svc:
            shutil.rmtree(two_step_store / "step_00001")
            # step=None resolves through the stale manifest to step 1,
            # hits the missing file, rebuilds, and retries onto step 0.
            result = svc.execute("SELECT COUNT FROM a, b")
            assert result.step == 0
            assert result.value == 100.0

    def test_vanished_open_files_are_dropped(self, two_step_store):
        import shutil

        with QueryService(two_step_store) as svc:
            assert svc.execute("SELECT COUNT FROM a, b", step=1).value == 100.0
            assert svc.service_stats()["open_files"] == 2
            shutil.rmtree(two_step_store / "step_00001")
            svc._refresh_catalog()
            assert svc.service_stats()["open_files"] == 0
            assert svc.execute("SELECT COUNT FROM a, b", step=0).value == 100.0
