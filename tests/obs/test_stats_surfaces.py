"""Every stats surface serves the unified ``repro.obs/1`` snapshot, with
the pre-existing keys preserved as stable aliases."""

from __future__ import annotations

import json

import pytest

import repro
from repro.core.engine import InVerDa
from repro.obs import SNAPSHOT_SCHEMA, engine_snapshot
from repro.server.client import connect_remote
from repro.server.server import ReproServer


def build_engine() -> InVerDa:
    engine = InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);"
    )
    return engine


class TestEngineSnapshot:
    def test_schema_and_core_keys(self):
        engine = build_engine()
        snapshot = engine_snapshot(engine)
        assert snapshot["schema"] == SNAPSHOT_SCHEMA == "repro.obs/1"
        assert snapshot["backend"] == "memory"
        assert {"plan_cache", "catalog", "workload", "tracing",
                "metrics"} <= set(snapshot)
        assert snapshot["catalog"]["generation"] == engine.catalog_generation
        json.dumps(snapshot)  # must survive the wire protocol


class TestConnectionStats:
    def test_memory_connection_keeps_legacy_keys(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True)
        stats = conn.stats()
        # Legacy aliases (pre-unification shape).
        assert stats["backend"] == "memory"
        assert "hits" in stats["plan_cache"]
        assert stats["catalog"]["generation"] == engine.catalog_generation
        assert "fingerprint" in stats["catalog"]
        # Unified additions.
        assert stats["schema"] == SNAPSHOT_SCHEMA
        assert "metrics" in stats and "tracing" in stats and "workload" in stats

    def test_sqlite_connection_reports_pool_and_catalog(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
        conn.execute("INSERT INTO R (a, b) VALUES (1, 'x')")
        stats = conn.stats()
        assert stats["backend"] == "sqlite"
        # A lone autocommit client runs on the primary: no overflow lease.
        assert stats["pool"]["leases"]["primary"] >= 1
        assert stats["pool"]["leased"] == 0
        assert "persisted" in stats["catalog"]
        assert "recovery_seconds" in stats["catalog"]
        assert stats["schema"] == SNAPSHOT_SCHEMA

    def test_workload_key_mirrors_the_recorder(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True)
        conn.execute("SELECT a FROM R")
        conn.execute("INSERT INTO R (a, b) VALUES (1, 'x')")
        stats = conn.stats()
        assert stats["workload"]["reads"] == {"v1": 1}
        assert stats["workload"]["writes"] == {"v1": 1}


class TestPoolStats:
    def test_pool_keeps_legacy_keys_and_adds_lease_waits(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
        with conn:  # a transaction leases an overflow handle
            pass
        pool_stats = engine.live_backend.pool.stats()
        for key in ("database", "wal", "leased", "idle", "leases", "pool_size",
                    "max_sessions", "busy_timeout", "closed"):
            assert key in pool_stats, key
        assert pool_stats["lease_waits"]["count"] >= 1
        assert conn is not None


class TestOneCountPerEvent:
    """Each plan-cache event and pool lease is counted once: the
    ``stats()`` surfaces and the registry series read that one count, and
    the surfaces keep counting while the registry is disabled."""

    @staticmethod
    def run_mix(engine: InVerDa) -> None:
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a * 2 INTO R;"
        )
        auto = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
        for a in range(3):
            auto.execute("INSERT INTO R (a, b) VALUES (?, ?)", (a, "x"))
            auto.execute("SELECT a, b FROM R WHERE a = ?", (a,))
        leaf = repro.connect(engine, "v2", autocommit=True, backend="sqlite")
        assert leaf.execute("SELECT c FROM R WHERE a = ?", (2,)).fetchall() == [(4,)]
        held = repro.connect(engine, "v1", backend="sqlite")
        held.execute("UPDATE R SET b = ? WHERE a = ?", ("y", 0))  # leases overflow
        auto.execute("SELECT a, b FROM R WHERE a = ?", (0,))  # on the free primary
        held.commit()
        leaf.close()
        engine.execute("DROP SCHEMA VERSION v2;")  # evicts v2's plans
        auto.close()
        held.close()

    @staticmethod
    def check(engine: InVerDa) -> None:
        cache = engine.plan_cache.stats()
        events = engine.metrics.get("repro_plan_cache_events_total")
        assert cache["misses"] == 4 and cache["hits"] == 5
        assert cache["invalidations"] == 1
        for event, key in (("hit", "hits"), ("miss", "misses"),
                           ("invalidation", "invalidations")):
            assert events.value(event=event) == cache[key]
        leases = engine.live_backend.pool.stats()["leases"]
        series = engine.metrics.get("repro_pool_leases_total")
        assert leases["overflow"] == 1 and leases["primary"] >= 8
        for handle in ("primary", "overflow"):
            assert series.value(handle=handle) == leases[handle]

    def test_stats_and_series_read_one_count(self):
        engine = build_engine()
        self.run_mix(engine)
        self.check(engine)
        engine.live_backend.close()

    def test_stats_count_while_the_registry_is_disabled(self):
        engine = build_engine()
        engine.metrics.enabled = False
        self.run_mix(engine)
        self.check(engine)
        latency = engine.metrics.get("repro_statement_latency_seconds")
        assert latency.series_stats(version="v1", kind="select", cache="hit")["count"] == 0
        engine.live_backend.close()


class TestServerSurfaces:
    @pytest.fixture
    def server(self):
        server = ReproServer(build_engine()).start()
        yield server
        server.close()

    def test_status_keeps_legacy_keys_and_serves_the_snapshot(self, server):
        host, port = server.address
        conn = connect_remote(host, port, "v1", autocommit=True)
        try:
            status = conn.server_status()
            # Legacy server-status keys.
            for key in ("protocol", "clients", "versions", "page_size",
                        "plan_cache", "catalog"):
                assert key in status, key
            assert status["clients"] == 1
            # Unified snapshot riding along.
            assert status["schema"] == SNAPSHOT_SCHEMA
            assert "metrics" in status and "tracing" in status
        finally:
            conn.close()

    def test_remote_stats_matches_server_status_catalog(self, server):
        host, port = server.address
        conn = connect_remote(host, port, "v1", autocommit=True)
        try:
            stats = conn.stats()
            status = conn.server_status()
            assert stats["catalog"] == status["catalog"]
            assert stats["plan_cache"].keys() == status["plan_cache"].keys()
            assert stats["schema"] == SNAPSHOT_SCHEMA
            assert stats["client"]["tracing"]["enabled"] is False
        finally:
            conn.close()


class TestRecoveryPhases:
    """An open reports its phases from the product: ``catalog.recovery``
    on every surface, one histogram observation of the same total, and a
    counter saying whether the delta-code gate ran or was skipped."""

    @staticmethod
    def build_file(path: str) -> None:
        engine = repro.open(path)
        engine.execute(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);"
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a * 2 INTO R;"
        )
        engine.live_backend.close()

    @staticmethod
    def check(engine, recovery: dict, catalog: dict, *, skipped: bool) -> None:
        keys = {"replay_ms", "verify_catalog_ms", "install", "backfill_ms", "total_ms"}
        if skipped:
            assert recovery["verify_skipped"] is True
            assert recovery.keys() == keys | {"verify_skipped"}
        else:
            assert recovery["verify_delta_ms"] > 0
            assert recovery.keys() == keys | {"verify_delta_ms"}
        assert recovery["install"] is None and catalog["delta_reused"] is True
        parts = sum(
            recovery.get(key, 0.0)
            for key in ("replay_ms", "verify_catalog_ms", "verify_delta_ms", "backfill_ms")
        )
        assert 0 < parts <= recovery["total_ms"]
        assert recovery["total_ms"] == round(catalog["recovery_seconds"] * 1000, 3)
        histogram = engine.metrics.get("repro_recovery_duration_seconds")
        stats = histogram.series_stats()
        assert stats["count"] == 1
        assert stats["sum"] == pytest.approx(catalog["recovery_seconds"])
        counter = engine.metrics.get("repro_recovery_verify_total")
        assert counter.value(outcome="skipped") == int(skipped)
        assert counter.value(outcome="full") == int(not skipped)

    def test_in_process(self, tmp_path):
        path = str(tmp_path / "phases.db")
        self.build_file(path)
        for skipped in (False, True):
            engine = repro.open(path)
            try:
                conn = repro.connect(engine, "v2", autocommit=True)
                catalog = conn.stats()["catalog"]
                assert catalog["recovery"] == engine.live_backend.catalog_stats()["recovery"]
                self.check(engine, catalog["recovery"], catalog, skipped=skipped)
                conn.close()
            finally:
                engine.live_backend.close()

    def test_over_tcp(self, tmp_path):
        path = str(tmp_path / "phases.db")
        self.build_file(path)
        for skipped in (False, True):
            engine = repro.open(path)
            server = ReproServer(engine, backend=engine.live_backend).start()
            host, port = server.address
            conn = connect_remote(host, port, "v2", autocommit=True)
            try:
                catalog = conn.server_status()["catalog"]
                self.check(engine, catalog["recovery"], catalog, skipped=skipped)
                outcome = "skipped" if skipped else "full"
                assert (
                    f'repro_recovery_verify_total{{outcome="{outcome}"}} 1'
                    in conn.metrics_text()
                )
            finally:
                conn.close()
                server.close()
                engine.live_backend.close()

    def test_fresh_attach_reports_no_recovery(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
        try:
            assert conn.stats()["catalog"]["recovery"] is None
            assert engine.metrics.get("repro_recovery_verify_total") is None
        finally:
            engine.live_backend.close()
