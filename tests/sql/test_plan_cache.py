"""The shared statement-plan cache: hits, invalidation on every catalog
transition, executemany's single-plan routing, and the observability
surface — on both transports."""

from __future__ import annotations

import pytest

from repro.backend.sqlite import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.server.client import connect_remote
from repro.server.server import ReproServer
from repro.sql import parser as sql_parser
from repro.sql.connection import connect


@pytest.fixture
def engine():
    e = InVerDa()
    e.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);")
    return e


def _connect(engine, backend_kind, version="v1", **kwargs):
    if backend_kind == "sqlite":
        return connect(engine, version, autocommit=True, backend="sqlite", **kwargs)
    return connect(engine, version, autocommit=True, **kwargs)


BACKENDS = ["memory", "sqlite"]


class TestGeneration:
    def test_every_transition_bumps_the_generation(self, engine):
        generation = engine.catalog_generation
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME COLUMN a IN R TO a2;"
        )
        assert engine.catalog_generation == generation + 1
        engine.execute("MATERIALIZE 'v2';")
        assert engine.catalog_generation == generation + 2
        engine.execute("DROP SCHEMA VERSION v1;")
        assert engine.catalog_generation == generation + 3


class TestCaching:
    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_repeated_statement_hits_the_cache(self, engine, backend_kind):
        conn = _connect(engine, backend_kind)
        sql = "SELECT a, b FROM R WHERE a > ?"
        conn.execute(sql, (0,))
        before = engine.plan_cache.stats()
        for i in range(5):
            conn.execute(sql, (i,))
        after = engine.plan_cache.stats()
        assert after["hits"] >= before["hits"] + 5
        assert after["misses"] == before["misses"]
        conn.close()

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_cached_plan_skips_the_parser(self, engine, backend_kind):
        conn = _connect(engine, backend_kind)
        sql = "SELECT a FROM R ORDER BY a"
        conn.execute(sql)
        sql_parser.reset_parse_counters()
        for _ in range(4):
            conn.execute(sql)
        assert sql_parser.parse_counters["requests"] == 0
        conn.close()

    def test_plans_are_shared_across_connections(self, engine):
        first = _connect(engine, "sqlite")
        second = _connect(engine, "sqlite")
        sql = "SELECT b FROM R"
        first.execute(sql)
        before = engine.plan_cache.stats()
        second.execute(sql)
        after = engine.plan_cache.stats()
        assert after["hits"] == before["hits"] + 1
        first.close()
        second.close()

    def test_plan_cache_false_bypasses_the_cache(self, engine):
        conn = _connect(engine, "memory", plan_cache=False)
        sql = "SELECT a FROM R"
        conn.execute(sql)
        before = engine.plan_cache.stats()
        conn.execute(sql)
        after = engine.plan_cache.stats()
        assert (after["hits"], after["misses"]) == (
            before["hits"],
            before["misses"],
        )
        conn.close()

    def test_distinct_versions_get_distinct_plans(self, engine):
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + 1 INTO R;"
        )
        c1 = _connect(engine, "memory", version="v1")
        c2 = _connect(engine, "memory", version="v2")
        assert c1.execute("SELECT * FROM R").description != (
            c2.execute("SELECT * FROM R").description
        )
        c1.close()
        c2.close()


class TestInvalidation:
    @pytest.mark.parametrize("backend_kind", BACKENDS)
    @pytest.mark.parametrize("transition", ["evolution", "materialize", "drop"])
    def test_execute_evolve_reexecute_sees_the_new_catalog(
        self, engine, backend_kind, transition
    ):
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a * 2 INTO R;"
        )
        conn = _connect(engine, backend_kind, version="v2")
        sql = "SELECT * FROM R ORDER BY rowid"
        conn.execute("INSERT INTO R(a, b, c) VALUES (1, 'x', 9)")
        assert conn.execute(sql).fetchall() == [(1, "x", 9)]
        ddl = {
            "evolution": "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN c IN R TO cc;",
            "materialize": "MATERIALIZE 'v2';",
            "drop": "DROP SCHEMA VERSION v1;",
        }[transition]
        conn.execute(ddl)  # any transition must evict the cached plan
        assert conn.execute(sql).fetchall() == [(1, "x", 9)]
        stats = engine.plan_cache.stats()
        assert stats["invalidations"] >= 1
        conn.close()

    def test_stale_plan_never_survives_an_evolution_on_another_connection(
        self, engine
    ):
        reader = _connect(engine, "sqlite")
        writer = _connect(engine, "sqlite")
        reader.execute("INSERT INTO R(a, b) VALUES (1, 'x')")
        assert reader.execute("SELECT * FROM R").fetchall() == [(1, "x")]
        writer.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DROP COLUMN b FROM R DEFAULT 'd';"
        )
        # Same SQL text, same version, new catalog generation: the reader
        # must re-plan (and still see its own version's shape).
        assert reader.execute("SELECT * FROM R").fetchall() == [(1, "x")]
        reader.close()
        writer.close()


class TestStaleConnections:
    def test_cached_plan_does_not_bypass_the_backend_attach_guard(self, engine):
        from repro.errors import InterfaceError

        stale = connect(engine, "v1", autocommit=True)  # memory, pre-attach
        sql = "SELECT a FROM R"
        stale.execute(sql)  # caches a memory plan
        live = _connect(engine, "sqlite")  # attaches the live backend
        live.execute("INSERT INTO R(a, b) VALUES (1, 'x')")
        # The SAME statement text must now refuse on the stale connection
        # (a cache hit must honour the guard a fresh compile applies).
        with pytest.raises(InterfaceError):
            stale.execute(sql)
        stale.close()
        live.close()

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_session_pinned_to_a_dropped_version_refuses_cleanly(
        self, engine, backend_kind
    ):
        """v1's table versions survive inside v2, so without an explicit
        guard a session still pinned to the dropped v1 could keep planning
        against the shared delta code.  The contract (and what the network
        server enforces) is a clean OperationalError naming the version."""
        from repro.errors import OperationalError

        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + 1 INTO R;"
        )
        conn = _connect(engine, backend_kind, version="v1")
        sql = "SELECT a FROM R"
        conn.execute(sql)  # caches a plan for the doomed version
        engine.execute("DROP SCHEMA VERSION v1;")
        with pytest.raises(OperationalError, match="'v1' was dropped"):
            conn.execute(sql)  # the cached-plan path
        with pytest.raises(OperationalError, match="'v1' was dropped"):
            conn.execute("SELECT b FROM R")  # the fresh-compile path
        conn.close()


class TestExecutemany:
    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_executemany_accepts_none_parameter_rows(self, engine, backend_kind):
        conn = _connect(engine, backend_kind)
        cursor = conn.executemany("INSERT INTO R(a) VALUES (7)", [None, (), None])
        assert cursor.rowcount == 3
        assert conn.execute("SELECT a FROM R").fetchall() == [(7,), (7,), (7,)]
        conn.close()

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_executemany_plans_once(self, engine, backend_kind):
        conn = _connect(engine, backend_kind)
        sql_parser.reset_parse_counters()
        conn.executemany(
            "INSERT INTO R(a, b) VALUES (?, ?)",
            [(i, f"w{i}") for i in range(50)],
        )
        # One parse request for the batch — not one per parameter row.
        assert sql_parser.parse_counters["requests"] == 1
        # A second batch reuses the cached plan: no parse request at all.
        conn.executemany(
            "INSERT INTO R(a, b) VALUES (?, ?)",
            [(i, f"v{i}") for i in range(50)],
        )
        assert sql_parser.parse_counters["requests"] == 1
        assert len(conn.execute("SELECT rowid FROM R").fetchall()) == 100
        conn.close()

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_executemany_update_reuses_one_plan(self, engine, backend_kind):
        conn = _connect(engine, backend_kind)
        conn.executemany(
            "INSERT INTO R(a, b) VALUES (?, ?)", [(i, "w") for i in range(4)]
        )
        sql_parser.reset_parse_counters()
        cursor = conn.executemany(
            "UPDATE R SET b = ? WHERE a = ?", [("x", 1), ("y", 2)]
        )
        assert cursor.rowcount == 2
        assert sql_parser.parse_counters["requests"] == 1
        conn.close()


class TestObservability:
    def test_connection_stats_surface_cache_and_pool(self, engine):
        conn = _connect(engine, "sqlite")
        conn.execute("SELECT a FROM R")
        conn.execute("SELECT a FROM R")
        stats = conn.stats()
        assert stats["backend"] == "sqlite"
        assert stats["plan_cache"]["hits"] >= 1
        assert stats["pool"]["leases"]["primary"] >= 2  # both reads, no transaction
        assert stats["pool"]["plan_cache"]["hits"] >= 1  # pool folds them in
        conn.close()

    def test_memory_connection_stats(self, engine):
        conn = _connect(engine, "memory")
        conn.execute("SELECT a FROM R")
        stats = conn.stats()
        assert stats["backend"] == "memory"
        assert "pool" not in stats
        assert stats["plan_cache"]["maxsize"] > 0
        conn.close()


class TestRemoteTransport:
    @pytest.fixture
    def served(self, engine):
        backend = LiveSqliteBackend.attach(engine)
        server = ReproServer(engine).start()
        yield engine, server
        server.close()
        backend.close()

    def test_remote_clients_share_the_server_side_plan_cache(self, served):
        engine, server = served
        host, port = server.address
        first = connect_remote(host, port, "v1", autocommit=True, timeout=10.0)
        second = connect_remote(host, port, "v1", autocommit=True, timeout=10.0)
        sql = "SELECT a, b FROM R"
        first.execute(sql)
        before = engine.plan_cache.stats()
        second.execute(sql)
        first.execute(sql)
        after = engine.plan_cache.stats()
        assert after["hits"] >= before["hits"] + 2
        stats = first.stats()
        assert stats["plan_cache"]["hits"] >= 2
        assert stats["pool"]["plan_cache"]["hits"] >= 2
        first.close()
        second.close()

    def test_remote_execute_evolve_reexecute_sees_the_new_catalog(self, served):
        engine, server = served
        host, port = server.address
        conn = connect_remote(host, port, "v1", autocommit=True, timeout=10.0)
        conn.execute("INSERT INTO R(a, b) VALUES (7, 'z')")
        sql = "SELECT * FROM R"
        assert conn.execute(sql).fetchall() == [(7, "z")]
        conn.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DROP COLUMN b FROM R DEFAULT 'd';"
        )
        assert conn.execute(sql).fetchall() == [(7, "z")]
        other = connect_remote(host, port, "v2", autocommit=True, timeout=10.0)
        assert other.execute(sql).fetchall() == [(7,)]
        conn.close()
        other.close()
