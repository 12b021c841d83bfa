"""The shared statement-plan cache: hits, a plan's lifetime across
catalog transitions (it lives as long as its schema version),
executemany's single-plan routing, and the observability surface — on
both transports."""

from __future__ import annotations

import random

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
        invalidations = engine.plan_cache.stats()["invalidations"]
        conn.execute(ddl)  # v2 survives every one of them: its plan too
        cursor = conn.execute(sql)
        assert cursor.fetchall() == [(1, "x", 9)]
        assert cursor.cache_event == "hit"
        assert engine.plan_cache.stats()["invalidations"] == invalidations + (
            transition == "drop"
        )
        conn.close()

    def test_plan_survives_an_evolution_on_another_connection(self, engine):
        reader = _connect(engine, "sqlite")
        writer = _connect(engine, "sqlite")
        reader.execute("INSERT INTO R(a, b) VALUES (1, 'x')")
        assert reader.execute("SELECT * FROM R").fetchall() == [(1, "x")]
        writer.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DROP COLUMN b FROM R DEFAULT 'd';"
        )
        # Same SQL text, same version: v1's shape is fixed, so the reader
        # keeps its plan (and still sees its own version's shape).
        cursor = reader.execute("SELECT * FROM R")
        assert cursor.fetchall() == [(1, "x")]
        assert cursor.cache_event == "hit"
        reader.close()
        writer.close()


#: A SPLIT under an ADD COLUMN: the oracle's starting chain.
CHAIN = (
    "CREATE SCHEMA VERSION v2 FROM v1 WITH "
    "SPLIT TABLE R INTO Lo WITH a <= 5, Hi WITH a > 5;",
    "CREATE SCHEMA VERSION v3 FROM v2 WITH ADD COLUMN c AS a * 2 INTO Lo;",
)

#: What a plan carries that a compile derives from its key.
PLAN_FACTS = ("kind", "param_count", "sql", "insert_sql", "executed_sql",
              "count_sql", "description", "view_name", "stmt")


def _statements(engine, name: str) -> list[tuple[str, tuple]]:
    """One statement of every kind per table of version ``name``, with
    parameters (the UPDATE and DELETE match no row)."""
    statements = []
    for table in engine.genealogy.schema_version(name).table_names():
        statements += [
            (f"SELECT * FROM {table} ORDER BY rowid", ()),
            (f"SELECT b FROM {table} WHERE a = ?", (3,)),
            (f"INSERT INTO {table}(a, b) VALUES (?, ?)", (3, name)),
            (f"UPDATE {table} SET b = ? WHERE a = ?", ("u", -1)),
            (f"DELETE FROM {table} WHERE a = ?", (-1,)),
        ]
    return statements


def _serving(engine, conn, sql):
    """What the plan for ``sql`` on ``conn`` reads through: the view's
    stored text on SQLite, the physical tables in memory."""
    if conn.backend_name == "sqlite":
        view = engine.plan_cache.peek(conn._plan_key(sql)).view_name
        return engine.live_backend.connection.execute(
            "SELECT sql FROM sqlite_master WHERE name = ?", (view,)
        ).fetchone()
    return sorted(engine.database.tables)


class TestLifetime:
    """A plan lives as long as its schema version: evolutions and moves
    keep it, a drop evicts the dropped version's plans and nothing else."""

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_evolve_and_materialize_keep_an_untouched_versions_plans(
        self, engine, backend_kind
    ):
        conn = _connect(engine, backend_kind)
        insert = "INSERT INTO R(a, b) VALUES (?, ?)"
        read = "SELECT a, b FROM R ORDER BY rowid"
        conn.execute(insert, (1, "x"))
        assert conn.execute(read).fetchall() == [(1, "x")]

        conn.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a * 2 INTO R;"
        )
        assert conn.execute(insert, (2, "y")).cache_event == "hit"
        cursor = conn.execute(read)
        assert cursor.cache_event == "hit"
        assert cursor.fetchall() == [(1, "x"), (2, "y")]

        layout = _serving(engine, conn, read)
        conn.execute("MATERIALIZE 'v2';")
        assert _serving(engine, conn, read) != layout  # the move re-rendered it
        assert conn.execute(insert, (3, "z")).cache_event == "hit"
        cursor = conn.execute(read)
        assert cursor.cache_event == "hit"
        assert cursor.fetchall() == [(1, "x"), (2, "y"), (3, "z")]
        v2 = _connect(engine, backend_kind, version="v2")
        assert v2.execute("SELECT a, c FROM R ORDER BY rowid").fetchall() == [
            (1, 2), (2, 4), (3, 6)
        ]
        v2.close()
        conn.close()

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_a_drop_evicts_exactly_the_dropped_versions_plans(
        self, engine, backend_kind
    ):
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a * 2 INTO R;"
        )
        doomed = _connect(engine, backend_kind, version="v1")
        kept = _connect(engine, backend_kind, version="v2")
        texts = ["SELECT a FROM R", "SELECT b FROM R", "DELETE FROM R WHERE a = 0"]
        for text in texts:
            doomed.execute(text)
        kept.execute("SELECT c FROM R")
        before = engine.plan_cache.stats()
        engine.execute("DROP SCHEMA VERSION v1;")
        after = engine.plan_cache.stats()
        assert after["size"] == before["size"] - len(texts)
        assert after["invalidations"] == before["invalidations"] + 1
        assert all(engine.plan_cache.peek(doomed._plan_key(t)) is None for t in texts)
        assert kept.execute("SELECT c FROM R").cache_event == "hit"
        doomed.close()
        kept.close()

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_cached_plan_equals_a_fresh_compile(
        self, engine, backend_kind, seed
    ):
        """After a seeded run of evolutions, moves in both directions and
        drops, the cache holds every live version's statements, and each
        entry is what compiling its key now would give."""
        for ddl in CHAIN:
            engine.execute(ddl)
        rng = random.Random(seed)
        cached: dict[str, object] = {}
        fresh: dict[str, object] = {}
        executed: set = set()

        def exercise():
            for name in engine.version_names():
                if name not in cached:
                    cached[name] = _connect(engine, backend_kind, version=name)
                    fresh[name] = _connect(
                        engine, backend_kind, version=name, plan_cache=False
                    )
                for text, params in _statements(engine, name):
                    result = cached[name].execute(text, params)
                    if text.startswith("SELECT"):
                        expected = fresh[name].execute(text, params).fetchall()
                        assert result.fetchall() == expected, (name, text)
                    executed.add(cached[name]._plan_key(text))

        exercise()
        for step in range(10):
            action = rng.choice(["evolve", "materialize", "drop"])
            names = engine.version_names()
            if action == "evolve" or len(names) < 3:
                parent = rng.choice(names)
                table = rng.choice(engine.genealogy.schema_version(parent).table_names())
                engine.execute(
                    f"CREATE SCHEMA VERSION x{step} FROM {parent} WITH "
                    f"ADD COLUMN z{step} AS a + {step} INTO {table};"
                )
            elif action == "materialize":
                engine.execute(f"MATERIALIZE '{rng.choice(names)}';")
            else:
                name = rng.choice(names)
                engine.execute(f"DROP SCHEMA VERSION {name};")
                cached.pop(name).close()
                fresh.pop(name).close()
                executed = {key for key in executed if key[1] != name}
            exercise()

        assert engine.plan_cache.stats()["size"] == len(executed)
        for name, conn in cached.items():
            for text, _params in _statements(engine, name):
                plan = engine.plan_cache.peek(conn._plan_key(text))
                with engine.catalog_lock.read_locked():
                    compiled, hit = fresh[name]._plan_for(text)
                assert not hit
                assert type(plan) is type(compiled), (name, text)
                for fact in PLAN_FACTS:
                    assert getattr(plan, fact, None) == getattr(
                        compiled, fact, None
                    ), (name, text, fact)
                assert getattr(plan, "version", None) is getattr(
                    compiled, "version", None
                )
        for conn in [*cached.values(), *fresh.values()]:
            conn.close()


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

    def test_remote_plan_hits_after_another_connection_evolves(self, served):
        engine, server = served
        host, port = server.address
        reader = connect_remote(host, port, "v1", autocommit=True, timeout=10.0)
        writer = connect_remote(host, port, "v1", autocommit=True, timeout=10.0)
        reader.execute("INSERT INTO R(a, b) VALUES (4, 'q')")
        sql = "SELECT a, b FROM R"
        assert reader.execute(sql).cache_event == "miss"
        writer.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + 1 INTO R;"
        )
        cursor = reader.execute(sql)
        assert cursor.cache_event == "hit"
        assert cursor.fetchall() == [(4, "q")]
        reader.close()
        writer.close()

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
