"""The SQL layer on the live backend: pushdown, DB-API surface parity with
the in-memory planner, and SQLite-mapped transactions."""

from __future__ import annotations

import pytest

from repro.backend.sqlite import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.errors import InterfaceError, OperationalError, ProgrammingError
from repro.sql.connection import connect


def _engine():
    engine = InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Item(name TEXT, qty INTEGER, tag TEXT);"
    )
    return engine


ROWS = [
    ("apple", 5, "fruit"),
    ("banana", 2, "fruit"),
    ("carrot", 9, None),
    ("daikon", 2, "veg"),
]


@pytest.fixture(params=["memory", "sqlite"])
def conn(request):
    engine = _engine()
    connection = connect(engine, "v1", autocommit=True, backend=request.param)
    connection.executemany("INSERT INTO Item(name, qty, tag) VALUES (?, ?, ?)", ROWS)
    return connection


class TestSelectPushdown:
    def test_where_in_list(self, conn):
        rows = conn.execute(
            "SELECT name FROM Item WHERE qty IN (2, 9) ORDER BY name"
        ).fetchall()
        assert rows == [("banana",), ("carrot",), ("daikon",)]

    def test_where_in_params(self, conn):
        rows = conn.execute(
            "SELECT name FROM Item WHERE name IN (?, ?) ORDER BY name", ("apple", "daikon")
        ).fetchall()
        assert rows == [("apple",), ("daikon",)]

    def test_is_null_and_is_not_null(self, conn):
        assert conn.execute(
            "SELECT name FROM Item WHERE tag IS NULL"
        ).fetchall() == [("carrot",)]
        assert len(conn.execute("SELECT name FROM Item WHERE tag IS NOT NULL").fetchall()) == 3

    def test_not_in_with_null_semantics(self, conn):
        # NULL tag is neither in nor not-in the list (three-valued logic).
        rows = conn.execute(
            "SELECT name FROM Item WHERE tag NOT IN ('veg') ORDER BY name"
        ).fetchall()
        assert rows == [("apple",), ("banana",)]

    def test_like(self, conn):
        rows = conn.execute("SELECT name FROM Item WHERE name LIKE '%an%' ORDER BY name").fetchall()
        assert rows == [("banana",)]

    def test_order_by_nulls_last_desc(self, conn):
        rows = conn.execute("SELECT tag FROM Item ORDER BY tag DESC, name ASC").fetchall()
        assert rows == [("veg",), ("fruit",), ("fruit",), (None,)]

    def test_limit_offset(self, conn):
        rows = conn.execute(
            "SELECT name FROM Item ORDER BY name LIMIT 2 OFFSET 1"
        ).fetchall()
        assert rows == [("banana",), ("carrot",)]

    def test_computed_projection(self, conn):
        rows = conn.execute(
            "SELECT name, qty * 2 AS double FROM Item WHERE name = 'apple'"
        ).fetchall()
        assert rows == [("apple", 10)]

    def test_rowid_projection_and_filter(self, conn):
        first = conn.execute("SELECT rowid, name FROM Item ORDER BY rowid").fetchone()
        assert isinstance(first[0], int)
        again = conn.execute(
            "SELECT name FROM Item WHERE rowid = ?", (first[0],)
        ).fetchall()
        assert again == [(first[1],)]

    def test_unknown_column_raises(self, conn):
        with pytest.raises(ProgrammingError):
            conn.execute("SELECT nope FROM Item")


class TestDescription:
    def test_description_populated(self, conn):
        cursor = conn.execute("SELECT name, qty FROM Item")
        names = [entry[0] for entry in cursor.description]
        assert names == ["name", "qty"]

    def test_description_select_star(self, conn):
        cursor = conn.execute("SELECT * FROM Item")
        assert [e[0] for e in cursor.description] == ["name", "qty", "tag"]

    def test_description_matches_across_backends(self):
        results = []
        for backend in ("memory", "sqlite"):
            engine = _engine()
            connection = connect(engine, "v1", autocommit=True, backend=backend)
            cursor = connection.execute("SELECT name AS n, qty + 1 FROM Item")
            results.append(cursor.description)
        assert results[0] == results[1]


class TestDmlParity:
    def test_update_rowcount(self, conn):
        cursor = conn.execute("UPDATE Item SET qty = qty + 1 WHERE tag = 'fruit'")
        assert cursor.rowcount == 2
        assert conn.execute("SELECT qty FROM Item WHERE name = 'apple'").fetchone() == (6,)

    def test_delete_rowcount(self, conn):
        assert conn.execute("DELETE FROM Item WHERE qty = 2").rowcount == 2
        assert conn.execute("SELECT name FROM Item").rowcount == 2

    def test_insert_lastrowid(self, conn):
        cursor = conn.execute("INSERT INTO Item(name, qty, tag) VALUES ('egg', 1, NULL)")
        assert cursor.rowcount == 1
        assert isinstance(cursor.lastrowid, int)

    def test_executemany_and_fetchmany(self, conn):
        cursor = conn.cursor()
        cursor.executemany(
            "INSERT INTO Item(name, qty, tag) VALUES (?, ?, ?)",
            [("e1", 1, None), ("e2", 2, None), ("e3", 3, None)],
        )
        assert cursor.rowcount == 3
        select = conn.execute("SELECT name FROM Item ORDER BY name")
        select.arraysize = 2
        assert len(select.fetchmany()) == 2
        assert len(select.fetchmany(4)) == 4
        assert select.fetchmany(100) == [("e3",)]

    def test_arraysize_is_per_cursor(self, conn):
        a, b = conn.cursor(), conn.cursor()
        a.arraysize = 5
        assert b.arraysize == 1

    def test_key_column_update_rejected_on_fk_table(self):
        for backend in ("memory", "sqlite"):
            engine = _engine()
            connection = connect(engine, "v1", autocommit=True, backend=backend)
            connection.executemany(
                "INSERT INTO Item(name, qty, tag) VALUES (?, ?, ?)", ROWS
            )
            engine.execute(
                "CREATE SCHEMA VERSION v2 FROM v1 WITH "
                "DECOMPOSE TABLE Item INTO Item(name, qty), Tag(tag) ON FK tid;"
            )
            v2 = connect(engine, "v2", autocommit=True, backend=backend)
            with pytest.raises((OperationalError, ProgrammingError)):
                v2.execute("UPDATE Tag SET id = 99")


class TestSqliteTransactions:
    def test_commit_and_rollback(self):
        engine = _engine()
        conn = connect(engine, "v1", backend="sqlite")
        conn.execute("INSERT INTO Item(name, qty, tag) VALUES ('x', 1, NULL)")
        conn.rollback()
        assert conn.execute("SELECT * FROM Item").rowcount == 0
        conn.execute("INSERT INTO Item(name, qty, tag) VALUES ('y', 1, NULL)")
        conn.commit()
        assert conn.execute("SELECT name FROM Item").fetchall() == [("y",)]

    def test_rollback_undoes_propagated_effects(self):
        engine = _engine()
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME TABLE Item INTO Ware;"
        )
        backend = LiveSqliteBackend.attach(engine)
        v1 = connect(engine, "v1", backend=backend)
        v2 = connect(engine, "v2", autocommit=True, backend=backend)
        v1.execute("INSERT INTO Item(name, qty, tag) VALUES ('temp', 1, NULL)")
        assert v2.execute("SELECT * FROM Ware").rowcount == 1
        v1.rollback()
        assert v2.execute("SELECT * FROM Ware").rowcount == 0

    def test_with_block_commits_and_aborts(self):
        engine = _engine()
        conn = connect(engine, "v1", backend="sqlite")
        with conn:
            conn.execute("INSERT INTO Item(name, qty, tag) VALUES ('kept', 1, NULL)")
        with pytest.raises(RuntimeError):
            with conn:
                conn.execute("INSERT INTO Item(name, qty, tag) VALUES ('gone', 1, NULL)")
                raise RuntimeError("abort")
        names = [row[0] for row in conn.execute("SELECT name FROM Item").fetchall()]
        assert names == ["kept"]

    def test_update_with_set_params_and_literal_where(self):
        # The matched-count probe re-renders only the WHERE clause; the
        # binding count must follow the rendered SQL, not the statement.
        engine = _engine()
        conn = connect(engine, "v1", autocommit=True, backend="sqlite")
        conn.executemany("INSERT INTO Item(name, qty, tag) VALUES (?, ?, ?)", ROWS)
        cursor = conn.execute("UPDATE Item SET qty = ? WHERE name = 'apple'", (77,))
        assert cursor.rowcount == 1
        assert conn.execute("UPDATE Item SET qty = ? WHERE name = 'nobody'", (1,)).rowcount == 0
        assert conn.execute("DELETE FROM Item WHERE qty = 77").rowcount == 1

    def test_autocommit_write_inside_foreign_transaction_refused(self):
        # Each connection runs its own session; on the shared-cache
        # in-memory database a write colliding with another session's
        # open write transaction fails fast on the table lock (WAL
        # file databases queue on the busy timeout instead).
        engine = _engine()
        a = connect(engine, "v1", backend="sqlite")
        b = connect(engine, "v1", autocommit=True, backend="sqlite")
        a.execute("INSERT INTO Item(name, qty, tag) VALUES ('a', 1, NULL)")
        with pytest.raises(OperationalError):
            b.execute("INSERT INTO Item(name, qty, tag) VALUES ('b', 1, NULL)")
        a.rollback()
        b.execute("INSERT INTO Item(name, qty, tag) VALUES ('b', 1, NULL)")
        assert b.execute("SELECT name FROM Item").fetchall() == [("b",)]

    def test_statement_atomicity_mid_batch(self):
        engine = _engine()
        conn = connect(engine, "v1", autocommit=True, backend="sqlite")
        with pytest.raises(Exception):
            conn.executemany(
                "INSERT INTO Item(name, qty, tag) VALUES (?, ?, ?)",
                [("ok", 1, None), ("bad", 2)],  # wrong arity fails mid-batch
            )
        assert conn.execute("SELECT * FROM Item").rowcount == 0


    def test_stale_owner_cannot_clobber_newer_transaction(self):
        # DDL force-commits A's transaction; A's later rollback must not
        # touch the transaction C opened afterwards.
        engine = _engine()
        a = connect(engine, "v1", backend="sqlite")
        a.execute("INSERT INTO Item(name, qty, tag) VALUES ('a', 1, NULL)")
        connect(engine, "v1", autocommit=True, backend="sqlite").execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME TABLE Item INTO Ware;"
        )
        c = connect(engine, "v2", backend="sqlite")
        c.execute("INSERT INTO Ware(name, qty, tag) VALUES ('c', 1, NULL)")
        a.rollback()  # stale: its transaction already ended with the DDL
        c.commit()
        names = sorted(
            row[0] for row in c.execute("SELECT name FROM Ware").fetchall()
        )
        assert names == ["a", "c"]


class TestBackendSelection:
    def test_memory_refused_once_backend_attached(self):
        engine = _engine()
        LiveSqliteBackend.attach(engine)
        with pytest.raises(InterfaceError):
            connect(engine, "v1", backend="memory")

    def test_preattach_memory_connection_refused_after_attach(self):
        # A connection opened before the attach would read/write the dead
        # in-memory snapshot; it must refuse instead of silently diverging.
        engine = _engine()
        stale = connect(engine, "v1", autocommit=True)
        LiveSqliteBackend.attach(engine)
        with pytest.raises(InterfaceError):
            stale.execute("SELECT * FROM Item")
        with pytest.raises(InterfaceError):
            stale.execute("INSERT INTO Item(name, qty, tag) VALUES ('x', 1, NULL)")

    def test_memory_refused_once_the_rows_were_handed_over(self):
        # Attach emptied the in-memory tables; with the backend closed a
        # memory connection used to be accepted again and read nothing.
        engine = _engine()
        stale = connect(engine, "v1", autocommit=True)
        stale.execute("INSERT INTO Item(name, qty, tag) VALUES ('x', 1, NULL)")
        LiveSqliteBackend.attach(engine).close()
        with pytest.raises(InterfaceError, match=r"repro\.open\(path\)"):
            connect(engine, "v1", backend="memory")
        for conn in (stale, connect(engine, "v1", autocommit=True)):
            with pytest.raises(InterfaceError, match=r"repro\.open\(path\)"):
                conn.execute("SELECT * FROM Item")  # cached plan / fresh compile
            with pytest.raises(InterfaceError, match=r"repro\.open\(path\)"):
                conn.execute("EXPLAIN SELECT * FROM Item")
        # The catalog is all such an engine still has: DDL and CHECK run.
        assert stale.execute(
            "CHECK CREATE SCHEMA VERSION v9 FROM v1 WITH RENAME COLUMN qty IN Item TO n;"
        ).fetchall() == []
        stale.execute(
            "CREATE SCHEMA VERSION v9 FROM v1 WITH RENAME COLUMN qty IN Item TO n;"
        )
        assert "v9" in engine.version_names()

    def test_default_uses_attached_backend(self):
        engine = _engine()
        LiveSqliteBackend.attach(engine)
        conn = connect(engine, "v1")
        assert conn.backend_name == "sqlite"

    def test_backend_sqlite_attaches_lazily(self):
        engine = _engine()
        assert engine.live_backend is None
        conn = connect(engine, "v1", backend="sqlite")
        assert engine.live_backend is not None
        assert conn.backend_name == "sqlite"

    def test_unknown_backend(self):
        with pytest.raises(InterfaceError):
            connect(_engine(), "v1", backend="duckdb")

    def test_sqlite_older_than_the_floor_is_refused_by_name(self, monkeypatch, tmp_path):
        """3.34 has no RETURNING: say so at attach / open, not as a syntax
        error inside somebody's UPDATE."""
        import repro
        from repro.backend import sqlite as backend_module

        monkeypatch.setattr(backend_module.sqlite3, "sqlite_version_info", (3, 34, 1))
        monkeypatch.setattr(backend_module.sqlite3, "sqlite_version", "3.34.1")
        for attach in (
            lambda: LiveSqliteBackend.attach(_engine()),
            lambda: connect(_engine(), "v1", backend="sqlite"),
            lambda: repro.open(str(tmp_path / "floor.db")),
        ):
            with pytest.raises(InterfaceError, match=r"SQLite 3\.35 or later.*3\.34\.1"):
                attach()
        monkeypatch.undo()
        assert backend_module.sqlite3.sqlite_version_info >= backend_module.MIN_SQLITE
        LiveSqliteBackend.attach(_engine()).close()


class TestKeyAllocation:
    """``executemany`` takes its identifiers from the sequence as one
    block — the identifiers per-row allocation would have handed out."""

    def test_block_is_consecutive_and_ends_where_per_row_allocation_would(self):
        engine = _engine()
        backend = LiveSqliteBackend.attach(engine)
        session = backend.open_session()
        first = session.allocate_key()
        assert list(session.allocate_keys(5)) == [first + n for n in range(1, 6)]
        assert session.allocate_key() == first + 6
        assert backend.allocate_key() == first + 7
        session.close()
        backend.close()

    def test_batch_keys_match_row_by_row_inserts(self):
        statement = "INSERT INTO Item(name, qty, tag) VALUES (?, ?, ?)"
        rowids = []
        for batched in (True, False):
            conn = connect(_engine(), "v1", autocommit=True, backend="sqlite")
            if batched:
                cursor = conn.executemany(statement, ROWS)
                assert cursor.rowcount == len(ROWS)
            else:
                for row in ROWS:
                    cursor = conn.execute(statement, row)
            last = cursor.lastrowid
            rowids.append(conn.execute("SELECT rowid, name FROM Item ORDER BY rowid").fetchall())
            assert rowids[-1][-1][0] == last
            # The sequence ends at the same value either way.
            assert conn.execute(statement, ("egg", 1, None)).lastrowid == last + 1
        assert rowids[0] == rowids[1]

    def test_rows_that_bring_their_own_key_take_none_from_the_block(self):
        engine = _engine()
        connect(engine, "v1", autocommit=True, backend="sqlite").executemany(
            "INSERT INTO Item(name, qty, tag) VALUES (?, ?, ?)", ROWS
        )
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "DECOMPOSE TABLE Item INTO Item(name, qty), Tag(tag) ON FK tid;"
        )
        v2 = connect(engine, "v2", autocommit=True, backend="sqlite")
        before = v2._session.allocate_key()
        cursor = v2.executemany(
            "INSERT INTO Tag(id, tag) VALUES (?, ?)",
            [(9001, "own"), (None, "fresh"), (9002, "own too"), (None, "fresh too")],
        )
        assert cursor.rowcount == 4
        ids = dict(v2.execute("SELECT tag, id FROM Tag").fetchall())
        assert (ids["own"], ids["own too"]) == (9001, 9002)
        assert (ids["fresh"], ids["fresh too"]) == (before + 1, before + 2)


class TestExplainViewSql:
    def test_view_sql_is_reported_by_the_sqlite_plans_only(self, conn):
        for sql in (
            "SELECT * FROM Item",
            "INSERT INTO Item(name) VALUES ('x')",
            "UPDATE Item SET qty = 1",
            "DELETE FROM Item",
        ):
            names = [name for name, _ in conn.execute("EXPLAIN " + sql).fetchall()]
            if conn.backend_name == "sqlite":
                assert names[-2:] == ["view_sql", "plan_cached"], sql
            else:
                assert "view_sql" not in names, sql


class TestExplainWrite:
    def test_explain_shows_the_text_that_runs_and_the_equivalent_read(self):
        conn = connect(_engine(), "v1", autocommit=True, backend="sqlite")
        conn.executemany("INSERT INTO Item(name, qty, tag) VALUES (?, ?, ?)", ROWS)
        session = conn._session
        for sql, params in (
            ("UPDATE Item SET qty = qty + ? WHERE tag = ?", (1, "fruit")),
            ("DELETE FROM Item WHERE tag = ?", ("veg",)),
        ):
            report = dict(conn.execute("EXPLAIN " + sql).fetchall())
            assert report["executed_sql"] == report["backend_sql"] + " RETURNING 1"
            assert report["count_sql"].startswith("SELECT COUNT(*) FROM")
            assert report["query_plan"] and report["count_query_plan"]
            # Both replay on the session: the read says how many rows the
            # write is about to report.
            (count,) = session.execute(report["count_sql"], params).fetchone()
            seen: list[str] = []
            session.set_trace_callback(seen.append)
            try:
                assert conn.execute(sql, params).rowcount == count > 0
            finally:
                session.set_trace_callback(None)
            assert not any(text.startswith("SELECT COUNT") for text in seen)
            assert any(text.endswith("RETURNING 1") for text in seen if not text.startswith("--"))
