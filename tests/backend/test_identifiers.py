"""Generated-SQL hygiene: odd identifiers and atomic delta-code install.

Every identifier the code generators interpolate into SQL must be quoted:
a table or column named with a reserved word (``order``, ``group``,
``select``) has to round-trip through attach, reads, writes, evolution,
and migration on every version.  And ``regenerate()`` must be atomic — a
mid-install failure rolls back to the previous, complete delta code
instead of leaving half-installed views serving wrong answers.
"""

from __future__ import annotations

from unittest.mock import ANY

import pytest

from repro.backend import codegen
from repro.backend.sqlite import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.errors import BackendError
from repro.sql.connection import connect
from tests.testing import DualSystem


RESERVED_DDL = (
    "CREATE SCHEMA VERSION v1 WITH "
    "CREATE TABLE order(value INTEGER, group TEXT, select_ INTEGER);"
)


class TestReservedWordIdentifiers:
    def test_attach_with_reserved_table_and_column_names(self):
        engine = InVerDa()
        engine.execute(RESERVED_DDL)
        backend = LiveSqliteBackend.attach(engine)
        conn = connect(engine, "v1", autocommit=True, backend=backend)
        conn.execute("INSERT INTO order(value, group, select_) VALUES (1, 'a', 10)")
        assert conn.execute("SELECT value, group FROM order").fetchall() == [(1, "a")]
        backend.close()

    def test_reserved_word_round_trip_every_version(self):
        """attach → write/read on every version, through evolution and
        migration, with reserved-word table and column names throughout."""
        ds = DualSystem()
        ds.execute_ddl(RESERVED_DDL)
        ds.attach()
        ds.runmany(
            "v1",
            "INSERT INTO order(value, group, select_) VALUES (?, ?, ?)",
            [(1, "x", 10), (2, "y", 20), (3, "x", 30)],
        )
        ds.check("reserved names: initial")
        ds.execute_ddl(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "RENAME TABLE order INTO group;"
            "RENAME COLUMN group IN group TO order_;"
        )
        ds.run("v2", "INSERT INTO group(value, order_, select_) VALUES (4, 'z', 40)")
        ds.run("v1", "UPDATE order SET group = 'w' WHERE value = 1")
        ds.check("reserved names: evolved")
        ds.materialize("v2")
        ds.run("v2", "DELETE FROM group WHERE value = 2")
        ds.run("v1", "INSERT INTO order(value, group, select_) VALUES (5, 'v', 50)")
        ds.check("reserved names: migrated")
        ds.close()

    def test_generated_ddl_quotes_reserved_names(self):
        from repro.backend.emit import table_ddl

        ddl = table_ddl("order", ["group", "select"])
        assert '"order"' in ddl
        assert '"group"' in ddl and '"select"' in ddl


class TestAtomicRegenerate:
    def _attached(self):
        engine = InVerDa()
        engine.execute(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);"
        )
        backend = LiveSqliteBackend.attach(engine)
        conn = connect(engine, "v1", autocommit=True, backend=backend)
        conn.executemany(
            "INSERT INTO R(a, b) VALUES (?, ?)", [(1, "x"), (2, "y")]
        )
        return engine, backend, conn

    def test_failed_regenerate_keeps_previous_delta_code(self, monkeypatch):
        engine, backend, conn = self._attached()
        real = codegen.Renderer.trigger_statements

        def broken(renderer, scope=None):
            return real(renderer, scope) + ["THIS IS NOT SQL"]

        monkeypatch.setattr(codegen.Renderer, "trigger_statements", broken)
        with pytest.raises(BackendError):
            backend.regenerate()
        monkeypatch.setattr(codegen.Renderer, "trigger_statements", real)
        # The savepoint rolled the half-installed delta code back: the
        # previous views AND triggers still serve reads and writes.
        assert conn.execute("SELECT a FROM R ORDER BY a").fetchall() == [(1,), (2,)]
        conn.execute("INSERT INTO R(a, b) VALUES (3, 'z')")
        assert conn.execute("SELECT a FROM R ORDER BY a").fetchall() == [
            (1,),
            (2,),
            (3,),
        ]
        backend.close()

    def test_failed_regenerate_mid_views_keeps_previous_views(self, monkeypatch):
        engine, backend, conn = self._attached()
        real = codegen.Renderer.view_statements

        def broken(renderer, scope=None):
            statements = real(renderer, scope)
            return statements[:1] + ["CREATE VIEW broken AS SELECT"] + statements[1:]

        monkeypatch.setattr(codegen.Renderer, "view_statements", broken)
        with pytest.raises(BackendError):
            backend.regenerate()
        monkeypatch.setattr(codegen.Renderer, "view_statements", real)
        views, triggers = codegen.generated_object_names(backend.connection)
        assert views and triggers  # the old generation is intact
        assert conn.execute("SELECT a FROM R ORDER BY a").fetchall() == [(1,), (2,)]
        backend.close()

    def test_failed_diff_keeps_every_installed_object_and_its_text(self, monkeypatch):
        """The install is a diff, so a failure can strike after some
        objects were dropped and one was created: all of it rolls back."""
        engine, backend, conn = self._attached()
        before = codegen.installed_objects(backend.connection)
        real = codegen.Renderer.trigger_statements

        def broken(renderer, scope=None):
            first, *rest = real(renderer, scope)
            return [
                first.replace("BEGIN\n", "BEGIN\n  SELECT 1;\n"),  # dropped, re-created
                *rest,
                "CREATE TRIGGER tg__99__insert INSTEAD OF INSERT ON v0__R\n"
                "BEGIN\n  SELECT 1;\nEND",  # created
                "CREATE TRIGGER tg__99__update INSTEAD OF UPDATE ON v99__gone\n"
                "BEGIN\n  SELECT 1;\nEND",  # fails: no such view
            ]

        monkeypatch.setattr(codegen.Renderer, "trigger_statements", broken)
        with pytest.raises(BackendError):
            backend.regenerate()
        monkeypatch.setattr(codegen.Renderer, "trigger_statements", real)
        assert codegen.installed_objects(backend.connection) == before
        conn.execute("INSERT INTO R(a, b) VALUES (3, 'z')")
        backend.regenerate()
        assert backend.last_install == {"created": 0, "dropped": 0, "kept": 4, "bytes": ANY}
        backend.close()


class TestCloseSemantics:
    def test_backend_close_rolls_back_dangling_transaction(self):
        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
        backend = LiveSqliteBackend.attach(engine)
        conn = connect(engine, "v1", backend=backend)
        conn.execute("INSERT INTO R(a) VALUES (1)")
        assert conn.in_transaction
        backend.close()
        # The session was closed with a rollback and an epoch bump: the
        # dangling connection reports no transaction and its commit is an
        # inert no-op instead of a misdirected COMMIT.
        assert not conn.in_transaction
        conn.commit()
        conn.rollback()

    def test_session_handles_survive_cross_thread_use(self):
        import threading

        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
        backend = LiveSqliteBackend.attach(engine)
        conn = connect(engine, "v1", autocommit=True, backend=backend)
        errors = []

        def use():
            try:
                conn.execute("INSERT INTO R(a) VALUES (7)")
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        thread = threading.Thread(target=use)
        thread.start()
        thread.join()
        assert not errors  # no check_same_thread pinning
        assert conn.execute("SELECT a FROM R").fetchall() == [(7,)]
        backend.close()
