"""Statement atomicity on the live backend, now that an autocommit
statement is its own transaction and a statement inside a transaction is
bounded by the fixed-name ``repro_stmt`` savepoint.

Two failures, each striking after part of the work is done: a trigger
on the data table that raises ``ABORT`` for one key (the cascades of the
rows before it have already run), and a ``sqlite3.OperationalError``
injected into the session after SQLite did what it was asked.  Either
must leave every version as it was before the statement, the session out
of any transaction it did not have before, and the write gate free.
"""

from __future__ import annotations

import sqlite3

import pytest

import repro
from repro.errors import OperationalError
from tests.backend.test_sargable import build_chain
from tests.testing.compare import visible_state

POISON = 666


@pytest.fixture
def system():
    """The benchmark's chain over 60 rows, data at S4, and a trigger on
    Even's data table refusing ``k = 666``."""
    engine, backend = build_chain([(i, i % 4, i % 6, f"n{i}") for i in range(60)])
    (data_table,) = (
        name
        for (name,) in backend.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name LIKE 'd\\_\\_%Even' ESCAPE '\\'"
        )
    )
    for event in ("INSERT", "UPDATE"):
        backend.connection.execute(
            f"CREATE TRIGGER test_poison_{event} BEFORE {event} ON {data_table} "
            f"WHEN new.k = {POISON} BEGIN SELECT RAISE(ABORT, 'poisoned row'); END"
        )
    yield engine, backend
    backend.close()


def _connect(engine, version="S8", **options):
    return repro.connect(engine, version, backend="sqlite", **options)


def _inject(monkeypatch, conn, *, after: int = 1, rows: int | None = None):
    """The session's ``after``-th data statement does its work and then
    fails; an ``executemany`` writes its first ``rows`` rows and fails."""
    session = conn._session
    real_execute, real_cursor = session.execute, session.cursor
    remaining = [after]

    def execute(sql, parameters=()):
        cursor = real_execute(sql, parameters)
        if sql.startswith(("UPDATE v", "DELETE", "INSERT")):
            remaining[0] -= 1
            if remaining[0] == 0:
                cursor.fetchall()
                raise sqlite3.OperationalError("disk I/O error")
        return cursor

    class Cursor:
        def executemany(self, sql, batch):
            real_cursor().executemany(sql, batch[:rows])
            raise sqlite3.OperationalError("disk I/O error")

    monkeypatch.setattr(session, "execute", execute)
    if rows is not None:
        monkeypatch.setattr(session, "cursor", Cursor)


def _assert_clean(engine, backend, conn, before) -> None:
    assert visible_state(engine, backend) == before
    assert not conn.in_transaction
    assert not conn._session.in_transaction
    # The gate is free: a second writer proceeds at once.
    assert backend.write_gate.acquire(timeout=2)
    backend.write_gate.release()
    other = _connect(engine, "S0", autocommit=True)
    try:
        assert other.execute("UPDATE Item SET note = ? WHERE k = ?", ("w", 3)).rowcount == 1
        assert other.execute("UPDATE Item SET note = ? WHERE k = ?", ("n3", 3)).rowcount == 1
    finally:
        other.close()
    assert visible_state(engine, backend) == before


BATCH = [(700, 0, 2, "b"), (701, 0, 4, "b"), (POISON, 0, 2, "b"), (702, 0, 2, "b")]
INSERT_LO = "INSERT INTO Lo(k, grp, qty, remark) VALUES (?, ?, ?, ?)"


class TestAutocommit:
    def test_trigger_abort_in_the_middle_of_a_statement(self, system):
        engine, backend = system
        before = visible_state(engine, backend)
        conn = _connect(engine, autocommit=True)
        # Renumbering every Lo row makes one of them the poisoned key
        # after the others' cascades have run.
        with pytest.raises(OperationalError, match="poisoned row"):
            conn.execute("UPDATE Lo SET k = k + ? WHERE grp = 0", (POISON - 24,))
        _assert_clean(engine, backend, conn, before)
        conn.close()

    def test_trigger_abort_in_the_middle_of_a_batch(self, system):
        engine, backend = system
        before = visible_state(engine, backend)
        conn = _connect(engine, autocommit=True)
        with pytest.raises(OperationalError, match="poisoned row"):
            conn.executemany(INSERT_LO, BATCH)
        _assert_clean(engine, backend, conn, before)
        # Row-by-row batches (anything but INSERT) share the scope.
        with pytest.raises(OperationalError, match="poisoned row"):
            conn.executemany(
                "UPDATE Lo SET k = ? WHERE k = ?", [(800, 0), (POISON, 12), (801, 24)]
            )
        _assert_clean(engine, backend, conn, before)
        conn.close()

    def test_injected_error_after_the_statement_ran(self, system, monkeypatch):
        engine, backend = system
        before = visible_state(engine, backend)
        conn = _connect(engine, autocommit=True)
        _inject(monkeypatch, conn)
        with pytest.raises(OperationalError, match="disk I/O error"):
            conn.execute("UPDATE Lo SET remark = ? WHERE grp = 0", ("gone",))
        monkeypatch.undo()
        _assert_clean(engine, backend, conn, before)
        conn.close()

    def test_injected_error_in_the_middle_of_a_batch(self, system, monkeypatch):
        engine, backend = system
        before = visible_state(engine, backend)
        conn = _connect(engine, autocommit=True)
        _inject(monkeypatch, conn, rows=2)
        with pytest.raises(OperationalError, match="disk I/O error"):
            conn.executemany(INSERT_LO, [row for row in BATCH if row[0] != POISON])
        monkeypatch.undo()
        _assert_clean(engine, backend, conn, before)
        _inject(monkeypatch, conn, after=2)
        with pytest.raises(OperationalError, match="disk I/O error"):
            conn.executemany(
                "UPDATE Lo SET remark = ? WHERE k = ?", [("a", 0), ("b", 12), ("c", 24)]
            )
        monkeypatch.undo()
        _assert_clean(engine, backend, conn, before)
        conn.close()


class TestInsideATransaction:
    """The same failures keep every earlier statement of the transaction
    and let it commit."""

    @pytest.mark.parametrize("failure", ["trigger", "injected"])
    @pytest.mark.parametrize("batch", [False, True], ids=["statement", "batch"])
    def test_failed_statement_keeps_the_earlier_ones(self, system, monkeypatch, failure, batch):
        engine, backend = system
        conn = _connect(engine, autocommit=False)
        assert conn.execute("UPDATE Lo SET remark = ? WHERE k = ?", ("kept", 24)).rowcount == 1
        expected = visible_state(engine, backend)  # shared cache: in-flight writes show
        if failure == "injected":
            _inject(monkeypatch, conn, rows=2 if batch else None)
            rows, match = [row for row in BATCH if row[0] != POISON], "disk I/O error"
        else:
            rows, match = BATCH, "poisoned row"
        with pytest.raises(OperationalError, match=match):
            if batch:
                conn.executemany(INSERT_LO, rows)
            else:
                shift = POISON - 24 if failure == "trigger" else 1000
                conn.execute("UPDATE Lo SET k = k + ? WHERE grp = 0", (shift,))
        monkeypatch.undo()
        assert conn.in_transaction
        assert visible_state(engine, backend) == expected
        assert conn.execute(INSERT_LO, (900, 0, 2, "later")).rowcount == 1
        conn.commit()
        assert not conn._session.in_transaction
        check = _connect(engine, "S0", autocommit=True)
        assert check.execute("SELECT note FROM Item WHERE k IN (24, 900) ORDER BY k").fetchall() == [
            ("kept",), ("later",)
        ]
        assert check.execute("SELECT * FROM Item WHERE k >= 700 AND k < 900").fetchall() == []
        check.close()
        conn.close()

    def test_write_scope_releases_only_its_own_savepoint(self, system):
        """SQLite nests equal savepoint names; RELEASE and ROLLBACK TO
        address the innermost."""
        engine, backend = system
        conn = _connect(engine, autocommit=False)
        conn.execute("UPDATE Lo SET remark = ? WHERE k = ?", ("first", 24))
        session = conn._session
        session.execute("SAVEPOINT repro_stmt")
        conn.execute("UPDATE Lo SET remark = ? WHERE k = ?", ("second", 24))
        with pytest.raises(OperationalError, match="poisoned row"):
            conn.execute("UPDATE Lo SET k = ? WHERE k = ?", (POISON, 24))
        read = "SELECT remark FROM Lo WHERE k = ?"
        assert conn.execute(read, (24,)).fetchall() == [("second",)]
        # The outer savepoint of the same name is still there to roll back to.
        session.execute("ROLLBACK TO repro_stmt")
        session.execute("RELEASE repro_stmt")
        assert conn.execute(read, (24,)).fetchall() == [("first",)]
        with pytest.raises(sqlite3.OperationalError, match="no such savepoint"):
            session.execute("RELEASE repro_stmt")
        conn.commit()
        assert conn.execute(read, (24,)).fetchall() == [("first",)]
        conn.rollback()
        conn.close()
