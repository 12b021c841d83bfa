"""Autocommit statements run on the primary handle, the one that ran the DDL.

SQLite updates the in-memory schema of the handle that executes DDL in
place; every other handle re-parses the whole schema on its next
statement.  So the backend lends its administrative handle — the pool's
*primary* — to any autocommit statement that finds it free, and a session
leases a pooled overflow handle only for an open transaction or when
another thread holds the primary.  These tests pin that lease rule, on a
WAL file (the serving configuration: in shared-cache memory mode SQLite
runs one statement step at a time across all handles anyway).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.backend.sqlite import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.sql.connection import connect
from repro.workloads.tasky import build_tasky


@pytest.fixture
def system(tmp_path):
    engine = InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
    backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "r.db"))
    seed = connect(engine, "v1", autocommit=True, backend=backend)
    seed.executemany("INSERT INTO R(a) VALUES (?)", [(1,), (2,), (3,)])
    seed.close()
    yield engine, backend
    backend.close()


def _leases(backend) -> dict:
    return backend.pool.stats()["leases"]


class _Blocker:
    """An autocommit statement parked inside a SQL function registered on
    the primary handle only, until :meth:`release`."""

    def __init__(self, backend, conn, sql: str):
        self.entered, self._go = threading.Event(), threading.Event()
        self.rows: list = []

        def hold(value):
            self.entered.set()
            self._go.wait(10)
            return value

        backend.connection.create_function("hold", 1, hold)
        self._thread = threading.Thread(
            target=lambda: self.rows.extend(conn.execute(sql).fetchall())
        )
        self._thread.start()
        assert self.entered.wait(10), "the statement never reached the primary"

    def release(self) -> None:
        self._go.set()
        self._thread.join(10)


def test_autocommit_connections_lease_nothing_after_a_transition(system):
    engine, backend = system
    conns = [connect(engine, "v1", autocommit=True, backend=backend) for _ in range(3)]
    engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME TABLE R INTO S;")
    before = _leases(backend)
    for conn in conns:
        assert conn.execute("SELECT a FROM R ORDER BY a").fetchall() == [(1,), (2,), (3,)]
        assert backend.pool.leased == 0
    assert _leases(backend) == {**before, "primary": before["primary"] + 3}
    for conn in conns:
        conn.close()


def test_second_thread_runs_on_an_overflow_handle_while_the_primary_is_held(system):
    engine, backend = system
    blocked = connect(engine, "v1", autocommit=True, backend=backend)
    other = connect(engine, "v1", autocommit=True, backend=backend)
    blocker = _Blocker(backend, blocked, "SELECT hold(a) FROM R ORDER BY a")
    try:
        before = _leases(backend)
        assert other.execute("SELECT a FROM R ORDER BY a").fetchall() == [(1,), (2,), (3,)]
        assert other.execute("INSERT INTO R(a) VALUES (4)").rowcount == 1
        assert _leases(backend) == {**before, "overflow": before["overflow"] + 2}
        assert backend.pool.leased == 0  # each lease ended with its statement
    finally:
        blocker.release()
    assert blocker.rows[:3] == [(1,), (2,), (3,)]
    assert other.execute("SELECT a FROM R WHERE a = 4").fetchall() == [(4,)]
    blocked.close()
    other.close()


def test_a_transaction_never_holds_the_primary_and_a_transition_frees_it(system):
    engine, backend = system
    conn = connect(engine, "v1", autocommit=True, backend=backend)
    conn.__enter__()
    conn.execute("INSERT INTO R(a) VALUES (9)")
    held = conn._session._held
    assert held is not None and held is not backend.connection
    assert backend.pool.leased == 1
    with backend.pool.primary_held():  # free: nothing waits behind the transaction
        pass
    engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME TABLE R INTO S;")
    assert not conn.in_transaction  # the quiesce committed it
    assert conn._session._held is None
    assert backend.pool.leased == 0 and backend.pool.idle == 1
    conn.__exit__(None, None, None)  # the stale token commits nothing
    reader = connect(engine, "v2", autocommit=True, backend=backend)
    assert reader.execute("SELECT a FROM S WHERE a = 9").fetchall() == [(9,)]
    reader.close()
    conn.close()


def test_a_statement_does_not_take_the_primary_while_a_chunk_waits(tmp_path):
    engine = build_tasky(20).engine
    backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "tasky.db"))
    try:
        move = backend.prepare_move(engine.resolve_materialization(["TasKy2"]))
        blocked = connect(engine, "TasKy", autocommit=True, backend=backend)
        other = connect(engine, "TasKy", autocommit=True, backend=backend)
        blocker = _Blocker(backend, blocked, "SELECT hold(prio) FROM Task")
        chunk = threading.Thread(target=backend.copy_chunk, args=(move,))
        try:
            chunk.start()
            deadline = time.monotonic() + 10
            while backend.pool._primary_waiting == 0:
                assert time.monotonic() < deadline, "the chunk never waited"
                time.sleep(0.001)
            before = _leases(backend)
            assert other.execute("SELECT * FROM Task").rowcount == 20
            assert _leases(backend) == {**before, "overflow": before["overflow"] + 1}
        finally:
            blocker.release()
            chunk.join(10)
        assert not chunk.is_alive() and move.chunks == 1
        assert len(blocker.rows) == 20
        blocked.close()
        other.close()
    finally:
        backend.close()
