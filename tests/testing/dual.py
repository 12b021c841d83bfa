"""Dual-system harness: the same DDL + workload on the pure-Python engine
and on the live SQLite backend, with canonical state comparison."""

from __future__ import annotations

from repro.backend.sqlite import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.sql.connection import connect
from tests.testing.compare import assert_states_match, visible_state


class DualSystem:
    """Two engines fed identically: one in-memory, one SQLite-backed.

    With ``database`` pointing at a file, the SQLite side is durable and
    :meth:`reopen` simulates a process restart: the backend is closed and
    the engine rebuilt from the file's persisted catalog, after which the
    recovered side must still match the in-memory side exactly.
    """

    def __init__(self, database: str | None = None):
        self.mem = InVerDa()
        self.sq = InVerDa()
        self.database = database
        self.backend: LiveSqliteBackend | None = None
        self._mem_conns: dict[str, object] = {}
        self._sq_conns: dict[str, object] = {}

    def attach(self) -> None:
        if self.backend is None:
            self.backend = LiveSqliteBackend.attach(
                self.sq, database=self.database or ":memory:"
            )

    def reopen(self) -> None:
        """Simulate a restart of the SQLite side: close the backend, then
        recover a brand-new engine from the file's persisted catalog."""
        assert self.database is not None, "reopen() needs a file-backed DualSystem"
        from repro.persist.recovery import open_database

        for conn in self._sq_conns.values():
            conn.close()
        self._sq_conns.clear()
        if self.backend is not None:
            self.backend.close()
        self.sq = open_database(self.database)
        self.backend = self.sq.live_backend

    def execute_ddl(self, script: str) -> None:
        for conn in (*self._mem_conns.values(), *self._sq_conns.values()):
            conn.close()  # release each connection's backend session
        self._mem_conns.clear()
        self._sq_conns.clear()
        self.mem.execute(script)
        self.sq.execute(script)

    def _conns(self, version: str):
        if version not in self._mem_conns:
            self._mem_conns[version] = connect(self.mem, version, autocommit=True)
        if version not in self._sq_conns:
            self._sq_conns[version] = connect(
                self.sq, version, autocommit=True, backend=self.backend
            )
        return self._mem_conns[version], self._sq_conns[version]

    def run(self, version: str, sql: str, parameters: tuple = ()):
        """Execute one statement on both systems; returns (mem, sq) cursors."""
        mem_conn, sq_conn = self._conns(version)
        mem_cursor = mem_conn.execute(sql, parameters)
        sq_cursor = sq_conn.execute(sql, parameters)
        assert mem_cursor.rowcount == sq_cursor.rowcount, (
            f"rowcount diverged for {sql!r}: "
            f"memory={mem_cursor.rowcount} sqlite={sq_cursor.rowcount}"
        )
        return mem_cursor, sq_cursor

    def runmany(self, version: str, sql: str, rows: list[tuple]) -> None:
        mem_conn, sq_conn = self._conns(version)
        mem_conn.executemany(sql, rows)
        sq_conn.executemany(sql, rows)

    def materialize(self, target: str) -> None:
        self.execute_ddl(f"MATERIALIZE '{target}';")

    def check(self, context: str = "") -> None:
        mem_state = visible_state(self.mem)
        sq_state = visible_state(self.sq, self.backend)
        try:
            assert_states_match(self.mem, mem_state, self.sq, sq_state)
        except AssertionError as exc:
            raise AssertionError(f"[{context}] {exc}") from None

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
