"""The cascade in the product's own span: a traced statement's
``execute`` span carries ``sqlite_statements`` — every statement SQLite
ran on the session's handle for it, the scope's own BEGIN / COMMIT and
each trigger statement included.  It must equal what a test-local trace
callback counts for the same statement, in-process and over TCP, and an
untraced statement must install nothing."""

from __future__ import annotations

import pytest

import repro
from repro.errors import OperationalError
from repro.server.client import connect_remote
from repro.server.server import ReproServer
from tests.backend.test_sargable import build_chain

#: A write next to the data and the two writes four hops from it
#: (k = 24: grp 0, qty 0 — in Even and in Lo).
WRITES = [
    ("S4", "UPDATE Even SET memo = ? WHERE k = ?"),
    ("S8", "UPDATE Lo SET remark = ? WHERE k = ?"),
    ("S0", "UPDATE Item SET note = ? WHERE k = ?"),
]


@pytest.fixture(scope="module")
def engine():
    engine, backend = build_chain([(i, i % 4, i % 6, f"n{i}") for i in range(60)])
    yield engine
    backend.close()


def _counted_by_the_test(engine, version: str, sql: str, params: tuple) -> int:
    """Events a callback of the test's own sees for one untraced statement."""
    conn = repro.connect(engine, version, autocommit=True, backend="sqlite")
    session = conn._session
    conn.execute(sql, ("warm", *params[1:]))  # prepared once, like the traced side
    events: list[str] = []
    session.set_trace_callback(events.append)
    try:
        cursor = conn.execute(sql, params)
    finally:
        session.set_trace_callback(None)
        conn.close()
    assert cursor.rowcount == 1 and cursor.trace is None
    return len(events)


def _execute_span(trace):
    (span,) = (span for span in trace.spans if span.name == "execute")
    return span


@pytest.mark.parametrize("version, sql", WRITES, ids=[w[0] for w in WRITES])
def test_in_process_span_counts_what_a_test_callback_counts(engine, version, sql):
    expected = _counted_by_the_test(engine, version, sql, ("a", 24))
    conn = repro.connect(engine, version, autocommit=True, backend="sqlite", trace=True)
    try:
        conn.execute(sql, ("warm", 24))
        cursor = conn.execute(sql, ("b", 24))
        assert cursor.rowcount == 1
        span = _execute_span(cursor.trace)
        assert span.attributes["sqlite_statements"] == expected
        # BEGIN IMMEDIATE, the statement, COMMIT, and at least one trigger statement.
        assert expected > 3
    finally:
        conn.close()


def test_four_hops_run_more_statements_than_a_local_write(engine):
    local, forward, backward = (
        _counted_by_the_test(engine, version, sql, ("c", 24)) for version, sql in WRITES
    )
    assert forward > local and backward > local


def test_reads_and_batches_are_counted_too(engine):
    conn = repro.connect(engine, "S8", autocommit=True, backend="sqlite", trace=True)
    try:
        cursor = conn.execute("SELECT * FROM Lo WHERE k = ?", (24,))
        assert _execute_span(cursor.trace).attributes["sqlite_statements"] == 1
        single = conn.execute(
            "INSERT INTO Lo(k, grp, qty, remark) VALUES (?, ?, ?, ?)", (900, 0, 2, "s")
        )
        batch = conn.executemany(
            "INSERT INTO Lo(k, grp, qty, remark) VALUES (?, ?, ?, ?)",
            [(901 + n, 0, 2, "b") for n in range(5)],
        )
        one = _execute_span(single.trace).attributes["sqlite_statements"]
        five = _execute_span(batch.trace).attributes["sqlite_statements"]
        # BEGIN, two sequence statements and COMMIT once; the cascade per row.
        assert five - 4 == 5 * (one - 4)
        with conn:
            inside = conn.execute("UPDATE Lo SET remark = ? WHERE k = ?", ("t", 24))
        outside = conn.execute("UPDATE Lo SET remark = ? WHERE k = ?", ("u", 24))
        # SAVEPOINT + RELEASE where the autocommit scope has BEGIN + COMMIT.
        assert (
            _execute_span(inside.trace).attributes["sqlite_statements"]
            == _execute_span(outside.trace).attributes["sqlite_statements"]
        )
        assert conn.execute("DELETE FROM Lo WHERE k >= ?", (900,)).rowcount == 6
    finally:
        conn.close()


def test_untraced_statement_installs_nothing_and_a_traced_one_puts_back_what_it_found(engine):
    conn = repro.connect(engine, "S4", autocommit=True, backend="sqlite")
    traced = repro.connect(engine, "S4", autocommit=True, backend="sqlite", trace=True)
    try:
        recorded = len(engine.tracer.recent_traces())
        cursor = conn.execute("UPDATE Even SET memo = ? WHERE k = ?", ("d", 24))
        assert cursor.trace is None and len(engine.tracer.recent_traces()) == recorded
        assert conn._session._trace_callback is None
        # A callback somebody else installed on a traced session is
        # displaced for the statement and back afterwards.
        mine: list[str] = []
        session = traced._session
        assert session.set_trace_callback(mine.append) is None
        cursor = traced.execute("UPDATE Even SET memo = ? WHERE k = ?", ("e", 24))
        assert _execute_span(cursor.trace).attributes["sqlite_statements"] > 3
        assert mine == []
        session.execute("SELECT 1").fetchall()
        assert mine == ["SELECT 1"]
        assert session.set_trace_callback(None) == mine.append
    finally:
        conn.close()
        traced.close()


def test_failed_statement_still_reports_and_restores(engine):
    conn = repro.connect(engine, "S8", autocommit=True, backend="sqlite", trace=True)
    try:
        cursor = conn.cursor()
        with pytest.raises(OperationalError, match="integer overflow"):
            cursor.execute("UPDATE Lo SET qty = abs(?) WHERE k = ?", (-(2**63), 24))
        span = _execute_span(cursor.trace)
        assert span.attributes["sqlite_statements"] >= 3  # BEGIN, the statement, ROLLBACK
        assert conn._session._trace_callback is None
    finally:
        conn.close()


class TestOverTcp:
    @pytest.fixture
    def server(self, engine):
        server = ReproServer(engine).start()
        yield server
        server.close()

    @pytest.mark.parametrize("version, sql", WRITES[:2], ids=["local", "four-hop"])
    def test_remote_trace_carries_the_engine_side_count(self, engine, server, version, sql):
        expected = _counted_by_the_test(engine, version, sql, ("f", 24))
        host, port = server.address
        conn = connect_remote(host, port, version, autocommit=True, trace=True)
        try:
            conn.execute(sql, ("warm", 24))
            cursor = conn.execute(sql, ("g", 24))
            assert cursor.rowcount == 1
            assert _execute_span(cursor.trace).attributes["sqlite_statements"] == expected
        finally:
            conn.close()

    def test_untraced_remote_statement_has_no_span_to_carry_it(self, engine, server):
        host, port = server.address
        conn = connect_remote(host, port, "S8", autocommit=True)
        before = len(engine.tracer.recent_traces())
        try:
            cursor = conn.execute("UPDATE Lo SET remark = ? WHERE k = ?", ("h", 24))
            assert cursor.rowcount == 1 and cursor.trace is None
            assert len(engine.tracer.recent_traces()) == before
        finally:
            conn.close()
