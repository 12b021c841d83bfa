"""Closed-cursor / closed-connection errors must name the offending method.

``InterfaceError: cannot operate on a closed connection`` tells a caller
*what* broke but not *where*; every such error now leads with the method
that was called, on both the in-process and the network transport.
"""

from __future__ import annotations

import threading

import pytest

import repro
from repro.backend.codegen import IMMUTABLE_KEY
from repro.core.engine import InVerDa
from repro.errors import InterfaceError, OperationalError, ProgrammingError
from repro.server.server import ReproServer
from repro.workloads.tasky import build_tasky


@pytest.fixture(params=["local", "remote"])
def transport(request):
    """A factory for fresh connections to a TasKy engine, per transport."""
    scenario = build_tasky(5, seed=1)
    if request.param == "local":
        yield lambda **kw: repro.connect(scenario.engine, "TasKy", **kw)
        return
    with ReproServer(scenario.engine) as server:
        from repro.server.client import connect_remote

        yield lambda **kw: connect_remote(
            *server.address, "TasKy", timeout=30.0, **kw
        )


CONNECTION_CALLS = [
    ("cursor", lambda conn: conn.cursor()),
    ("execute", lambda conn: conn.execute("SELECT * FROM Task")),
    ("executemany", lambda conn: conn.executemany("DELETE FROM Task WHERE prio = ?", [(1,)])),
    ("commit", lambda conn: conn.commit()),
    ("rollback", lambda conn: conn.rollback()),
    ("__enter__", lambda conn: conn.__enter__()),
]

CURSOR_CALLS = [
    ("execute", lambda cur: cur.execute("SELECT * FROM Task")),
    ("executemany", lambda cur: cur.executemany("DELETE FROM Task WHERE prio = ?", [(1,)])),
    ("fetchone", lambda cur: cur.fetchone()),
    ("fetchmany", lambda cur: cur.fetchmany(2)),
    ("fetchall", lambda cur: cur.fetchall()),
]


class TestClosedConnection:
    @pytest.mark.parametrize("name,call", CONNECTION_CALLS, ids=[n for n, _ in CONNECTION_CALLS])
    def test_method_named_in_error(self, transport, name, call):
        conn = transport()
        conn.close()
        with pytest.raises(InterfaceError, match=rf"{name}\(\).*closed connection"):
            call(conn)

    def test_double_close_is_silent(self, transport):
        conn = transport()
        conn.close()
        conn.close()  # idempotent, no error


class TestClosedCursor:
    @pytest.mark.parametrize("name,call", CURSOR_CALLS, ids=[n for n, _ in CURSOR_CALLS])
    def test_method_named_in_error(self, transport, name, call):
        conn = transport(autocommit=True)
        cur = conn.cursor()
        cur.close()
        with pytest.raises(InterfaceError, match=rf"{name}\(\).*closed cursor"):
            call(cur)
        conn.close()

    @pytest.mark.parametrize("name,call", CURSOR_CALLS, ids=[n for n, _ in CURSOR_CALLS])
    def test_open_cursor_on_closed_connection_names_method(self, transport, name, call):
        conn = transport(autocommit=True)
        cur = conn.cursor()
        conn.close()
        with pytest.raises(InterfaceError, match=rf"{name}\(\).*closed connection"):
            call(cur)


@pytest.mark.parametrize("statement", [
    # The engine refuses the SMO (EvolutionError) ...
    "CREATE SCHEMA VERSION v2 FROM TasKy WITH ADD COLUMN c AS zz + 1 INTO Task;",
    # ... or the catalog refuses the name (CatalogError).
    "MATERIALIZE nope;",
])
def test_refused_ddl_is_a_programming_error(transport, statement):
    conn = transport(autocommit=True)
    with pytest.raises(ProgrammingError):
        conn.execute(statement)
    conn.close()


def test_a_statement_failing_inside_sqlite_leaves_the_session_clean():
    """A write that SQLite aborts — here with the generated UPDATE
    trigger's ``RAISE(ABORT, 'the row identifier p is immutable')``, fired
    by a test trigger on the data table — raises ``OperationalError``,
    counts one statement error, leaves the primary handle free for the
    next statement from another thread, and leaves no transaction open."""
    engine = InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);")
    conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
    conn.execute("INSERT INTO R (a, b) VALUES (?, ?)", (1, "one"))
    backend = engine.live_backend
    data_table = engine.genealogy.schema_version("v1").table_version("R").data_table_name
    raise_immutable = IMMUTABLE_KEY[IMMUTABLE_KEY.index("RAISE") : IMMUTABLE_KEY.index(" ELSE")]
    for event in ("INSERT", "UPDATE"):
        backend.execute(
            f"CREATE TRIGGER test_frozen_{event} BEFORE {event} ON {data_table} "
            f"WHEN new.b = 'frozen' BEGIN SELECT {raise_immutable}; END"
        )
    errors = engine.metrics.get("repro_statement_errors_total")
    pool = backend.pool
    before = pool.stats()["leases"]
    with pytest.raises(OperationalError, match="the row identifier p is immutable"):
        conn.execute("UPDATE R SET b = ? WHERE a = ?", ("frozen", 1))
    assert errors.value(version="v1") == 1
    assert not conn.in_transaction and not conn._session.in_transaction
    assert not backend.connection.in_transaction

    rows: list = []
    other = threading.Thread(
        target=lambda: rows.extend(
            repro.connect(engine, "v1", autocommit=True, backend="sqlite")
            .execute("SELECT b FROM R WHERE a = ?", (1,))
            .fetchall()
        )
    )
    other.start()
    other.join(10)
    assert rows == [("one",)]
    after = pool.stats()["leases"]
    assert after["primary"] == before["primary"] + 2  # the failed write's, then the read's
    assert after["overflow"] == before["overflow"]
    backend.close()
